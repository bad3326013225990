package hashtable

import (
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// Fuzz target: every table design agrees with a map for arbitrary
// unique-key insert sequences under every hash, through scalar Lookup,
// LookupBatch and ProbeJoinBatch (and so the shared match compaction)
// alike.
func FuzzTablesAgainstMap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{255, 0, 255, 0, 7})
	f.Fuzz(func(t *testing.T, keys []byte) {
		if len(keys) > 4096 {
			t.Skip()
		}
		for _, h := range allHashes {
			checkTablesAgainstMap(t, keys, h)
		}
	})
}

func checkTablesAgainstMap(t *testing.T, keys []byte, h hashfn.Hash) {
	t.Helper()
	ref := map[tuple.Key]tuple.Payload{}
	var tuples []tuple.Tuple
	for i := 0; i+1 < len(keys); i += 2 {
		k := tuple.Key(keys[i])<<8 | tuple.Key(keys[i+1])
		if _, dup := ref[k]; dup {
			continue
		}
		ref[k] = tuple.Payload(i)
		tuples = append(tuples, tuple.Tuple{Key: k, Payload: tuple.Payload(i)})
	}
	ct := NewChainedTable(len(tuples), h, nil)
	lt := NewLinearTable(len(tuples), 0, h, nil)
	rh := NewRobinHoodTable(len(tuples), 0, h, nil)
	st := NewSparseTable(len(tuples), h)
	at := NewArrayTable(0, 1<<16, nil)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
		rh.Insert(tp)
		st.Insert(tp)
		at.Insert(tp)
	}
	cht := BuildCHT(tuples, h)
	// Probe every built key, a neighbor that may or may not be built,
	// and a key outside every table's domain.
	var probes []tuple.Key
	for _, tp := range tuples {
		probes = append(probes, tp.Key, tp.Key^1, tp.Key|1<<16)
	}
	wantHits := 0
	for _, k := range probes {
		if _, ok := ref[k]; ok {
			wantHits++
		}
	}
	lanes := make([]tuple.Payload, len(probes))
	for i := range lanes {
		lanes[i] = tuple.Payload(i)
	}
	var s BatchScratch
	var out MatchBatch
	payloads := make([]tuple.Payload, BatchSize)
	found := make([]bool, BatchSize)
	for _, tbl := range []batchTable{ct, lt, rh, st, at, cht} {
		if tbl.Len() != len(ref) {
			t.Fatalf("%v: %T len %d, want %d", h, tbl, tbl.Len(), len(ref))
		}
		for k, v := range ref {
			if p, ok := tbl.Lookup(k); !ok || p != v {
				t.Fatalf("%v: %T lost key %d", h, tbl, k)
			}
		}
		if _, ok := tbl.Lookup(1 << 17); ok {
			t.Fatalf("%v: %T phantom hit", h, tbl)
		}
		hits := 0
		runBatched(len(probes), func(lo, hi int) {
			tbl.LookupBatch(probes[lo:hi], &s, payloads, found)
			for i, k := range probes[lo:hi] {
				if v, ok := ref[k]; found[i] != ok || (ok && payloads[i] != v) {
					t.Fatalf("%v: %T LookupBatch(%d) = %d,%v, want %d,%v", h, tbl, k, payloads[i], found[i], v, ok)
				}
			}
			tbl.ProbeJoinBatch(probes[lo:hi], lanes[lo:hi], &s, &out)
			for j := 0; j < out.N; j++ {
				lane := int(out.Probe[j])
				v, ok := ref[probes[lane]]
				if !ok || out.Build[j] != v || (j > 0 && out.Probe[j-1] >= out.Probe[j]) {
					t.Fatalf("%v: %T ProbeJoinBatch emitted <%d, lane %d> for key %d (ref %d,%v)", h, tbl, out.Build[j], lane, probes[lane], v, ok)
				}
			}
			hits += out.N
		})
		if hits != wantHits {
			t.Fatalf("%v: %T ProbeJoinBatch found %d matches, want %d", h, tbl, hits, wantHits)
		}
	}
}
