package hashtable

import (
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// TestArenaBackedTablesRoundTrip builds every arena-capable table from
// arena-drawn storage, verifies lookups against a reference map, frees
// the tables and checks the arena balance returns to zero — the leak
// contract the oracle harness asserts per test case.
func TestArenaBackedTablesRoundTrip(t *testing.T) {
	const n = 10000
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i*7 + 1)}
	}
	a := exec.NewArena()

	ct := NewChainedTable(n/8, hashfn.Murmur, a) // undersized: exercises overflow realloc
	lt := NewLinearTable(n, 0, hashfn.Murmur, a)
	rh := NewRobinHoodTable(n, 0, hashfn.Murmur, a)
	at := NewArrayTable(0, n, a)
	cb := NewCHTBuilder(n, 1, hashfn.Murmur, a)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
		rh.Insert(tp)
		at.Insert(tp)
	}
	cb.LoadRegion(0, tuples)
	cht := cb.Finalize()

	tables := map[string]Table{"chained": ct, "linear": lt, "robinhood": rh, "array": at, "cht": cht}
	for name, tbl := range tables {
		if tbl.Len() != n {
			t.Fatalf("%s: len = %d, want %d", name, tbl.Len(), n)
		}
		for _, tp := range tuples {
			if p, ok := tbl.Lookup(tp.Key); !ok || p != tp.Payload {
				t.Fatalf("%s: Lookup(%d) = %d,%v, want %d,true", name, tp.Key, p, ok, tp.Payload)
			}
		}
		if _, ok := tbl.Lookup(tuple.Key(n + 5)); ok {
			t.Fatalf("%s: phantom hit for absent key", name)
		}
	}

	ct.Free()
	lt.Free()
	rh.Free()
	at.Free()
	cht.Free()
	// Free is idempotent.
	ct.Free()
	cht.Free()
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("arena outstanding after Free = %d, want 0", got)
	}
}

// TestArenaBackedChainedConcurrent drives the concurrent build protocol
// on arena storage: the PrepareConcurrent reservation must come from
// the arena and return with Free.
func TestArenaBackedChainedConcurrent(t *testing.T) {
	const n = 4096
	a := exec.NewArena()
	ct := NewChainedTable(n, hashfn.Identity, a)
	ct.PrepareConcurrent()
	for i := 0; i < n; i++ {
		ct.InsertConcurrent(tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i)})
	}
	ct.FinishConcurrentBuild()
	if ct.Len() != n {
		t.Fatalf("len = %d, want %d", ct.Len(), n)
	}
	for i := 0; i < n; i++ {
		if p, ok := ct.Lookup(tuple.Key(i)); !ok || p != tuple.Payload(i) {
			t.Fatalf("Lookup(%d) failed after concurrent arena build", i)
		}
	}
	ct.Free()
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("arena outstanding after Free = %d, want 0", got)
	}
}

// TestPrefetchDistSettings runs a batch probe under every swept
// prefetch distance, pinning that the distance only affects timing,
// never results.
func TestPrefetchDistSettings(t *testing.T) {
	const n = 5000
	tuples := make([]tuple.Tuple, n)
	keys := make([]tuple.Key, 0, n+100)
	for i := range tuples {
		tuples[i] = tuple.Tuple{Key: tuple.Key(i * 2), Payload: tuple.Payload(i + 3)}
		keys = append(keys, tuple.Key(i*2))
	}
	for i := 0; i < 100; i++ {
		keys = append(keys, tuple.Key(i*2+1)) // misses
	}
	ct := NewChainedTable(n/4, hashfn.Murmur, nil)
	lt := NewLinearTable(n, 0, hashfn.Murmur, nil)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
	}
	defer SetPrefetchDistance(PrefetchDistance())
	var s BatchScratch
	payloads := make([]tuple.Payload, BatchSize)
	found := make([]bool, BatchSize)
	for _, dist := range []int{0, 4, 8, 16} {
		SetPrefetchDistance(dist)
		for lo := 0; lo < len(keys); lo += BatchSize {
			hi := min(lo+BatchSize, len(keys))
			batch := keys[lo:hi]
			for _, tbl := range []interface {
				LookupBatch([]tuple.Key, *BatchScratch, []tuple.Payload, []bool)
			}{ct, lt} {
				tbl.LookupBatch(batch, &s, payloads, found)
				for i, k := range batch {
					wantHit := k%2 == 0 && int(k) < 2*n
					if found[i] != wantHit {
						t.Fatalf("dist %d: found[%d] for key %d = %v, want %v", dist, i, k, found[i], wantHit)
					}
					if wantHit && payloads[i] != tuple.Payload(int(k)/2+3) {
						t.Fatalf("dist %d: payload for key %d = %d", dist, k, payloads[i])
					}
				}
			}
		}
	}
}
