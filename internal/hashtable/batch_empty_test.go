package hashtable

import (
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// Regression test for the stale-output bug in the LookupBatch
// empty-table early exits: the output arrays are worker scratch reused
// across batches, so a kernel that returns without writing them replays
// the previous batch's hits as phantom matches. Every table kind's
// LookupBatch must write all n output lanes even when the backing
// arrays are empty.
func TestLookupBatchEmptyTableClearsOutputs(t *testing.T) {
	// Construct each kind, then strip its backing storage to reach the
	// empty-table guard (the constructors always allocate at least one
	// slot, so the guard is otherwise unreachable from fresh tables).
	ct := NewChainedTable(4, hashfn.Identity, nil)
	ct.buckets = nil
	lt := NewLinearTable(4, 0, hashfn.Identity, nil)
	lt.keys = nil
	rh := NewRobinHoodTable(4, 0, hashfn.Identity, nil)
	rh.keys = nil
	cht := BuildCHT(nil, hashfn.Identity)
	cht.groups = nil
	st := NewSparseTable(4, hashfn.Identity)
	st.groups = nil

	tables := map[string]interface {
		LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool)
	}{
		"chained": ct, "linear": lt, "robinhood": rh, "cht": cht, "sparse": st,
	}
	for name, tbl := range tables {
		t.Run(name, func(t *testing.T) {
			s := &BatchScratch{}
			n := 8
			keys := make([]tuple.Key, n)
			payloads := make([]tuple.Payload, n)
			found := make([]bool, n)
			// Simulate a previous batch's results left in the scratch.
			for i := range found {
				found[i] = true
				payloads[i] = 99
			}
			tbl.LookupBatch(keys, s, payloads, found)
			for i := 0; i < n; i++ {
				if found[i] {
					t.Fatalf("lane %d: found=true from an empty table (stale scratch not cleared)", i)
				}
				if payloads[i] != 0 {
					t.Fatalf("lane %d: payload %d from an empty table", i, payloads[i])
				}
			}
		})
	}
}

// The same scenario through a realistic probe sequence: a batch against
// a populated table followed by one against an emptied table, with the
// scratch outputs shared — the second batch must not inherit the
// first's hits.
func TestLookupBatchEmptyAfterPopulated(t *testing.T) {
	full := NewChainedTable(8, hashfn.Identity, nil)
	for i := 0; i < 8; i++ {
		full.Insert(tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i + 1)})
	}
	empty := NewChainedTable(8, hashfn.Identity, nil)
	empty.buckets = nil

	s := &BatchScratch{}
	keys := []tuple.Key{0, 1, 2, 3}
	payloads := make([]tuple.Payload, len(keys))
	found := make([]bool, len(keys))
	full.LookupBatch(keys, s, payloads, found)
	for i := range keys {
		if !found[i] {
			t.Fatalf("populated table: key %d not found", keys[i])
		}
	}
	empty.LookupBatch(keys, s, payloads, found)
	for i := range keys {
		if found[i] {
			t.Fatalf("empty table: key %d reported found (stale result of the previous batch)", keys[i])
		}
	}
}
