package hashtable

import (
	"sync"
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// concurrentBuilder is one design's concurrent build protocol: prepare
// runs single-threaded before the workers start, insert runs on every
// worker, finish after they all returned.
type concurrentBuilder struct {
	name    string
	prepare func(n int) Table
	insert  func(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch)
	finish  func()
}

// concurrentBuilders returns every design with a concurrent build, in
// its batch and scalar flavors.
func concurrentBuilders() []concurrentBuilder {
	var ct *ChainedTable
	var lt *LinearTable
	var at *ArrayTable
	scalar := func(ins func(tuple.Tuple)) func([]tuple.Key, []tuple.Payload, *BatchScratch) {
		return func(keys []tuple.Key, payloads []tuple.Payload, _ *BatchScratch) {
			for i, k := range keys {
				ins(tuple.Tuple{Key: k, Payload: payloads[i]})
			}
		}
	}
	newChained := func(n int) Table {
		// Identity hash: the lockstep key schedule below then sends two
		// workers to the same head bucket at the same moment.
		ct = NewChainedTable(n, hashfn.Identity, nil)
		ct.PrepareConcurrent()
		return ct
	}
	newLinear := func(n int) Table { lt = NewLinearTable(n, 0, hashfn.Identity, nil); return lt }
	newArray := func(n int) Table { at = NewArrayTable(0, n, nil); return at }
	return []concurrentBuilder{
		{"chained/batch", newChained, func(k []tuple.Key, p []tuple.Payload, s *BatchScratch) { ct.BuildBatchConcurrent(k, p, s) }, func() { ct.FinishConcurrentBuild() }},
		{"chained/scalar", newChained, scalar(func(tp tuple.Tuple) { ct.InsertConcurrent(tp) }), func() { ct.FinishConcurrentBuild() }},
		{"linear/batch", newLinear, func(k []tuple.Key, p []tuple.Payload, s *BatchScratch) { lt.BuildBatchConcurrent(k, p, s) }, func() {}},
		{"linear/scalar", newLinear, scalar(func(tp tuple.Tuple) { lt.InsertConcurrent(tp) }), func() {}},
		{"array/batch", newArray, func(k []tuple.Key, p []tuple.Payload, s *BatchScratch) { at.BuildBatchConcurrent(k, p, s) }, func() { at.FinishConcurrentBuild() }},
		{"array/scalar", newArray, scalar(func(tp tuple.Tuple) { at.InsertConcurrent(tp) }), func() { at.FinishConcurrentBuild() }},
	}
}

// TestConcurrentBuildRace is the race detector's regression test for
// the concurrent builds: four workers fill one 2^18-tuple table, 30
// times per design. Worker w inserts key j + (w&1)<<17 + (w>>1)<<16 at
// step j, so workers 0/1 and 2/3 walk the same chained head buckets in
// lockstep and contend for their latches. Run it with -race; without
// the detector it still checks that every build is complete.
func TestConcurrentBuildRace(t *testing.T) {
	const n = 1 << 18
	const workers = 4
	const reps = 30
	const per = n / workers
	keys := make([]tuple.Key, n)
	payloads := make([]tuple.Payload, n)
	for w := 0; w < workers; w++ {
		for j := 0; j < per; j++ {
			k := tuple.Key(j + (w&1)<<17 + (w>>1)<<16)
			keys[w*per+j] = k
			payloads[w*per+j] = tuple.Payload(k*7 + 1)
		}
	}
	for _, b := range concurrentBuilders() {
		t.Run(b.name, func(t *testing.T) {
			for rep := 0; rep < reps; rep++ {
				tbl := b.prepare(n)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(lo int) {
						defer wg.Done()
						var s BatchScratch
						runBatched(per, func(a, z int) {
							b.insert(keys[lo+a:lo+z], payloads[lo+a:lo+z], &s)
						})
					}(w * per)
				}
				wg.Wait()
				b.finish()
				if tbl.Len() != n {
					t.Fatalf("rep %d: len = %d, want %d", rep, tbl.Len(), n)
				}
				for i, k := range keys {
					if p, ok := tbl.Lookup(k); !ok || p != payloads[i] {
						t.Fatalf("rep %d: Lookup(%d) = %d,%v, want %d,true", rep, k, p, ok, payloads[i])
					}
				}
			}
		})
	}
}

// TestConcurrentTrackingProbes probes one tracking table from four
// goroutines at once, through LookupBatch and scalar Lookup on
// alternating batches, as the outer joins' shared-table probes do. Every
// second key is probed, by two workers each, so marks of different
// workers land in the same chained meta words and bitmap words. Run it
// with -race.
func TestConcurrentTrackingProbes(t *testing.T) {
	const n = 1 << 12
	const workers = 4
	tuples := denseTuples(n)
	var keys []tuple.Key
	for k := 0; k < n; k += 2 {
		keys = append(keys, tuple.Key(k))
	}
	for name, tbl := range buildBatchTables(t, tuples, n, hashfn.Murmur) {
		tt := tbl.(trackingTable)
		tt.EnableMatchTracking()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(half int) {
				defer wg.Done()
				var s BatchScratch
				payloads := make([]tuple.Payload, BatchSize)
				found := make([]bool, BatchSize)
				mine := keys[half*len(keys)/2 : (half+1)*len(keys)/2]
				runBatched(len(mine), func(lo, hi int) {
					if lo/BatchSize%2 == 0 {
						tt.LookupBatch(mine[lo:hi], &s, payloads, found)
						return
					}
					for _, k := range mine[lo:hi] {
						tt.Lookup(k)
					}
				})
			}(w % 2)
		}
		wg.Wait()
		unmatched := 0
		tt.ForEachUnmatched(func(k tuple.Key, _ tuple.Payload) {
			if k%2 == 0 {
				t.Errorf("%s: probed key %d reported unmatched", name, k)
			}
			unmatched++
		})
		if unmatched != n/2 {
			t.Fatalf("%s: %d unmatched entries, want %d", name, unmatched, n/2)
		}
	}
}
