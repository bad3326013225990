package hashtable

import (
	"fmt"
	"sync"
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// Microbenchmarks of the table designs: build and probe costs per tuple
// at the sizes the per-partition joins use (L2-resident) and at global
// NOP-table sizes (cache-busting).

func benchTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		// Golden-ratio stride covers the key space in shuffled order.
		ts[i] = tuple.Tuple{Key: tuple.Key(uint32(i) * 2654435761 % uint32(n)), Payload: tuple.Payload(i)}
	}
	return ts
}

func BenchmarkTableBuild(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 20} {
		tuples := benchTuples(n)
		b.Run(fmt.Sprintf("chained-%dk", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n) * tuple.Bytes)
			for i := 0; i < b.N; i++ {
				t := NewChainedTable(n, hashfn.Identity, nil)
				for _, tp := range tuples {
					t.Insert(tp)
				}
			}
		})
		b.Run(fmt.Sprintf("linear-%dk", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n) * tuple.Bytes)
			for i := 0; i < b.N; i++ {
				t := NewLinearTable(n, 0, hashfn.Identity, nil)
				for _, tp := range tuples {
					t.Insert(tp)
				}
			}
		})
		b.Run(fmt.Sprintf("cht-%dk", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n) * tuple.Bytes)
			for i := 0; i < b.N; i++ {
				BuildCHT(tuples, hashfn.Identity)
			}
		})
		b.Run(fmt.Sprintf("array-%dk", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n) * tuple.Bytes)
			for i := 0; i < b.N; i++ {
				t := NewArrayTable(0, n, nil)
				for _, tp := range tuples {
					t.Insert(tp)
				}
			}
		})
		b.Run(fmt.Sprintf("robinhood-%dk", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n) * tuple.Bytes)
			for i := 0; i < b.N; i++ {
				t := NewRobinHoodTable(n, 0, hashfn.Identity, nil)
				for _, tp := range tuples {
					t.Insert(tp)
				}
			}
		})
	}
}

func BenchmarkTableProbe(b *testing.B) {
	const n = 1 << 18
	tuples := benchTuples(n)
	probes := benchTuples(n) // same keys, shuffled order

	ct := NewChainedTable(n, hashfn.Identity, nil)
	lt := NewLinearTable(n, 0, hashfn.Identity, nil)
	at := NewArrayTable(0, n, nil)
	rh := NewRobinHoodTable(n, 0, hashfn.Identity, nil)
	st := NewSparseTable(n, hashfn.Identity)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
		at.Insert(tp)
		rh.Insert(tp)
		st.Insert(tp)
	}
	cht := BuildCHT(tuples, hashfn.Identity)

	probe := func(b *testing.B, tbl Table) {
		b.SetBytes(int64(n) * tuple.Bytes)
		var sink tuple.Payload
		for i := 0; i < b.N; i++ {
			for _, tp := range probes {
				if p, ok := tbl.Lookup(tp.Key); ok {
					sink += p
				}
			}
		}
		_ = sink
	}
	b.Run("chained", func(b *testing.B) { probe(b, ct) })
	b.Run("linear", func(b *testing.B) { probe(b, lt) })
	b.Run("cht", func(b *testing.B) { probe(b, cht) })
	b.Run("array", func(b *testing.B) { probe(b, at) })
	b.Run("robinhood", func(b *testing.B) { probe(b, rh) })
	b.Run("sparse", func(b *testing.B) { probe(b, st) })
}

// soaKeys splits tuples into the SoA key/payload arrays the batch
// kernels consume.
func soaKeys(tuples []tuple.Tuple) ([]tuple.Key, []tuple.Payload) {
	keys := make([]tuple.Key, len(tuples))
	payloads := make([]tuple.Payload, len(tuples))
	for i, tp := range tuples {
		keys[i] = tp.Key
		payloads[i] = tp.Payload
	}
	return keys, payloads
}

// BenchmarkProbeKernels compares scalar Lookup loops against the
// batched ProbeJoinBatch kernels for every table kind at L2-resident,
// L3-resident and cache-busting build sizes. The 2^24 chained and
// linear cases back the batched-kernel acceptance numbers.
func BenchmarkProbeKernels(b *testing.B) {
	for _, lg := range []int{16, 20, 24} {
		n := 1 << lg
		tuples := benchTuples(n)
		probes := benchTuples(n)
		keys, payloads := soaKeys(probes)

		ct := NewChainedTable(n, hashfn.Murmur, nil)
		lt := NewLinearTable(n, 0, hashfn.Murmur, nil)
		at := NewArrayTable(0, n, nil)
		rh := NewRobinHoodTable(n, 0, hashfn.Murmur, nil)
		st := NewSparseTable(n, hashfn.Murmur)
		for _, tp := range tuples {
			ct.Insert(tp)
			lt.Insert(tp)
			at.Insert(tp)
			rh.Insert(tp)
			st.Insert(tp)
		}
		cht := BuildCHT(tuples, hashfn.Murmur)

		scalar := func(b *testing.B, tbl Table) {
			b.SetBytes(int64(n) * tuple.Bytes)
			var sink tuple.Payload
			for i := 0; i < b.N; i++ {
				for _, tp := range probes {
					if p, ok := tbl.Lookup(tp.Key); ok {
						sink += p
					}
				}
			}
			_ = sink
		}
		batch := func(b *testing.B, tbl batchTable) {
			b.SetBytes(int64(n) * tuple.Bytes)
			var s BatchScratch
			var out MatchBatch
			var sink tuple.Payload
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += BatchSize {
					hi := min(lo+BatchSize, n)
					tbl.ProbeJoinBatch(keys[lo:hi], payloads[lo:hi], &s, &out)
					for j := 0; j < out.N; j++ {
						sink += out.Build[j]
					}
				}
			}
			_ = sink
		}
		for _, tc := range []struct {
			name string
			tbl  batchTable
		}{
			{"chained", ct}, {"linear", lt}, {"cht", cht},
			{"array", at}, {"robinhood", rh}, {"sparse", st},
		} {
			b.Run(fmt.Sprintf("table=%s/keys=2^%d/kernel=scalar", tc.name, lg), func(b *testing.B) { scalar(b, tc.tbl) })
			b.Run(fmt.Sprintf("table=%s/keys=2^%d/kernel=batch", tc.name, lg), func(b *testing.B) { batch(b, tc.tbl) })
		}
	}
}

// BenchmarkBuildKernels compares scalar Insert loops against the
// BuildBatch kernels (CHT excluded: it only builds through its
// bulk-loading builder).
func BenchmarkBuildKernels(b *testing.B) {
	for _, lg := range []int{16, 20, 24} {
		n := 1 << lg
		tuples := benchTuples(n)
		keys, payloads := soaKeys(tuples)

		ct := NewChainedTable(n, hashfn.Murmur, nil)
		lt := NewLinearTable(n, 0, hashfn.Murmur, nil)
		rh := NewRobinHoodTable(n, 0, hashfn.Murmur, nil)
		at := NewArrayTable(0, n, nil)

		scalarCases := []struct {
			name  string
			reset func()
			ins   func(tp tuple.Tuple)
		}{
			{"chained", ct.Reset, ct.Insert},
			{"linear", lt.Reset, lt.Insert},
			{"robinhood", rh.Reset, rh.Insert},
			{"array", at.Reset, at.Insert},
		}
		batchCases := []struct {
			name  string
			reset func()
			build func(lo, hi int, s *BatchScratch)
		}{
			{"chained", ct.Reset, func(lo, hi int, s *BatchScratch) { ct.BuildBatch(keys[lo:hi], payloads[lo:hi], s) }},
			{"linear", lt.Reset, func(lo, hi int, s *BatchScratch) { lt.BuildBatch(keys[lo:hi], payloads[lo:hi], s) }},
			{"robinhood", rh.Reset, func(lo, hi int, s *BatchScratch) { rh.BuildBatch(keys[lo:hi], payloads[lo:hi], s) }},
			{"array", at.Reset, func(lo, hi int, s *BatchScratch) { at.BuildBatch(keys[lo:hi], payloads[lo:hi], s) }},
		}
		for _, tc := range scalarCases {
			b.Run(fmt.Sprintf("table=%s/keys=2^%d/kernel=scalar", tc.name, lg), func(b *testing.B) {
				b.SetBytes(int64(n) * tuple.Bytes)
				for i := 0; i < b.N; i++ {
					tc.reset()
					for _, tp := range tuples {
						tc.ins(tp)
					}
				}
			})
		}
		for _, tc := range batchCases {
			b.Run(fmt.Sprintf("table=%s/keys=2^%d/kernel=batch", tc.name, lg), func(b *testing.B) {
				b.SetBytes(int64(n) * tuple.Bytes)
				var s BatchScratch
				for i := 0; i < b.N; i++ {
					tc.reset()
					for lo := 0; lo < n; lo += BatchSize {
						tc.build(lo, min(lo+BatchSize, n), &s)
					}
				}
			})
		}
	}
}

func BenchmarkLinearInsertConcurrent(b *testing.B) {
	const n = 1 << 16
	const workers = 8
	tuples := benchTuples(n)
	b.SetBytes(int64(n) * tuple.Bytes)
	for i := 0; i < b.N; i++ {
		t := NewLinearTable(n, 0, hashfn.Identity, nil)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < n; j += workers {
					t.InsertConcurrent(tuples[j])
				}
			}(w)
		}
		wg.Wait()
	}
}
