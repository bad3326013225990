// Top-level benchmarks: one Benchmark<Id> per table and figure of the
// paper's evaluation section. Each benchmark exercises the code path the
// experiment relies on at a size suited to `go test -bench`; the full
// parameter sweeps (and the rendered tables) live in internal/bench and
// are driven by cmd/joinbench.
package mmjoin_test

import (
	"fmt"
	"sync"
	"testing"

	"mmjoin"
	"mmjoin/internal/exec"
	"mmjoin/internal/memsim"
	"mmjoin/internal/numa"
	"mmjoin/internal/numasim"
	"mmjoin/internal/radix"
	"mmjoin/internal/tpch"
	"mmjoin/internal/tuple"
)

// Benchmark workload sizes: |R|=256k, |S|=2.56M keeps one join iteration
// in the tens of milliseconds.
const (
	benchBuild = 256 << 10
	benchProbe = benchBuild * 10
)

var (
	workloadOnce sync.Once
	benchW       *mmjoin.Workload
	skewW        *mmjoin.Workload
	holesW       *mmjoin.Workload
	equalW       *mmjoin.Workload
)

func workloads(b *testing.B) {
	b.Helper()
	workloadOnce.Do(func() {
		var err error
		if benchW, err = mmjoin.Generate(mmjoin.WorkloadConfig{BuildSize: benchBuild, ProbeSize: benchProbe, Seed: 1}); err != nil {
			panic(err)
		}
		if skewW, err = mmjoin.Generate(mmjoin.WorkloadConfig{BuildSize: benchBuild, ProbeSize: benchProbe, Zipf: 0.99, Seed: 2}); err != nil {
			panic(err)
		}
		if holesW, err = mmjoin.Generate(mmjoin.WorkloadConfig{BuildSize: benchBuild, ProbeSize: benchProbe, HoleFactor: 8, Seed: 3}); err != nil {
			panic(err)
		}
		if equalW, err = mmjoin.Generate(mmjoin.WorkloadConfig{BuildSize: benchBuild, ProbeSize: benchBuild, Seed: 4}); err != nil {
			panic(err)
		}
	})
}

// benchJoin runs one algorithm repeatedly over a workload.
func benchJoin(b *testing.B, name string, w *mmjoin.Workload, opts mmjoin.Options) {
	b.Helper()
	algo := mmjoin.MustNew(name)
	opts.Domain = w.Domain
	if opts.Threads == 0 {
		opts.Threads = 8
	}
	b.SetBytes(int64(len(w.Build)+len(w.Probe)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := algo.Run(w.Build, w.Probe, &opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches == 0 && len(w.Probe) > 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkFig1BlackBox: the four fundamental representatives
// (Figure 1).
func BenchmarkFig1BlackBox(b *testing.B) {
	workloads(b)
	for _, name := range []string{"MWAY", "CHTJ", "PRB", "NOP"} {
		b.Run(name, func(b *testing.B) { benchJoin(b, name, benchW, mmjoin.Options{}) })
	}
}

// BenchmarkFig2RadixBits: PRO one- vs two-pass partitioning at a fixed
// bit budget (Figure 2).
func BenchmarkFig2RadixBits(b *testing.B) {
	workloads(b)
	b.Run("1pass-10bits", func(b *testing.B) {
		benchJoin(b, "PRO", benchW, mmjoin.Options{RadixBits: 10})
	})
	b.Run("2pass-10bits", func(b *testing.B) {
		benchJoin(b, "PRO", benchW, mmjoin.Options{RadixBits: 10, ForceTwoPass: true})
	})
}

// BenchmarkFig3WhiteBox: the optimized variants added in Figure 3.
func BenchmarkFig3WhiteBox(b *testing.B) {
	workloads(b)
	for _, name := range []string{"NOPA", "PRO", "PRL", "PRA"} {
		b.Run(name, func(b *testing.B) { benchJoin(b, name, benchW, mmjoin.Options{}) })
	}
}

// BenchmarkFig5Breakdown: PR* vs the chunked CPR* family (Figure 5).
func BenchmarkFig5Breakdown(b *testing.B) {
	workloads(b)
	for _, name := range []string{"PRO", "PRL", "PRA", "CPRL", "CPRA"} {
		b.Run(name, func(b *testing.B) { benchJoin(b, name, benchW, mmjoin.Options{}) })
	}
}

// BenchmarkFig6Bandwidth: the discrete-event bandwidth-profile
// simulation behind Figure 6.
func BenchmarkFig6Bandwidth(b *testing.B) {
	workloads(b)
	topo := numa.PaperTopology()
	pr := radix.PartitionGlobal(benchW.Build, 8, 8, true)
	ps := radix.PartitionGlobal(benchW.Probe, 8, 8, true)
	tasks := numasim.FromGlobalPartitions(topo, pr, ps)
	m := numasim.PaperMachine()
	orders := map[string][]int{
		"PRO-sequential":   exec.SequentialOrder(len(tasks)),
		"PROiS-roundrobin": exec.RoundRobinOrder(len(tasks), topo.Nodes, numasim.HomeNodeOfPartition(topo, pr)),
	}
	for name, order := range orders {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := numasim.Simulate(m, tasks, order, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Scheduling: the improved-scheduling variants (Figure 7).
func BenchmarkFig7Scheduling(b *testing.B) {
	workloads(b)
	for _, name := range []string{"PROiS", "PRLiS", "PRAiS", "CPRL", "CPRA"} {
		b.Run(name, func(b *testing.B) { benchJoin(b, name, benchW, mmjoin.Options{}) })
	}
}

// BenchmarkFig8PageSize: the trace-driven page-size simulation
// (Figure 8) on its standout pair: PRB regresses, PRO gains.
func BenchmarkFig8PageSize(b *testing.B) {
	workloads(b)
	small := memsim.PaperGeometry(4 << 10)
	huge := memsim.PaperGeometry(2 << 20)
	for _, cfg := range []struct {
		name string
		geo  memsim.Geometry
	}{{"smallpages", small}, {"hugepages", huge}} {
		for _, algo := range []string{"PRB", "PRO"} {
			b.Run(fmt.Sprintf("%s-%s", algo, cfg.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := memsim.Simulate(algo, benchW.Build[:1<<15], benchW.Probe[:1<<16], 12, cfg.geo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9BitsSweep: sensitivity of a radix join to the bit count
// (Figure 9).
func BenchmarkFig9BitsSweep(b *testing.B) {
	workloads(b)
	for _, bits := range []uint{6, 10, 14} {
		b.Run(fmt.Sprintf("CPRL-%dbits", bits), func(b *testing.B) {
			benchJoin(b, "CPRL", equalW, mmjoin.Options{RadixBits: bits})
		})
	}
}

// BenchmarkFig10Scaling: input-size scaling for the two families
// (Figure 10).
func BenchmarkFig10Scaling(b *testing.B) {
	for _, size := range []int{1 << 16, 1 << 19} {
		w, err := mmjoin.Generate(mmjoin.WorkloadConfig{BuildSize: size, ProbeSize: size * 10, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"NOP", "CPRA"} {
			b.Run(fmt.Sprintf("%s-R%dk", name, size>>10), func(b *testing.B) {
				benchJoin(b, name, w, mmjoin.Options{})
			})
		}
	}
}

// BenchmarkFig11Partitioning: raw partition-phase cost, chunked vs
// global (Figure 11).
func BenchmarkFig11Partitioning(b *testing.B) {
	workloads(b)
	rel := benchW.Probe
	b.Run("global", func(b *testing.B) {
		b.SetBytes(int64(len(rel)) * 8)
		for i := 0; i < b.N; i++ {
			radix.PartitionGlobal(rel, 11, 8, true)
		}
	})
	b.Run("chunked", func(b *testing.B) {
		b.SetBytes(int64(len(rel)) * 8)
		for i := 0; i < b.N; i++ {
			radix.PartitionChunked(rel, 11, 8, true)
		}
	})
}

// BenchmarkFig12Predictor: CPRL at the Equation (1) bit choice
// (Figure 12).
func BenchmarkFig12Predictor(b *testing.B) {
	workloads(b)
	bits := radix.PredictBits(len(equalW.Build), radix.LoadFactorFor("linear"), 8, radix.PaperMachine())
	b.Run(fmt.Sprintf("CPRL-eq1-%dbits", bits), func(b *testing.B) {
		benchJoin(b, "CPRL", equalW, mmjoin.Options{RadixBits: bits})
	})
}

var (
	tpchOnce sync.Once
	tpchTB   *tpch.Tables
)

func tpchTables(b *testing.B) *tpch.Tables {
	b.Helper()
	tpchOnce.Do(func() {
		var err error
		tpchTB, err = tpch.Generate(tpch.Config{ScaleFactor: 0.1, Seed: 6, ShipSelectivity: 0.0357})
		if err != nil {
			panic(err)
		}
	})
	return tpchTB
}

// BenchmarkFig14Q19: the full TPC-H Q19 per executor (Figure 14).
func BenchmarkFig14Q19(b *testing.B) {
	tb := tpchTables(b)
	for _, algo := range []string{"NOP", "NOPA", "CPRL", "CPRA"} {
		b.Run(algo, func(b *testing.B) {
			b.SetBytes(int64(tb.Lineitem.NumTuples+tb.Part.NumTuples) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := tpch.RunQ19(tb, algo, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15Skew: uniform vs heavily skewed probe side (Figure 15).
func BenchmarkFig15Skew(b *testing.B) {
	workloads(b)
	for _, cfg := range []struct {
		name string
		w    *mmjoin.Workload
	}{{"zipf0", benchW}, {"zipf099", skewW}} {
		for _, algo := range []string{"NOP", "CPRL"} {
			b.Run(fmt.Sprintf("%s-%s", algo, cfg.name), func(b *testing.B) {
				benchJoin(b, algo, cfg.w, mmjoin.Options{})
			})
		}
	}
}

// BenchmarkFig16Threads: simulated machine scaling (Figure 16).
func BenchmarkFig16Threads(b *testing.B) {
	workloads(b)
	topo := numa.PaperTopology()
	pr := radix.PartitionGlobal(benchW.Build, 8, 8, true)
	ps := radix.PartitionGlobal(benchW.Probe, 8, 8, true)
	tasks := numasim.FromGlobalPartitions(topo, pr, ps)
	order := exec.SequentialOrder(len(tasks))
	m := numasim.PaperMachine()
	for _, threads := range []int{4, 16, 60, 120} {
		b.Run(fmt.Sprintf("%dthreads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := numasim.Simulate(m, tasks, order, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17Holes: array joins under a sparse key domain
// (Figure 17).
func BenchmarkFig17Holes(b *testing.B) {
	workloads(b)
	for _, algo := range []string{"NOPA", "CPRA"} {
		b.Run(algo+"-k8", func(b *testing.B) { benchJoin(b, algo, holesW, mmjoin.Options{}) })
	}
	b.Run("CPRA-k8-adaptive", func(b *testing.B) {
		benchJoin(b, "CPRA", holesW, mmjoin.Options{AdaptBitsToDomain: true})
	})
}

// BenchmarkFig18Selectivity: Q19 at the original vs a high pushdown
// selectivity (Figure 18).
func BenchmarkFig18Selectivity(b *testing.B) {
	for _, sel := range []float64{0.0357, 0.8} {
		tb, err := tpch.Generate(tpch.Config{ScaleFactor: 0.05, Seed: 7, ShipSelectivity: sel})
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range []string{"NOP", "CPRL"} {
			b.Run(fmt.Sprintf("%s-sel%.0f%%", algo, sel*100), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tpch.RunQ19(tb, algo, 8); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig19Morphing: the microbenchmark-to-query morphing steps
// (Figure 19).
func BenchmarkFig19Morphing(b *testing.B) {
	tb := tpchTables(b)
	for v := tpch.MorphPrefiltered; v <= tpch.MorphPipelined; v++ {
		b.Run(fmt.Sprintf("variant%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tpch.RunMorph(tb, v, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTab3Speedup: the 4-vs-60-thread speedup simulation
// (Table 3).
func BenchmarkTab3Speedup(b *testing.B) {
	workloads(b)
	topo := numa.PaperTopology()
	prC := radix.PartitionChunked(benchW.Build, 8, 8, true)
	psC := radix.PartitionChunked(benchW.Probe, 8, 8, true)
	tasks := numasim.FromChunkedPartitions(topo, prC, psC)
	order := exec.SequentialOrder(len(tasks))
	m := numasim.PaperMachine()
	for _, threads := range []int{4, 60} {
		b.Run(fmt.Sprintf("CPRL-%dthreads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := numasim.Simulate(m, tasks, order, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTab4Counters: the trace-driven counter simulation (Table 4).
func BenchmarkTab4Counters(b *testing.B) {
	workloads(b)
	geo := memsim.ScaledGeometry(2<<20, 64)
	for _, algo := range []string{"NOP", "PRO", "CPRL"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := memsim.Simulate(algo, benchW.Build[:1<<15], benchW.Probe[:1<<16], 10, geo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sanity: the facade exposes a usable relation type.
var _ tuple.Relation = mmjoin.Relation{}
