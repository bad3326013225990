package bench

import (
	"fmt"
	"runtime"
	"time"

	"mmjoin/internal/colstore"
	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/join"
	"mmjoin/internal/numa"
	"mmjoin/internal/numasim"
	"mmjoin/internal/radix"
	"mmjoin/internal/tpch"
	"mmjoin/internal/tuple"
)

// Ablation experiments for the design choices DESIGN.md calls out:
// SWWCB on/off, hash-table implementation in NOP (the 2011-vs-2013
// contradiction), hash functions, and the skew-splitting extension.

func init() {
	registerExperiment(Experiment{
		ID:    "ablswwcb",
		Title: "Ablation: software write-combine buffers on/off",
		Run:   runAblSWWCB,
	})
	registerExperiment(Experiment{
		ID:    "ablnop",
		Title: "Ablation: NOP hash-table implementations (Blanas vs Lang)",
		Run:   runAblNOP,
	})
	registerExperiment(Experiment{
		ID:    "ablhash",
		Title: "Ablation: hash functions (identity/multiplicative/murmur/crc)",
		Run:   runAblHash,
	})
	registerExperiment(Experiment{
		ID:    "ablskew",
		Title: "Extension: skew-aware task splitting under Zipf probe keys",
		Run:   runAblSkew,
	})
}

func runAblSWWCB(c Config) (*Report, error) {
	w, err := generate(c, c.paperM(128), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	bitsList := []uint{8, 11, 14}
	if c.Quick {
		bitsList = []uint{8}
	}
	rep := &Report{
		ID:               "ablswwcb",
		Title:            "Partitioning with and without SWWCB",
		PaperExpectation: "SWWCB cuts TLB misses by tuples-per-cache-line; on real hardware it wins for large partition counts (lesson 5) — without non-temporal stores (Go) the win shrinks to the locality effect",
		Columns:          []string{"bits", "direct [ns/tuple]", "buffered [ns/tuple]"},
	}
	for _, bits := range bitsList {
		direct := timePartitionNs(w.Build, bits, c.Threads, false)
		buffered := timePartitionNs(w.Build, bits, c.Threads, true)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.2f", direct),
			fmt.Sprintf("%.2f", buffered),
		})
	}
	rep.Notes = append(rep.Notes, "see fig8/tab4 for the TLB component the wall clock on this host cannot show")
	return rep, nil
}

func timePartitionNs(rel tuple.Relation, bits uint, threads int, swwcb bool) float64 {
	start := time.Now()
	radix.PartitionGlobal(rel, bits, threads, swwcb)
	return float64(time.Since(start).Nanoseconds()) / float64(len(rel))
}

func runAblNOP(c Config) (*Report, error) {
	w, err := generate(c, c.paperM(128), c.paperM(1280), 0, 0)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:               "ablnop",
		Title:            "NOP with chained+latched vs lock-free linear vs array tables",
		PaperExpectation: "the 2013 lock-free linear-probing NOP (Lang) clearly beats the 2011 chained+latched NOP (Blanas) — one of the implementation differences behind the contradicting studies (Section 1)",
		Columns:          []string{"variant", "throughput [M/s]", "build [ms]", "probe [ms]"},
	}
	//mmjoin:registry-table bench
	for _, name := range []string{"NOPC", "NOP", "NOPA"} {
		algo, err := join.NewAny(name)
		if err != nil {
			return nil, err
		}
		res, err := algo.Run(w.Build, w.Probe, &join.Options{Threads: c.Threads, Domain: w.Domain})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			name, fmtThroughput(res), fmtMillis(res.BuildOrPartition), fmtMillis(res.ProbeOrJoin),
		})
	}
	return rep, nil
}

func runAblHash(c Config) (*Report, error) {
	w, err := generate(c, c.paperM(64), c.paperM(640), 0, 0)
	if err != nil {
		return nil, err
	}
	hashes := []string{"identity", "multiplicative", "murmur", "crc"}
	if c.Quick {
		hashes = []string{"identity", "murmur"}
	}
	rep := &Report{
		ID:               "ablhash",
		Title:            "Hash functions on NOP and PRLiS",
		PaperExpectation: "the paper fixes identity-modulo for all joins (Section 7.1: effective and efficient for dense keys); scramblers add per-tuple cost without helping these workloads",
		Columns:          []string{"hash", "NOP [M/s]", "PRLiS [M/s]"},
	}
	for _, hname := range hashes {
		h, err := hashfn.ByName(hname)
		if err != nil {
			return nil, err
		}
		nop, err := runJoin(c, "NOP", w, join.Options{Threads: c.Threads, Hash: h})
		if err != nil {
			return nil, err
		}
		prl, err := runJoin(c, "PRLiS", w, join.Options{Threads: c.Threads, Hash: h})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{hname, fmtThroughput(nop), fmtThroughput(prl)})
	}
	return rep, nil
}

func runAblSkew(c Config) (*Report, error) {
	zipfs := []float64{0.9, 0.99}
	if c.Quick {
		zipfs = []float64{0.99}
	}
	rep := &Report{
		ID:               "ablskew",
		Title:            "Skew-aware task splitting (extension beyond the paper)",
		PaperExpectation: "the paper's partition joins lose to NOP* at Zipf 0.99 partly through task imbalance it chose not to fix; splitting oversized co-partitions removes the straggler (measured wall clock + simulated 60-core makespan)",
		Columns:          []string{"zipf", "algorithm", "plain [M/s]", "split [M/s]", "sim makespan plain [ms]", "sim split [ms]"},
	}
	topo := numa.PaperTopology()
	m := numasim.PaperMachine()
	for _, z := range zipfs {
		w, err := generate(c, c.paperM(128), c.paperM(1280), z, 0)
		if err != nil {
			return nil, err
		}
		for _, algo := range []string{"CPRL", "PRAiS"} {
			plain, err := runJoin(c, algo, w, join.Options{Threads: c.Threads})
			if err != nil {
				return nil, err
			}
			split, err := runJoin(c, algo, w, join.Options{Threads: c.Threads, SplitSkewedTasks: true})
			if err != nil {
				return nil, err
			}

			// Simulated 60-worker makespan of the join phase with and
			// without splitting the oversized partitions.
			bits := plain.Bits
			prC := radix.PartitionChunked(w.Build, bits, c.Threads, true)
			psC := radix.PartitionChunked(w.Probe, bits, c.Threads, true)
			tasks := numasim.FromChunkedPartitions(topo, prC, psC)
			order := exec.SequentialOrder(len(tasks))
			baseline, err := numasim.Simulate(m, tasks, order, 60)
			if err != nil {
				return nil, err
			}
			splitTasks := splitOversized(tasks, 60)
			simSplit, err := numasim.Simulate(m, splitTasks, exec.SequentialOrder(len(splitTasks)), 60)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%.2f", z), algo,
				fmtThroughput(plain), fmtThroughput(split),
				fmt.Sprintf("%.1f", baseline.Makespan*1000),
				fmt.Sprintf("%.1f", simSplit.Makespan*1000),
			})
		}
	}
	return rep, nil
}

// splitOversized splits simulator tasks larger than 4x the average into
// worker-count pieces, mirroring join.Options.SplitSkewedTasks.
func splitOversized(tasks []numasim.Task, workers int) []numasim.Task {
	var total float64
	for _, t := range tasks {
		total += t.TotalBytes()
	}
	if len(tasks) == 0 || total == 0 {
		return tasks
	}
	avg := total / float64(len(tasks))
	var out []numasim.Task
	for _, t := range tasks {
		b := t.TotalBytes()
		if b <= 4*avg {
			out = append(out, t)
			continue
		}
		pieces := workers
		if float64(pieces) > b/avg {
			pieces = int(b / avg)
		}
		if pieces < 2 {
			pieces = 2
		}
		frac := 1.0 / float64(pieces)
		for i := 0; i < pieces; i++ {
			var piece numasim.Task
			for _, seg := range t.Segments {
				piece.Segments = append(piece.Segments, numasim.Segment{
					MemNode: seg.MemNode, Bytes: seg.Bytes * frac,
				})
			}
			out = append(out, piece)
		}
	}
	return out
}

func init() {
	registerExperiment(Experiment{
		ID:    "abltuplerec",
		Title: "Extension: tuple reconstruction — late vs compacted projection for CPR* Q19",
		Run:   runAblTupleRec,
	})
}

func runAblTupleRec(c Config) (*Report, error) {
	sf := c.q19Scale()
	rep := &Report{
		ID:               "abltuplerec",
		Title:            "CPR* Q19 with late materialization vs compacted projection",
		PaperExpectation: "Section 8/10: CPR* row ids point to arbitrary column positions after partitioning, polluting caches; the paper projects a tuple-reconstruction win of up to ~20% (Appendix G). Compaction trades an extra projection copy for locality — it pays off as the surviving probe side grows",
		Columns:          []string{"selectivity", "algorithm", "late materialization [ms]", "compacted projection [ms]", "change"},
		Notes:            []string{fmt.Sprintf("TPC-H scale factor %.2f, threads=%d", sf, c.Threads)},
	}
	sels := []float64{0.0357, 0.5}
	if c.Quick {
		sels = []float64{0.0357}
	}
	for _, sel := range sels {
		tb, err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: c.Seed, ShipSelectivity: sel})
		if err != nil {
			return nil, err
		}
		for _, algo := range []string{"CPRL", "CPRA"} {
			late, err := tpch.RunQ19(tb, algo, c.Threads)
			if err != nil {
				return nil, err
			}
			compact, err := tpch.RunQ19Compacted(tb, algo, c.Threads)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%.1f%%", sel*100),
				algo,
				fmtMillis(late.Total),
				fmtMillis(compact.Total),
				fmt.Sprintf("%+.0f%%", (float64(late.Total)/float64(compact.Total)-1)*100),
			})
		}
	}
	return rep, nil
}

func init() {
	registerExperiment(Experiment{
		ID:    "ablsort",
		Title: "Extension: sort-merge baselines MPSM vs MWAY vs the radix joins",
		Run:   runAblSort,
	})
}

func runAblSort(c Config) (*Report, error) {
	w, err := generate(c, c.paperM(128), c.paperM(1280), 0, 0)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:               "ablsort",
		Title:            "Sort-merge baselines vs a radix join",
		PaperExpectation: "the paper used only MWAY because MPSM's code was unavailable (Section 1, fn. 1); Balkesen et al. [4] report MWAY superior to MPSM, and both trail the radix hash joins",
		Columns:          []string{"algorithm", "throughput [M/s]", "sort/partition [ms]", "join [ms]"},
	}
	//mmjoin:registry-table bench
	for _, name := range []string{"MPSM", "MWAY", "CPRL"} {
		algo, err := join.NewAny(name)
		if err != nil {
			return nil, err
		}
		threads := c.Threads
		if name == "MWAY" && threads&(threads-1) != 0 {
			threads = 8
		}
		res, err := algo.Run(w.Build, w.Probe, &join.Options{Threads: threads, Domain: w.Domain})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			name, fmtThroughput(res), fmtMillis(res.BuildOrPartition), fmtMillis(res.ProbeOrJoin),
		})
	}
	return rep, nil
}

func init() {
	registerExperiment(Experiment{
		ID:    "abltables",
		Title: "Ablation: all table designs standalone (speed and memory)",
		Run:   runAblTables,
	})
}

// runAblTables compares every hash-table design in the repository on a
// standalone build+probe microbenchmark: the four the thirteen joins
// use, plus the sparse dynamic table (Google-sparse-hash-style, the
// structure Section 3.2 compares the CHT against) and Robin Hood probing
// (from the hashing study the paper cites as [19]). Each design runs the
// production kernels — join.BuildTable and join.ProbeTable on one
// thread, the path perfbench's hashtable.* layers measure — and must
// find every probe's match.
func runAblTables(c Config) (*Report, error) {
	n := c.paperM(16)
	probes := n * 4
	w, err := generate(c, n, probes, 0, 0)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:               "abltables",
		Title:            "Hash table designs: build/probe cost and memory",
		PaperExpectation: "CHT (and its sparse sibling) use a fraction of the linear table's memory at competitive probe cost (Barber et al.); arrays beat everything on dense keys; Robin Hood buys little at the study's 50% load factor",
		Columns:          []string{"table", "build [ns/tuple]", "probe [ns/tuple]", "bytes/tuple"},
	}
	opts := &join.Options{Threads: 1, Domain: w.Domain}
	for _, d := range join.TableDesigns() {
		runtime.GC()
		bt, err := join.BuildTable(c.Context, w.Build, d, opts)
		if err != nil {
			return nil, err
		}
		res, err := join.ProbeTable(c.Context, bt, w.Probe, opts)
		bt.Release()
		if err != nil {
			return nil, err
		}
		if res.Matches != int64(probes) {
			return nil, fmt.Errorf("abltables: %s found %d of %d matches", d, res.Matches, probes)
		}
		rep.Rows = append(rep.Rows, []string{
			d.String(),
			fmt.Sprintf("%.1f", float64(bt.BuildTime().Nanoseconds())/float64(n)),
			fmt.Sprintf("%.1f", float64(res.ProbeOrJoin.Nanoseconds())/float64(probes)),
			fmt.Sprintf("%.1f", float64(bt.SizeBytes())/float64(n)),
		})
	}
	return rep, nil
}

func init() {
	registerExperiment(Experiment{
		ID:    "ablengine",
		Title: "Extension: hand-fused pipeline vs operator-at-a-time Q19",
		Run:   runAblEngine,
	})
}

// runAblEngine contrasts the paper's two execution styles for Q19: the
// hand-fused per-join pipelines of internal/tpch ("state-of-the-art
// main-memory databases use code compilation anyways", Section 8,
// HyperDB-style) against the operator-at-a-time plan with selection
// vectors in internal/colstore (the MonetDB-style column store the
// paper's storage model comes from).
func runAblEngine(c Config) (*Report, error) {
	sf := c.q19Scale()
	tb, err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: c.Seed, ShipSelectivity: 0.0357})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:               "ablengine",
		Title:            "Q19: fused pipeline vs vectorized operators",
		PaperExpectation: "Appendix G finds the pipeline and the join-index (operator) styles within ~10-20% of each other at 32 threads, flipping with thread count; the operator plan pays for materializing intermediates",
		Columns:          []string{"engine", "total [ms]", "matches", "revenue"},
		Notes:            []string{fmt.Sprintf("TPC-H scale factor %.2f, threads=%d; both engines share the generated columns", sf, c.Threads)},
	}
	fused, err := tpch.RunQ19(tb, "CPRL", c.Threads)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, []string{
		"fused pipeline (tpch, CPRL)", fmtMillis(fused.Total),
		fmt.Sprintf("%d", fused.Matches), fmt.Sprintf("%.2f", fused.Revenue),
	})
	lineitem, part := colstore.FromTPCH(tb)
	op := colstore.RunQ19(lineitem, part, c.Threads)
	rep.Rows = append(rep.Rows, []string{
		"operator-at-a-time (colstore, CPRL)", fmtMillis(op.Total),
		fmt.Sprintf("%d", op.Matches), fmt.Sprintf("%.2f", op.Revenue),
	})
	if op.Matches != fused.Matches {
		return nil, fmt.Errorf("ablengine: engines disagree (%d vs %d matches)", op.Matches, fused.Matches)
	}
	return rep, nil
}
