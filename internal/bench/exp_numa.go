package bench

import (
	"fmt"
	"strings"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/numa"
	"mmjoin/internal/numasim"
	"mmjoin/internal/radix"
)

// NUMA experiments: these replay the paper's four-socket behaviour on
// the discrete-event machine simulator, fed with the partition fences
// of real partitioning runs (see DESIGN.md, substitution table).

func init() {
	registerExperiment(Experiment{
		ID:    "fig6",
		Title: "Per-node bandwidth profiles: PRO vs PROiS vs CPRL (simulated)",
		Run:   runFig6,
	})
	registerExperiment(Experiment{
		ID:    "fig16",
		Title: "Thread scalability 4..120 threads (simulated machine)",
		Run:   runFig16,
	})
	registerExperiment(Experiment{
		ID:    "tab3",
		Title: "Relative speedup scaling 4 -> 60 threads (simulated machine)",
		Run:   runTab3,
	})
}

// joinPhaseSetup partitions the headline workload and returns simulator
// tasks plus the scheduling orders.
func joinPhaseSetup(c Config, bits uint) (tasks []numasim.Task, chunkedTasks []numasim.Task, seq, rr []int, err error) {
	w, err := generate(c, c.paperM(128), c.paperM(1280), 0, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	topo := numa.PaperTopology()
	prG := radix.PartitionGlobal(w.Build, bits, c.Threads, true)
	psG := radix.PartitionGlobal(w.Probe, bits, c.Threads, true)
	prC := radix.PartitionChunked(w.Build, bits, c.Threads, true)
	psC := radix.PartitionChunked(w.Probe, bits, c.Threads, true)
	tasks = numasim.FromGlobalPartitions(topo, prG, psG)
	chunkedTasks = numasim.FromChunkedPartitions(topo, prC, psC)
	seq = exec.SequentialOrder(len(tasks))
	rr = exec.RoundRobinOrder(len(tasks), topo.Nodes, numasim.HomeNodeOfPartition(topo, prG))
	return tasks, chunkedTasks, seq, rr, nil
}

func runFig6(c Config) (*Report, error) {
	bits := uint(10)
	if c.Quick {
		bits = 7
	}
	tasks, chunkedTasks, seq, rr, err := joinPhaseSetup(c, bits)
	if err != nil {
		return nil, err
	}
	m := numasim.PaperMachine()
	const workers = 60
	rep := &Report{
		ID:               "fig6",
		Title:            "Bandwidth profiles during the join phase",
		PaperExpectation: "PRO: one NUMA node active at a time (controller hotspot); PROiS and CPRL: all four nodes busy throughout",
		Columns:          []string{"algorithm", "makespan [ms]", "active nodes per decile", "mean node utilization"},
	}
	type variant struct {
		name  string
		tasks []numasim.Task
		order []int
	}
	variants := []variant{
		{"PRO (sequential order)", tasks, seq},
		{"PROiS (round-robin order)", tasks, rr},
		{"CPRL (any order)", chunkedTasks, seq},
		{"PRO (per-node queues)", tasks, nil},
	}
	for _, v := range variants {
		var res *numasim.Result
		var err error
		if v.order == nil {
			// The Section 6.2 alternative: one queue per NUMA region.
			res, err = numasim.SimulatePerNodeQueues(m, v.tasks, perNodeOf(c, v.tasks), workers)
		} else {
			res, err = numasim.Simulate(m, v.tasks, v.order, workers)
		}
		if err != nil {
			return nil, err
		}
		res.EmitTrace(c.Tracer, m, "fig6 sim: "+v.name)
		active := res.ActiveNodesOverTime(m, 10, 0.3)
		util := res.NodeUtilization(m)
		var mean float64
		for _, u := range util {
			mean += u
		}
		mean /= float64(len(util))
		parts := make([]string, len(active))
		for i, a := range active {
			parts[i] = fmt.Sprintf("%d", a)
		}
		rep.Rows = append(rep.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f", res.Makespan*1000),
			strings.Join(parts, " "),
			fmt.Sprintf("%.2f", mean),
		})
	}
	rep.Notes = append(rep.Notes,
		"'active nodes per decile' counts memory controllers above 30% load in each tenth of the run — the compact reading of the paper's VTune heatmaps")
	return rep, nil
}

// familyTasks builds the per-phase simulator task lists of one
// algorithm family at a given thread count.
func familyTasks(c Config, algo string, threads int) (partition, joinWork []numasim.Task, order []int, err error) {
	w, err := generate(c, c.paperM(128), c.paperM(1280), 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	topo := numa.PaperTopology()
	bits := radix.PredictBits(len(w.Build), 1, threads, radix.PaperMachine())
	// At paper scale Equation (1) yields thousands of partitions per
	// thread; keep that property at reduced scale so the simulated task
	// queue never starves workers.
	for 1<<bits < 8*threads {
		bits++
	}
	chunked := strings.HasPrefix(algo, "CPR")
	improved := strings.HasSuffix(algo, "iS")
	switch {
	case algo == "NOP" || algo == "NOPA" || algo == "CHTJ":
		// No-partitioning: the "partition" phase is the build pass; the
		// join phase is the probe pass. Both are chunk-parallel over
		// the inputs, with table traffic spread over all nodes.
		partition = nopPhaseTasks(topo, len(w.Build), threads, algo)
		joinWork = nopPhaseTasks(topo, len(w.Probe), threads, algo)
		order = exec.SequentialOrder(len(joinWork))
		return partition, joinWork, order, nil
	case algo == "MWAY":
		partition = numasim.PartitionPhaseTasks(topo, len(w.Build)+len(w.Probe), threads, false)
		// Sorting: two more streaming passes per worker.
		more := numasim.PartitionPhaseTasks(topo, len(w.Build)+len(w.Probe), threads, true)
		partition = append(partition, more...)
		joinWork = numasim.PartitionPhaseTasks(topo, len(w.Build)+len(w.Probe), threads, true)[:threads]
		order = exec.SequentialOrder(len(joinWork))
		return partition, joinWork, order, nil
	case chunked:
		partition = append(numasim.PartitionPhaseTasks(topo, len(w.Build), threads, true),
			numasim.PartitionPhaseTasks(topo, len(w.Probe), threads, true)...)
		prC := radix.PartitionChunked(w.Build, bits, threads, true)
		psC := radix.PartitionChunked(w.Probe, bits, threads, true)
		joinWork = numasim.FromChunkedPartitions(topo, prC, psC)
		order = exec.SequentialOrder(len(joinWork))
		return partition, joinWork, order, nil
	default:
		partition = append(numasim.PartitionPhaseTasks(topo, len(w.Build), threads, false),
			numasim.PartitionPhaseTasks(topo, len(w.Probe), threads, false)...)
		prG := radix.PartitionGlobal(w.Build, bits, threads, true)
		psG := radix.PartitionGlobal(w.Probe, bits, threads, true)
		joinWork = numasim.FromGlobalPartitions(topo, prG, psG)
		if improved {
			order = exec.RoundRobinOrder(len(joinWork), topo.Nodes, numasim.HomeNodeOfPartition(topo, prG))
		} else {
			order = exec.SequentialOrder(len(joinWork))
		}
		return partition, joinWork, order, nil
	}
}

// nopPhaseTasks models one NOP-family pass: each worker streams its
// chunk locally and touches the interleaved global table uniformly
// (double volume for CHTJ's two dependent accesses).
func nopPhaseTasks(topo numa.Topology, tuples, threads int, algo string) []numasim.Task {
	tasks := numasim.PartitionPhaseTasks(topo, tuples, threads, true)[:threads]
	tableLines := float64(tuples) / float64(threads) * 64 / float64(topo.Nodes)
	if algo == "CHTJ" {
		tableLines *= 2
	}
	for w := range tasks {
		// Rotate the per-node table segments by worker so the fluid
		// model does not convoy every worker onto node 0 at once.
		for i := 0; i < topo.Nodes; i++ {
			n := (i + w) % topo.Nodes
			tasks[w].Segments = append(tasks[w].Segments, numasim.Segment{MemNode: n, Bytes: tableLines})
		}
	}
	return tasks
}

// simulateFamily returns phase makespans at a thread count.
func simulateFamily(c Config, algo string, threads int) (partSec, joinSec float64, err error) {
	partition, joinWork, order, err := familyTasks(c, algo, threads)
	if err != nil {
		return 0, 0, err
	}
	m := numasim.PaperMachine()
	// Appendix B: hyper-threading hurts the partition-based joins ("even
	// the private caches have to be shared among the hyper-threads",
	// evicting the cache-resident per-partition tables) while the
	// NOP-family, already latency-bound on DRAM, loses little.
	if strings.HasPrefix(algo, "NOP") || algo == "CHTJ" {
		m.SMTPenalty = 0.95
	} else {
		m.SMTPenalty = 0.55
	}
	// The partition phase has no task queue: worker w owns chunk w, so
	// simulate with the pinned assignment.
	pres, err := numasim.SimulatePinned(m, partition, threads)
	if err != nil {
		return 0, 0, err
	}
	jres, err := numasim.Simulate(m, joinWork, order, threads)
	if err != nil {
		return 0, 0, err
	}
	return pres.Makespan, jres.Makespan, nil
}

func runFig16(c Config) (*Report, error) {
	algos := []string{"MWAY", "CHTJ", "NOP", "NOPA", "CPRL", "CPRA", "PROiS", "PRLiS", "PRAiS"}
	threadSteps := []int{4, 8, 16, 32, 60, 120}
	if c.Quick {
		algos = []string{"NOP", "CPRL", "PROiS"}
		threadSteps = []int{4, 32, 60, 120}
	}
	rep := &Report{
		ID:               "fig16",
		Title:            "Throughput when scaling threads (simulated machine)",
		PaperExpectation: "near-linear to 60 physical cores; partition-based joins regress with hyper-threading (120), NOP* gains little; MWAY capped at 32 (power-of-two)",
	}
	rep.Columns = []string{"algorithm"}
	for _, t := range threadSteps {
		rep.Columns = append(rep.Columns, fmt.Sprintf("%dthr [M/s]", t))
	}
	inputTuples := float64(c.paperM(128) + c.paperM(1280))
	for _, algo := range algos {
		row := []string{algo}
		for _, t := range threadSteps {
			if algo == "MWAY" && t&(t-1) != 0 {
				row = append(row, "-")
				continue
			}
			p, j, err := simulateFamily(c, algo, t)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", inputTuples/(p+j)/1e6))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"throughputs are modeled on the simulated 4-socket machine; wall-clock thread scaling cannot be measured on this host (see DESIGN.md)")
	return rep, nil
}

func runTab3(c Config) (*Report, error) {
	algos := []string{"CHTJ", "NOP", "NOPA", "CPRL", "CPRA", "PROiS", "PRLiS", "PRAiS"}
	if c.Quick {
		algos = []string{"NOP", "CPRL", "PRAiS"}
	}
	rep := &Report{
		ID:               "tab3",
		Title:            "Relative speedup from 4 to 60 threads (Table 3a workload)",
		PaperExpectation: "total speedups of ~10.5–12x (perfect would be 15x); CPR* highest, CHTJ/NOP* slightly lower",
		Columns:          []string{"algorithm", "4 thr [M/s]", "60 thr [M/s]", "speedup total", "partition phase", "join phase"},
	}
	inputTuples := float64(c.paperM(128) + c.paperM(1280))
	for _, algo := range algos {
		p4, j4, err := simulateFamily(c, algo, 4)
		if err != nil {
			return nil, err
		}
		p60, j60, err := simulateFamily(c, algo, 60)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			algo,
			fmt.Sprintf("%.0f", inputTuples/(p4+j4)/1e6),
			fmt.Sprintf("%.0f", inputTuples/(p60+j60)/1e6),
			fmt.Sprintf("%.1f", (p4+j4)/(p60+j60)),
			fmt.Sprintf("%.1f", p4/p60),
			fmt.Sprintf("%.1f", j4/j60),
		})
	}
	return rep, nil
}

// perNodeOf maps a simulator task to the node holding most of its bytes
// — the queue assignment for the per-node-queue scheduling alternative.
func perNodeOf(_ Config, tasks []numasim.Task) func(int) int {
	return func(i int) int {
		best, bestBytes := 0, 0.0
		for _, s := range tasks[i].Segments {
			if s.Bytes > bestBytes {
				best, bestBytes = s.MemNode, s.Bytes
			}
		}
		return best
	}
}

func init() {
	registerExperiment(Experiment{
		ID:    "fig4",
		Title: "NUMA write patterns of PRO vs CPRL (Figure 4's schematic, quantified)",
		Run:   runFig4,
	})
}

// runFig4 turns the paper's schematic Figure 4(b)/(d) into numbers: the
// modeled share of partition-phase writes that cross sockets, per
// algorithm, plus total local/remote volumes.
func runFig4(c Config) (*Report, error) {
	w, err := generate(c, c.paperM(128), c.paperM(1280), 0, 0)
	if err != nil {
		return nil, err
	}
	topo := numa.PaperTopology()
	rep := &Report{
		ID:               "fig4",
		Title:            "Remote-write shares under the placement model",
		PaperExpectation: "Figure 4(b): PRO's scatter writes land on all sockets (~75% remote on four nodes); Figure 4(d): CPRL's writes stay inside the local chunk (0% remote), paying instead with remote reads in the join phase",
		Columns:          []string{"algorithm", "remote write share", "local [MB]", "remote [MB]"},
	}
	for _, algo := range []string{"PRB", "PRO", "PROiS", "CPRL", "CPRA", "NOP"} {
		tr := numa.NewTraffic(topo)
		if _, err := runJoin(c, algo, w, join.Options{Threads: c.Threads, Traffic: tr}); err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			algo,
			fmt.Sprintf("%.0f%%", tr.RemoteWriteShare()*100),
			fmt.Sprintf("%.0f", float64(tr.Local())/1e6),
			fmt.Sprintf("%.0f", float64(tr.Remote())/1e6),
		})
	}
	return rep, nil
}
