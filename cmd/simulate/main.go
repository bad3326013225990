// Command simulate drives the two hardware simulators directly: the
// trace-driven cache/TLB model (internal/memsim) and the discrete-event
// NUMA machine (internal/numasim). joinbench uses both through the
// experiment definitions; this tool exposes them for ad-hoc what-if
// questions ("how would CPRA behave with a 1 MB L3 and 64 KB pages?",
// "what does the bandwidth timeline look like with 16 workers?").
//
// Usage:
//
//	simulate -mode cache -algo PRO -build 262144 -probe 524288 -page 4096
//	simulate -mode cache -algo PRB -bits 14 -page 2097152
//	simulate -mode numa -algo CPRL -workers 60 -bits 10
//	simulate -mode numa -algo PROiS -workers 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/memsim"
	"mmjoin/internal/numa"
	"mmjoin/internal/numasim"
	"mmjoin/internal/radix"
)

func main() {
	var (
		mode    = flag.String("mode", "cache", "simulator: cache (memsim) or numa (numasim)")
		algo    = flag.String("algo", "PRO", "algorithm (Table 2 abbreviation)")
		build   = flag.Int("build", 1<<18, "|R| tuples")
		probe   = flag.Int("probe", 1<<19, "|S| tuples")
		bits    = flag.Uint("bits", 0, "radix bits (0 = Equation (1))")
		page    = flag.Int64("page", 4096, "page size in bytes (cache mode)")
		scale   = flag.Int("cachescale", 64, "divide cache sizes by this factor (cache mode)")
		workers = flag.Int("workers", 60, "simulated workers (numa mode)")
		seed    = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	w, err := datagen.Generate(datagen.Config{BuildSize: *build, ProbeSize: *probe, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	b := *bits
	if b == 0 {
		b = radix.PredictBits(*build, 1, 32, radix.PaperMachine())
	}

	switch *mode {
	case "cache":
		geo := memsim.ScaledGeometry(*page, *scale)
		res, err := memsim.Simulate(*algo, w.Build, w.Probe, b, geo)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s over |R|=%d |S|=%d, %d radix bits, %d B pages (caches 1/%d):\n",
			*algo, *build, *probe, b, *page, *scale)
		fmt.Printf("  partition/build: %s IPC=%.2f\n", res.Partition.String(), res.Partition.IPC(geo))
		fmt.Printf("  join/probe:      %s IPC=%.2f\n", res.Join.String(), res.Join.IPC(geo))
		fmt.Printf("  modeled total:   %.2f ms\n", res.ModeledTotalNanos(geo)/1e6)
	case "numa":
		topo := numa.PaperTopology()
		m := numasim.PaperMachine()
		// Keep enough co-partitions that the task queue feeds every
		// worker, as at paper scale.
		for 1<<b < 8**workers {
			b++
		}
		var tasks []numasim.Task
		var order []int
		switch {
		case strings.HasPrefix(*algo, "CPR"):
			pr := radix.PartitionChunked(w.Build, b, 8, true)
			ps := radix.PartitionChunked(w.Probe, b, 8, true)
			tasks = numasim.FromChunkedPartitions(topo, pr, ps)
			order = exec.SequentialOrder(len(tasks))
		default:
			pr := radix.PartitionGlobal(w.Build, b, 8, true)
			ps := radix.PartitionGlobal(w.Probe, b, 8, true)
			tasks = numasim.FromGlobalPartitions(topo, pr, ps)
			if strings.HasSuffix(*algo, "iS") {
				order = exec.RoundRobinOrder(len(tasks), topo.Nodes, numasim.HomeNodeOfPartition(topo, pr))
			} else {
				order = exec.SequentialOrder(len(tasks))
			}
		}
		res, err := numasim.Simulate(m, tasks, order, *workers)
		if err != nil {
			fatal(err)
		}
		util := res.NodeUtilization(m)
		fmt.Printf("%s join phase on the simulated 4-socket machine, %d workers, %d co-partitions:\n",
			*algo, *workers, len(tasks))
		fmt.Printf("  makespan:          %.2f ms\n", res.Makespan*1000)
		fmt.Printf("  node utilization:  %.2f %.2f %.2f %.2f\n", util[0], util[1], util[2], util[3])
		fmt.Printf("  active nodes/10th: %v\n", res.ActiveNodesOverTime(m, 10, 0.3))
	default:
		fatal(fmt.Errorf("unknown mode %q (cache or numa)", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simulate:", err)
	os.Exit(1)
}
