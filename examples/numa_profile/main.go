// NUMA profile: reproduces the paper's Figure 6 on the discrete-event
// machine simulator — the bandwidth-profile experiment a flat-memory
// laptop cannot run natively. It partitions a real workload, maps the
// resulting co-partition tasks onto the simulated four-socket machine,
// and renders per-node bandwidth heat rows for the three scheduling
// regimes the paper contrasts.
package main

import (
	"fmt"
	"log"
	"strings"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/numa"
	"mmjoin/internal/numasim"
	"mmjoin/internal/radix"
)

func main() {
	w, err := datagen.Generate(datagen.Config{
		BuildSize: 1 << 20,
		ProbeSize: 10 << 20,
		Seed:      6,
	})
	if err != nil {
		log.Fatal(err)
	}
	topo := numa.PaperTopology()
	m := numasim.PaperMachine()
	const bits = 10
	const workers = 60

	prG := radix.PartitionGlobal(w.Build, bits, 8, true)
	psG := radix.PartitionGlobal(w.Probe, bits, 8, true)
	prC := radix.PartitionChunked(w.Build, bits, 8, true)
	psC := radix.PartitionChunked(w.Probe, bits, 8, true)

	global := numasim.FromGlobalPartitions(topo, prG, psG)
	chunked := numasim.FromChunkedPartitions(topo, prC, psC)
	seq := exec.SequentialOrder(len(global))
	rr := exec.RoundRobinOrder(len(global), topo.Nodes, numasim.HomeNodeOfPartition(topo, prG))

	fmt.Println("Join-phase bandwidth profiles on the simulated 4-socket machine")
	fmt.Println("(one row per NUMA node; darker = more of the controller's bandwidth)")
	show("PRO   (sequential task order)", m, global, seq, workers)
	show("PROiS (round-robin task order)", m, global, rr, workers)
	show("CPRL  (chunked partitions)", m, chunked, seq, workers)
	fmt.Println("The paper's VTune screenshots (Figure 6) show exactly this contrast:")
	fmt.Println("PRO hammers one memory controller at a time; PROiS and CPRL load all four.")
}

func show(name string, m numasim.Machine, tasks []numasim.Task, order []int, workers int) {
	res, err := numasim.Simulate(m, tasks, order, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s — makespan %.1f ms\n", name, res.Makespan*1000)
	const buckets = 40
	shades := []rune(" .:-=+*#%@")
	for node := 0; node < m.Topo.Nodes; node++ {
		var row strings.Builder
		for b := 0; b < buckets; b++ {
			lo := res.Makespan * float64(b) / buckets
			hi := res.Makespan * float64(b+1) / buckets
			var used float64
			for _, s := range res.Timeline {
				overlap := min(hi, s.End) - max(lo, s.Start)
				if overlap > 0 {
					used += s.NodeBW[node] * overlap
				}
			}
			frac := used / (m.NodeBandwidth * (hi - lo))
			idx := int(frac * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			row.WriteRune(shades[idx])
		}
		fmt.Printf("  node %d |%s|\n", node, row.String())
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
