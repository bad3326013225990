package numasim

import (
	"math"
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/numa"
	"mmjoin/internal/radix"
)

func testMachine() Machine {
	return Machine{
		Topo:          numa.Topology{Nodes: 4, CoresPerNode: 2},
		NodeBandwidth: 100,
		RemotePenalty: 0.5,
		CoreRate:      50,
		SMTPenalty:    0.8,
	}
}

func TestSimulateSingleLocalTask(t *testing.T) {
	m := testMachine()
	// Worker 0 sits on node 0; 100 bytes local at min(coreRate=50,
	// bw=100) = 50 B/s -> 2 seconds.
	tasks := []Task{{Segments: []Segment{{MemNode: 0, Bytes: 100}}}}
	res, err := Simulate(m, tasks, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-2.0) > 1e-9 {
		t.Fatalf("makespan = %g, want 2", res.Makespan)
	}
}

func TestSimulateRemotePenalty(t *testing.T) {
	m := testMachine()
	tasks := []Task{{Segments: []Segment{{MemNode: 3, Bytes: 100}}}}
	res, err := Simulate(m, tasks, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Remote: rate = 50 * 0.5 = 25 B/s -> 4 seconds.
	if math.Abs(res.Makespan-4.0) > 1e-9 {
		t.Fatalf("remote makespan = %g, want 4", res.Makespan)
	}
}

func TestSimulateBandwidthSharing(t *testing.T) {
	m := testMachine()
	m.CoreRate = 1000 // memory-bound
	// 4 workers all on node 0's memory: share 100/4 = 25 B/s each.
	tasks := make([]Task, 4)
	order := make([]int, 4)
	for i := range tasks {
		tasks[i] = Task{Segments: []Segment{{MemNode: 0, Bytes: 100}}}
		order[i] = i
	}
	res, err := Simulate(m, tasks, order, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Workers on nodes 0..3 (one per node with 4 workers over 4 nodes);
	// worker 0 local (25 B/s), others remote (12.5 B/s) -> remote
	// finishes at 8s... sharing changes as tasks finish; the makespan
	// must be between the no-contention bound (100/12.5 = 8s if shared
	// the whole time) and serial execution.
	if res.Makespan < 4.0 || res.Makespan > 16.0 {
		t.Fatalf("makespan = %g out of plausible range", res.Makespan)
	}
	// All bandwidth must come from node 0.
	for _, s := range res.Timeline {
		if s.NodeBW[1] != 0 || s.NodeBW[2] != 0 || s.NodeBW[3] != 0 {
			t.Fatal("traffic on idle nodes")
		}
	}
}

func TestSimulateQueueOrderRespected(t *testing.T) {
	m := testMachine()
	tasks := []Task{
		{Segments: []Segment{{MemNode: 0, Bytes: 50}}},
		{Segments: []Segment{{MemNode: 0, Bytes: 50}}},
		{Segments: []Segment{{MemNode: 0, Bytes: 50}}},
	}
	res, err := Simulate(m, tasks, []int{2, 1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Single worker: completion times strictly increase in pop order.
	if !(res.TaskEnd[0] < res.TaskEnd[1] && res.TaskEnd[1] < res.TaskEnd[2]) {
		t.Fatalf("task ends not ordered: %v", res.TaskEnd)
	}
}

func TestSimulateEmptyTasksComplete(t *testing.T) {
	m := testMachine()
	tasks := []Task{{}, {Segments: []Segment{{MemNode: 0, Bytes: 10}}}, {}}
	res, err := Simulate(m, tasks, []int{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan zero with non-empty task present")
	}
}

func TestSimulateValidation(t *testing.T) {
	m := testMachine()
	if _, err := Simulate(m, nil, []int{0}, 1); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, err := Simulate(m, []Task{{}}, []int{0}, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
	bad := m
	bad.NodeBandwidth = 0
	if _, err := Simulate(bad, []Task{{}}, []int{0}, 1); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestSMTPenaltyKicksInBeyondCores(t *testing.T) {
	m := testMachine() // 8 physical cores
	m.NodeBandwidth = 1e12
	tasks := make([]Task, 64)
	order := make([]int, 64)
	for i := range tasks {
		tasks[i] = Task{Segments: []Segment{{MemNode: i % 4, Bytes: 1000}}}
		order[i] = i
	}
	at8, _ := Simulate(m, tasks, order, 8)
	at16, _ := Simulate(m, tasks, order, 16)
	// Compute-bound: 16 workers at halved+penalized core rate must be
	// slower than 8 full-rate workers.
	if at16.Makespan <= at8.Makespan {
		t.Fatalf("SMT oversubscription sped up compute-bound run: %g vs %g",
			at16.Makespan, at8.Makespan)
	}
}

func TestThreadScalingNearLinearUntilBandwidth(t *testing.T) {
	m := PaperMachine()
	const tasksN = 240
	tasks := make([]Task, tasksN)
	order := make([]int, tasksN)
	for i := range tasks {
		tasks[i] = Task{Segments: []Segment{{MemNode: i % 4, Bytes: 64 << 20}}}
		order[i] = i
	}
	t4, _ := Simulate(m, tasks, order, 4)
	t16, _ := Simulate(m, tasks, order, 16)
	t60, _ := Simulate(m, tasks, order, 60)
	s16 := t16.SpeedupOver(t4) * 4
	s60 := t60.SpeedupOver(t4) * 4
	if s16 < 10 {
		t.Fatalf("speedup at 16 threads only %.1f", s16)
	}
	// 60 threads must beat 16 but sub-linearly (bandwidth-bound —
	// Table 3 reports ~10-12x over 4 threads, i.e. far below 15x).
	if s60 <= s16 || s60 > 60 {
		t.Fatalf("speedup at 60 threads %.1f implausible (16t: %.1f)", s60, s16)
	}
}

// buildPartitionedWorkload partitions a uniform workload for task
// builders.
func buildPartitionedWorkload(t *testing.T, bits uint) (*radix.Partitioned, *radix.Partitioned, *radix.ChunkedPartitioned, *radix.ChunkedPartitioned) {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 14, ProbeSize: 1 << 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prG := radix.PartitionGlobal(w.Build, bits, 4, true)
	psG := radix.PartitionGlobal(w.Probe, bits, 4, true)
	prC := radix.PartitionChunked(w.Build, bits, 4, true)
	psC := radix.PartitionChunked(w.Probe, bits, 4, true)
	return prG, psG, prC, psC
}

func TestTaskBuildersConserveBytes(t *testing.T) {
	topo := numa.PaperTopology()
	prG, psG, prC, psC := buildPartitionedWorkload(t, 6)
	wantBytes := float64((len(prG.Data) + len(psG.Data)) * 8)
	var sum float64
	for _, task := range FromGlobalPartitions(topo, prG, psG) {
		sum += task.TotalBytes()
	}
	if math.Abs(sum-wantBytes) > 1 {
		t.Fatalf("global tasks carry %g bytes, want %g", sum, wantBytes)
	}
	sum = 0
	for _, task := range FromChunkedPartitions(topo, prC, psC) {
		sum += task.TotalBytes()
	}
	if math.Abs(sum-wantBytes) > 1 {
		t.Fatalf("chunked tasks carry %g bytes, want %g", sum, wantBytes)
	}
}

func TestChunkedTasksTouchAllNodes(t *testing.T) {
	topo := numa.PaperTopology()
	_, _, prC, psC := buildPartitionedWorkload(t, 6)
	tasks := FromChunkedPartitions(topo, prC, psC)
	// Any sizable co-partition gathers fragments from all four nodes.
	task := tasks[0]
	nodes := map[int]bool{}
	for _, s := range task.Segments {
		nodes[s.MemNode] = true
	}
	if len(nodes) != 4 {
		t.Fatalf("chunked task reads %d nodes, want 4", len(nodes))
	}
}

// The headline reproduction: sequential scheduling serializes on one
// memory controller (Figure 6 top), round-robin iS scheduling uses all
// controllers and finishes ~20% faster (Figure 7).
func TestImprovedSchedulingBeatsSequential(t *testing.T) {
	topo := numa.PaperTopology()
	prG, psG, _, _ := buildPartitionedWorkload(t, 8)
	tasks := FromGlobalPartitions(topo, prG, psG)
	// The paper machine's join phase is memory-bound: 32 workers on one
	// node demand 128 GB/s against 28 GB/s of controller bandwidth.
	m := PaperMachine()

	seq := exec.SequentialOrder(len(tasks))
	rr := exec.RoundRobinOrder(len(tasks), topo.Nodes, HomeNodeOfPartition(topo, prG))

	resSeq, err := Simulate(m, tasks, seq, 32)
	if err != nil {
		t.Fatal(err)
	}
	resRR, err := Simulate(m, tasks, rr, 32)
	if err != nil {
		t.Fatal(err)
	}
	if resRR.Makespan >= resSeq.Makespan {
		t.Fatalf("iS scheduling no faster: %g vs %g", resRR.Makespan, resSeq.Makespan)
	}
	speedup := resSeq.Makespan / resRR.Makespan
	if speedup < 1.1 {
		t.Fatalf("iS speedup only %.2fx, paper reports ~1.2x", speedup)
	}

	// Figure 6 shape: sequential order keeps fewer nodes busy at a time
	// than round-robin.
	activeSeq := resSeq.ActiveNodesOverTime(m, 10, 0.3)
	activeRR := resRR.ActiveNodesOverTime(m, 10, 0.3)
	sumSeq, sumRR := 0, 0
	for i := range activeSeq {
		sumSeq += activeSeq[i]
		sumRR += activeRR[i]
	}
	if sumRR <= sumSeq {
		t.Fatalf("round-robin active-node profile %v not denser than sequential %v",
			activeRR, activeSeq)
	}
}

func TestCPRLSchedulingInsensitive(t *testing.T) {
	// Section 6.2: the suboptimal sequential schedule "does not affect
	// the bandwidth utilization [of CPRL], as every partition has to be
	// read from all NUMA nodes anyhow".
	topo := numa.PaperTopology()
	_, _, prC, psC := buildPartitionedWorkload(t, 8)
	tasks := FromChunkedPartitions(topo, prC, psC)
	m := PaperMachine()

	seq, err := Simulate(m, tasks, exec.SequentialOrder(len(tasks)), 32)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Simulate(m, tasks, exec.RoundRobinOrder(len(tasks), topo.Nodes, func(p int) int { return p % 4 }), 32)
	if err != nil {
		t.Fatal(err)
	}
	ratio := seq.Makespan / rr.Makespan
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("CPRL makespan sensitive to schedule: ratio %.2f", ratio)
	}
}

func TestPartitionPhaseTasks(t *testing.T) {
	topo := numa.PaperTopology()
	global := PartitionPhaseTasks(topo, 1<<16, 8, false)
	chunked := PartitionPhaseTasks(topo, 1<<16, 8, true)
	if len(global) != 8 || len(chunked) != 8 {
		t.Fatal("wrong task counts")
	}
	// Both carry 3x the chunk volume (2 reads + 1 write).
	wantPerWorker := float64(1<<16) / 8 * 8 * 3
	for i := range global {
		if math.Abs(global[i].TotalBytes()-wantPerWorker) > 1 {
			t.Fatalf("global worker %d carries %g bytes", i, global[i].TotalBytes())
		}
		if math.Abs(chunked[i].TotalBytes()-wantPerWorker) > 1 {
			t.Fatalf("chunked worker %d carries %g bytes", i, chunked[i].TotalBytes())
		}
	}
	// Chunked writes are local: worker 0 (node 0) must have no segments
	// on other nodes.
	for _, s := range chunked[0].Segments {
		if s.MemNode != 0 {
			t.Fatalf("chunked worker 0 touches node %d", s.MemNode)
		}
	}
	// Global writes touch all nodes.
	nodes := map[int]bool{}
	for _, s := range global[0].Segments {
		nodes[s.MemNode] = true
	}
	if len(nodes) != 4 {
		t.Fatalf("global worker 0 writes to %d nodes", len(nodes))
	}
}

func TestNodeUtilization(t *testing.T) {
	m := testMachine()
	tasks := []Task{{Segments: []Segment{{MemNode: 2, Bytes: 100}}}}
	res, _ := Simulate(m, tasks, []int{0}, 1)
	util := res.NodeUtilization(m)
	if util[2] <= 0 {
		t.Fatal("active node shows zero utilization")
	}
	if util[0] != 0 || util[1] != 0 || util[3] != 0 {
		t.Fatalf("idle nodes show utilization: %v", util)
	}
}
