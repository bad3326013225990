package numasim

import (
	"math"
	"testing"
	"testing/quick"

	"mmjoin/internal/exec"
)

// Model invariants of the fluid engine, checked over random task sets.

func randomTasks(seed uint32, n int) []Task {
	state := uint64(seed) + 1
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 31)
	}
	tasks := make([]Task, n)
	for i := range tasks {
		segs := int(next()%3) + 1
		for s := 0; s < segs; s++ {
			tasks[i].Segments = append(tasks[i].Segments, Segment{
				MemNode: int(next() % 4),
				Bytes:   float64(next()%1000) + 1,
			})
		}
	}
	return tasks
}

func TestInvariantTimelineContiguous(t *testing.T) {
	f := func(seed uint32, workersRaw uint8) bool {
		tasks := randomTasks(seed, 20)
		workers := int(workersRaw%16) + 1
		res, err := Simulate(testMachine(), tasks, exec.SequentialOrder(len(tasks)), workers)
		if err != nil {
			return false
		}
		prevEnd := 0.0
		for _, s := range res.Timeline {
			if s.Start < prevEnd-1e-9 || s.End < s.Start {
				return false
			}
			prevEnd = s.End
		}
		return math.Abs(prevEnd-res.Makespan) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantNodeBandwidthNeverExceeded(t *testing.T) {
	m := testMachine()
	tasks := randomTasks(7, 100)
	res, err := Simulate(m, tasks, exec.SequentialOrder(len(tasks)), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Timeline {
		for n, bw := range s.NodeBW {
			if bw > m.NodeBandwidth+1e-6 {
				t.Fatalf("node %d drew %.1f of %.1f", n, bw, m.NodeBandwidth)
			}
		}
	}
}

func TestInvariantWorkConserved(t *testing.T) {
	// Integrated bandwidth over the timeline must equal the total task
	// bytes (every byte is transferred exactly once).
	m := testMachine()
	tasks := randomTasks(9, 50)
	var want float64
	for _, task := range tasks {
		want += task.TotalBytes()
	}
	res, err := Simulate(m, tasks, exec.SequentialOrder(len(tasks)), 4)
	if err != nil {
		t.Fatal(err)
	}
	var moved float64
	for _, s := range res.Timeline {
		dt := s.End - s.Start
		for _, bw := range s.NodeBW {
			moved += bw * dt
		}
	}
	if math.Abs(moved-want) > want*0.01 {
		t.Fatalf("moved %.1f bytes, want %.1f", moved, want)
	}
}

func TestInvariantAllTasksComplete(t *testing.T) {
	m := testMachine()
	tasks := randomTasks(11, 64)
	res, err := Simulate(m, tasks, exec.SequentialOrder(len(tasks)), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, end := range res.TaskEnd {
		if end <= 0 && tasks[i].TotalBytes() > 0 {
			t.Fatalf("task %d never completed", i)
		}
		if end > res.Makespan+1e-9 {
			t.Fatalf("task %d ends after makespan", i)
		}
	}
}

func TestInvariantMoreWorkersNeverSlower(t *testing.T) {
	// Within the physical core count, with uniform tasks and no remote
	// penalty, adding workers must not increase the makespan. (With a
	// remote penalty the invariant is genuinely false: extra workers can
	// lose node affinity — that behaviour is asserted in
	// TestSimulatePinnedPreservesAffinity instead.)
	m := testMachine()
	m.RemotePenalty = 1
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Segments: []Segment{{MemNode: i % 4, Bytes: 1000}}}
	}
	order := exec.SequentialOrder(len(tasks))
	prev := math.Inf(1)
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Simulate(m, tasks, order, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev+1e-9 {
			t.Fatalf("%d workers slower than fewer: %.3f > %.3f", workers, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

func TestSimulatePinnedPreservesAffinity(t *testing.T) {
	// Tasks shaped so task i is local to worker i's node. Pinned
	// execution must be faster than a scrambled shared queue where the
	// remote penalty bites.
	m := testMachine()
	m.CoreRate = 1e12 // isolate the remote penalty
	const workers = 8
	tasks := make([]Task, workers)
	for i := range tasks {
		tasks[i] = Task{Segments: []Segment{{MemNode: m.Topo.NodeOfWorker(i, workers), Bytes: 1e6}}}
	}
	pinned, err := SimulatePinned(m, tasks, workers)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse order through the shared queue misaligns tasks/workers.
	reversed := make([]int, workers)
	for i := range reversed {
		reversed[i] = workers - 1 - i
	}
	scrambled, err := Simulate(m, tasks, reversed, workers)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Makespan >= scrambled.Makespan {
		t.Fatalf("pinned %.4f not faster than scrambled %.4f", pinned.Makespan, scrambled.Makespan)
	}
}

func TestSimulatePinnedTaskEndIndexedByTask(t *testing.T) {
	m := testMachine()
	tasks := []Task{
		{Segments: []Segment{{MemNode: 0, Bytes: 100}}},
		{},
		{Segments: []Segment{{MemNode: 1, Bytes: 100}}},
	}
	res, err := SimulatePinned(m, tasks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskEnd) != 3 {
		t.Fatalf("TaskEnd len = %d", len(res.TaskEnd))
	}
	if res.TaskEnd[0] <= 0 || res.TaskEnd[2] <= 0 {
		t.Fatal("non-empty tasks have no completion time")
	}
}

func TestSimulatePinnedValidation(t *testing.T) {
	if _, err := SimulatePinned(testMachine(), []Task{{}}, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestSimulatePerNodeQueuesLocality(t *testing.T) {
	// Balanced node-local tasks: the per-node-queue schedule must match
	// round-robin (all controllers busy, everything local), and beat
	// the sequential shared queue.
	m := PaperMachine()
	const n = 256
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Segments: []Segment{{MemNode: i % 4, Bytes: 1 << 20}}}
	}
	nodeOf := func(i int) int { return i % 4 }
	perNode, err := SimulatePerNodeQueues(m, tasks, nodeOf, 32)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Simulate(m, tasks, exec.SequentialOrder(n), 32)
	if err != nil {
		t.Fatal(err)
	}
	// All reads are local under per-node queues, so it must be at least
	// as fast as the shared sequential queue (remote-heavy).
	if perNode.Makespan > seq.Makespan {
		t.Fatalf("per-node queues %.4f slower than sequential %.4f", perNode.Makespan, seq.Makespan)
	}
	for i, end := range perNode.TaskEnd {
		if end <= 0 {
			t.Fatalf("task %d never finished", i)
		}
	}
}

func TestSimulatePerNodeQueuesValidation(t *testing.T) {
	m := PaperMachine()
	if _, err := SimulatePerNodeQueues(m, []Task{{}}, func(int) int { return 0 }, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
	// Out-of-range node falls back to node 0 rather than erroring.
	tasks := []Task{{Segments: []Segment{{MemNode: 0, Bytes: 10}}}}
	if _, err := SimulatePerNodeQueues(m, tasks, func(int) int { return 99 }, 4); err != nil {
		t.Fatal(err)
	}
}
