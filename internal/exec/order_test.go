package exec

import (
	"sort"
	"sync"
	"testing"
)

func drain(q Queue) []int {
	var out []int
	for {
		id, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

func TestLIFOPopsInReverse(t *testing.T) {
	q := NewLIFO([]int{1, 2, 3})
	got := drain(q)
	want := []int{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain")
	}
}

func TestQueueConcurrentPopNoDupNoLoss(t *testing.T) {
	const n = 10000
	for _, q := range []Queue{NewLIFO(SequentialOrder(n)), NewRange(n)} {
		var mu sync.Mutex
		seen := make([]bool, n)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					id, ok := q.Pop()
					if !ok {
						return
					}
					mu.Lock()
					if seen[id] {
						t.Errorf("task %d popped twice", id)
					}
					seen[id] = true
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for id, s := range seen {
			if !s {
				t.Fatalf("task %d lost", id)
			}
		}
	}
}

func TestSequentialOrder(t *testing.T) {
	o := SequentialOrder(5)
	for i, v := range o {
		if v != i {
			t.Fatalf("order = %v", o)
		}
	}
}

func TestRoundRobinOrderAlternatesNodes(t *testing.T) {
	// 16 tasks, 4 per node in blocks (like consecutive partitions on
	// chunked memory): round-robin must interleave them.
	nodeOf := func(task int) int { return task / 4 }
	order := RoundRobinOrder(16, 4, nodeOf)
	if len(order) != 16 {
		t.Fatalf("len = %d", len(order))
	}
	// First four pops hit four distinct nodes.
	seen := map[int]bool{}
	for _, task := range order[:4] {
		seen[nodeOf(task)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("first 4 tasks hit %d nodes: %v", len(seen), order[:4])
	}
	// Must be a permutation.
	perm := append([]int(nil), order...)
	sort.Ints(perm)
	for i, v := range perm {
		if v != i {
			t.Fatalf("not a permutation: %v", order)
		}
	}
}

func TestRoundRobinOrderUnbalancedNodes(t *testing.T) {
	// All tasks on node 0 except one: must not lose or duplicate.
	nodeOf := func(task int) int {
		if task == 7 {
			return 3
		}
		return 0
	}
	order := RoundRobinOrder(10, 4, nodeOf)
	perm := append([]int(nil), order...)
	sort.Ints(perm)
	for i, v := range perm {
		if v != i {
			t.Fatalf("not a permutation: %v", order)
		}
	}
}

func TestRoundRobinOrderInvalidNode(t *testing.T) {
	order := RoundRobinOrder(4, 2, func(task int) int { return -1 })
	if len(order) != 4 {
		t.Fatalf("len = %d", len(order))
	}
}
