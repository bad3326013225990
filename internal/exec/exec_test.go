package exec

import (
	"context"
	"sync/atomic"
	"testing"

	"mmjoin/internal/tuple"
)

func TestNewRangeHandsOutAllTasks(t *testing.T) {
	q := NewRange(10)
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	seen := make(map[int]bool)
	for {
		id, ok := q.Pop()
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("task %d popped twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 10 {
		t.Fatalf("popped %d tasks, want 10", len(seen))
	}
}

func TestRunExecutesEveryWorker(t *testing.T) {
	pool := NewPool(context.Background(), 4)
	var ran [4]atomic.Int32
	err := pool.Run("phase", func(w *Worker) {
		ran[w.ID].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("worker %d ran %d times", i, ran[i].Load())
		}
	}
}

func TestRunQueueDrainsQueue(t *testing.T) {
	pool := NewPool(context.Background(), 3)
	const n = 50
	var done [n]atomic.Int32
	err := pool.RunQueue("phase", NewRange(n), func(w *Worker, task int) {
		done[task].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if done[i].Load() != 1 {
			t.Fatalf("task %d executed %d times", i, done[i].Load())
		}
	}
}

func TestMorselsCoversRangeInStrides(t *testing.T) {
	pool := NewPool(context.Background(), 1)
	n := MorselTuples*2 + 17
	covered := 0
	err := pool.Run("phase", func(w *Worker) {
		if !w.Morsels(n, func(begin, end int) {
			if end-begin > MorselTuples {
				t.Errorf("stride %d exceeds MorselTuples", end-begin)
			}
			if begin != covered {
				t.Errorf("stride starts at %d, want %d", begin, covered)
			}
			covered = end
		}) {
			t.Error("Morsels reported cancellation on a live context")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if covered != n {
		t.Fatalf("covered %d of %d", covered, n)
	}
}

func TestRunReturnsErrOnPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewPool(ctx, 4)
	ran := false
	err := pool.Run("phase", func(w *Worker) { ran = true })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("phase ran on a cancelled pool")
	}
}

func TestRunQueueStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := NewPool(ctx, 2)
	var executed atomic.Int32
	const n = 1 << 20
	err := pool.RunQueue("phase", NewRange(n), func(w *Worker, task int) {
		if executed.Add(1) == 4 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is checked before every pop: at most one in-flight
	// task per worker can run after cancel.
	if got := executed.Load(); got > 4+2 {
		t.Fatalf("executed %d tasks after cancel, want <= 6", got)
	}
}

func TestMorselsStopOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := NewPool(ctx, 1)
	strides := 0
	err := pool.Run("phase", func(w *Worker) {
		ok := w.Morsels(MorselTuples*8, func(begin, end int) {
			strides++
			if strides == 2 {
				cancel()
			}
		})
		if ok {
			t.Error("Morsels did not report cancellation")
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if strides != 2 {
		t.Fatalf("ran %d strides after cancel, want 2", strides)
	}
}

func TestPhaseHookFiresBeforeWorkers(t *testing.T) {
	pool := NewPool(context.Background(), 2)
	var phases []string
	pool.SetPhaseHook(func(phase string) { phases = append(phases, phase) })
	_ = pool.Run("a", func(w *Worker) {})
	_ = pool.RunQueue("b", NewRange(1), func(w *Worker, task int) {})
	if len(phases) != 2 || phases[0] != "a" || phases[1] != "b" {
		t.Fatalf("hook saw %v", phases)
	}
}

func TestStatsRecordPhasesAndTasks(t *testing.T) {
	pool := NewPool(context.Background(), 2)
	pool.SetQueueStrategy("fifo")
	_ = pool.Run("chunk", func(w *Worker) {
		w.Morsels(MorselTuples*3, func(begin, end int) {})
	})
	_ = pool.RunQueue("queue", NewRange(7), func(w *Worker, task int) {})
	s := pool.Stats()
	if s.Workers != 2 || s.Queue != "fifo" {
		t.Fatalf("stats header: %+v", s)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases: %d", len(s.Phases))
	}
	chunk := s.Phase("chunk")
	if chunk == nil || chunk.Tasks != 6 {
		t.Fatalf("chunk phase: %+v", chunk)
	}
	queue := s.Phase("queue")
	if queue == nil || queue.Tasks != 7 {
		t.Fatalf("queue phase: %+v", queue)
	}
	if s.TotalTasks() != 13 {
		t.Fatalf("total tasks = %d", s.TotalTasks())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestArenaReusesTupleBuffers(t *testing.T) {
	a := NewArena()
	buf := a.Tuples(1000)
	if len(buf) != 1000 {
		t.Fatalf("len = %d", len(buf))
	}
	p := &buf[0]
	a.PutTuples(buf)
	again := a.Tuples(900)
	if len(again) != 900 {
		t.Fatalf("len = %d", len(again))
	}
	if &again[0] != p {
		t.Fatal("arena did not reuse the pooled buffer")
	}
	a.PutTuples(again)
}

func TestArenaIntsZeroed(t *testing.T) {
	a := NewArena()
	buf := a.Ints(256)
	for i := range buf {
		buf[i] = i + 1
	}
	a.PutInts(buf)
	//mmjoin:allow(arenapair) zeroing probe: asserting recycled contents, not ownership; buffer dies with the test
	again := a.Ints(256)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled ints not zeroed at %d: %d", i, v)
		}
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	//mmjoin:allow(arenapair) nil-receiver probe: a nil arena pools nothing, there is nothing to put back
	if got := a.Tuples(10); len(got) != 10 {
		t.Fatal("nil arena Tuples")
	}
	//mmjoin:allow(arenapair) nil-receiver probe: a nil arena pools nothing, there is nothing to put back
	if got := a.Ints(10); len(got) != 10 {
		t.Fatal("nil arena Ints")
	}
	a.PutTuples(make([]tuple.Tuple, 4))
	a.PutInts(make([]int, 4))
	if Shared.Tuples(0) != nil || Shared.Ints(0) != nil {
		t.Fatal("zero-length buffers should be nil")
	}
}
