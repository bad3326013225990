package exec

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"mmjoin/internal/tuple"
)

// TestArenaWarmCycleZeroAllocs is the arena's reuse contract stated at
// its strongest: once a size class has been through one cold
// Get/Put cycle, further cycles perform zero allocations — neither for
// the buffer (recycled) nor for its freelist slot (the list keeps its
// capacity).
func TestArenaWarmCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the double-free guard allocates on every Get/Put under -race")
	}
	// Park the GC: collections mid-measurement would age the freelists
	// and turn a warm Get into a cold allocation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	a := NewArena()
	const n = 1 << 12
	// Cold cycle: allocates the buffers and their header containers.
	a.PutTuples(a.Tuples(n))
	a.PutInts(a.Ints(n))

	if avg := testing.AllocsPerRun(100, func() {
		buf := a.Tuples(n)
		a.PutTuples(buf)
	}); avg != 0 {
		t.Errorf("warm Tuples/PutTuples cycle: %v allocs per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		buf := a.Ints(n)
		a.PutInts(buf)
	}); avg != 0 {
		t.Errorf("warm Ints/PutInts cycle: %v allocs per run, want 0", avg)
	}
}

// TestArenaHeaderDoesNotPinBuffer checks the freelist slot a buffer
// was parked in is stripped of its array reference: the arena must not
// keep a large buffer reachable through its freelist after the buffer
// is handed out.
func TestArenaHeaderDoesNotPinBuffer(t *testing.T) {
	a := NewArena()
	a.PutTuples(make([]tuple.Tuple, 1<<10))
	buf := a.Tuples(1 << 10)
	if buf == nil {
		t.Fatal("pooled buffer not returned")
	}
	l := a.tuples.heap[classFor(1<<10)]
	for _, p := range l[:cap(l)] {
		if p.buf != nil {
			t.Fatal("freelist slot still references the handed-out buffer")
		}
	}
}

// TestArenaReuseAcrossGoroutines checks a buffer returned on one
// goroutine is handed out again on another: a join's buffers are taken
// and returned on different workers. The two goroutines handshake while
// both spin, so with GOMAXPROCS > 1 they run on different Ps — where a
// sync.Pool would park the buffer in a slot the taker's P cannot see.
func TestArenaReuseAcrossGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps to put and take on different ones")
	}
	a := NewArena()
	for i := 0; i < 32; i++ {
		buf := a.Tuples(1 << 12)
		p := &buf[0]
		var started, put atomic.Bool
		go func() {
			started.Store(true)
			a.PutTuples(buf)
			put.Store(true)
		}()
		for !started.Load() {
		}
		for !put.Load() {
		}
		again := a.Tuples(1 << 12)
		if &again[0] != p {
			t.Fatalf("round %d: a buffer returned on another goroutine was not reused", i)
		}
		a.PutTuples(again)
	}
}

// TestArenaAgesParkedBuffers checks the heap freelists keep a parked
// buffer through the next collection and drop it once heapKeepCycles
// collections have completed after its Put.
func TestArenaAgesParkedBuffers(t *testing.T) {
	a := NewArena()
	buf := a.Tuples(1 << 12)
	p := &buf[0]
	a.PutTuples(buf)
	runtime.GC()
	again := a.Tuples(1 << 12)
	if &again[0] != p {
		t.Fatal("a parked buffer did not survive one collection")
	}
	a.PutTuples(again)
	tag := a.tuples.heap[classFor(1<<12)][0].cycles

	// gcSeen trails the collections by the finalizer's latency.
	for i := 0; gcSeen.Load() < tag+heapKeepCycles; i++ {
		if i == 1000 {
			t.Fatalf("gcSeen = %d after 1000 collections, want >= %d", gcSeen.Load(), tag+heapKeepCycles)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	a.age()
	if l := a.tuples.heap[classFor(1<<12)]; len(l) != 0 {
		t.Fatalf("%d parked buffers outlived %d collections", len(l), heapKeepCycles)
	}
}
