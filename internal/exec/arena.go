package exec

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"mmjoin/internal/offheap"
	"mmjoin/internal/tuple"
)

// Arena recycles the large transient buffers of a join — partition
// output buffers, histograms, cursor arrays, hash-table backing arrays
// — across repeated executions. The target workload is a server running
// millions of small joins: without reuse every Run reallocates (and the
// GC retires) buffers proportional to |R|+|S| per join.
//
// An arena runs in one of two modes:
//
//   - Heap mode (NewArena, the zero value): returned buffers park on
//     per-size-class freelists shared by every goroutine, so a buffer
//     put back by one worker is found by the next Get wherever it
//     runs. (sync.Pool cannot promise that: an item in one P's private
//     slot is invisible to Gets on the other Ps, and a join's buffers
//     are taken and returned on different workers.) A parked buffer
//     is dropped at the second garbage collection after its Put, as
//     sync.Pool's victim cache would drop it, so memory goes back to
//     the runtime after a burst rather than staying pinned forever.
//
//   - Off-heap mode (NewArenaOffHeap): large classes draw mmap-backed
//     regions from internal/offheap — invisible to the GC — and park
//     returned regions on freelists that are never aged: dropping a
//     region without a free would leak the mapping. Small classes (and
//     any class when the platform allocator is unavailable) fall back
//     to the heap freelists, so the mode is a performance property,
//     never a correctness requirement. Destroy returns the parked
//     regions to the OS.
//
// The zero value is ready to use; a nil *Arena degrades to plain
// allocation.
type Arena struct {
	tuples classSet[tuple.Tuple]
	ints   classSet[int]
	u32s   classSet[uint32]
	u64s   classSet[uint64]

	// mu guards the freelists of all class sets, swept and cycles.
	mu sync.Mutex
	// swept is the gcSeen value the heap freelists were last aged at.
	swept uint64
	// cycles reads the runtime's completed-collection count.
	cycles  [1]metrics.Sample
	offheap bool

	// gets and puts count the buffers handed out and returned, so a
	// harness with a private arena can assert Outstanding() == 0 after
	// a join: a positive balance is a leaked buffer, a negative one a
	// double release. Zero-length requests and out-of-class buffers are
	// excluded on both sides, keeping the accounting symmetric.
	gets atomic.Int64
	puts atomic.Int64

	// Double-free guard state (race/test builds): base pointers of
	// parked buffers and the release site that parked them.
	guardMu sync.Mutex
	parked  map[uintptr]string
}

// classSet is one element type's recycling state: per size class, the
// parked heap buffers and (off-heap mode) the parked off-heap regions.
// Both are guarded by the arena's mu.
type classSet[T any] struct {
	heap [maxClass][]parked[T] // oldest first: Puts append, Gets pop the newest
	free [maxClass][][]T
}

// parked is a heap buffer on a freelist, tagged with the number of
// collections completed before its Put.
type parked[T any] struct {
	buf    []T
	cycles uint64
}

// maxClass bounds the size classes at 2^47 elements — far above any
// relation this repository can hold.
const maxClass = 48

// offheapMinBytes keeps tiny classes on the heap pools even in off-heap
// mode: below this footprint the page-rounding waste and the mmap
// syscall dominate whatever the GC would have cost.
const offheapMinBytes = 64 << 10

// heapKeepCycles is how many collections a parked heap buffer
// survives: it is kept through the first after its Put and dropped at
// the second, as sync.Pool's victim cache does.
const heapKeepCycles = 2

// gcCyclesMetric counts completed collections.
const gcCyclesMetric = "/gc/cycles/total:gc-cycles"

// gcSeen is the completed-collection count as of the last run of the
// finalizer armGCHook installs. It trails the runtime's count by the
// finalizer goroutine's latency; aging against it can only keep a
// buffer longer, never drop one early.
var gcSeen atomic.Uint64

// gcSentinel carries a pointer so it is never tiny-allocated next to
// longer-lived objects, which would delay its finalizer.
type gcSentinel struct{ _ *byte }

func init() { armGCHook() }

// armGCHook registers a finalizer that runs after the next collection,
// publishes the collection count to gcSeen and re-arms itself. The
// process-wide arenas are aged right there, so they release their
// parked buffers even when no join touches them; private arenas age on
// their next Get or Put, and die with their owner.
func armGCHook() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		s := [1]metrics.Sample{{Name: gcCyclesMetric}}
		metrics.Read(s[:])
		gcSeen.Store(s[0].Value.Uint64())
		Shared.age()
		SharedOffHeap.age()
		armGCHook()
	})
}

// Shared is the process-wide arena every pool uses by default. Joins
// running anywhere in the process recycle each other's buffers.
var Shared = NewArena()

// SharedOffHeap is the process-wide off-heap arena behind
// join.Options.OffHeap. Created eagerly (it costs nothing until used);
// when the platform allocator is unavailable it silently degrades to a
// plain heap arena.
var SharedOffHeap = NewArenaOffHeap()

// NewArena returns an empty private heap-mode arena.
func NewArena() *Arena { return &Arena{} }

// NewArenaOffHeap returns an arena that backs its large size classes
// with GC-invisible off-heap regions when internal/offheap is
// available, and behaves exactly like NewArena otherwise.
func NewArenaOffHeap() *Arena {
	return &Arena{offheap: offheap.Available()}
}

// OffHeap reports whether the arena was created in off-heap mode.
func (a *Arena) OffHeap() bool { return a != nil && a.offheap }

// classFor returns the smallest class c with 1<<c >= n (n >= 1).
func classFor(n int) int { return bits.Len(uint(n - 1)) }

// classBytes is the byte footprint of one class-c buffer of T.
func classBytes[T any](c int) int {
	var z T
	return (1 << c) * int(unsafe.Sizeof(z))
}

// arenaGet hands out a length-n buffer from the class set. zero
// restores the all-zero contract some callers rely on (histograms,
// hash-table key arrays); without it contents are arbitrary.
func arenaGet[T any](a *Arena, cs *classSet[T], n int, zero bool) []T {
	c := classFor(n)
	if c >= maxClass {
		return make([]T, n)
	}
	a.gets.Add(1)
	if a.offheap && classBytes[T](c) >= offheapMinBytes {
		if buf, ok := offheapGet(a, cs, c, n, zero); ok {
			return buf
		}
	}
	a.mu.Lock()
	a.ageLocked()
	if l := cs.heap[c]; len(l) > 0 {
		buf := l[len(l)-1].buf[:n]
		l[len(l)-1] = parked[T]{} // don't pin the array through the freelist
		cs.heap[c] = l[:len(l)-1]
		a.mu.Unlock()
		if zero {
			clear(buf)
		}
		guardOnGet(a, buf)
		return buf
	}
	a.mu.Unlock()
	buf := make([]T, n, 1<<c)
	guardOnGet(a, buf)
	return buf
}

// offheapGet pops a parked off-heap region or maps a fresh one. ok is
// false when the platform allocator declined — the caller falls back to
// the heap path (the Get was already counted).
func offheapGet[T any](a *Arena, cs *classSet[T], c, n int, zero bool) ([]T, bool) {
	a.mu.Lock()
	if l := cs.free[c]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		cs.free[c] = l[:len(l)-1]
		a.mu.Unlock()
		buf = buf[:n]
		if zero {
			clear(buf)
		}
		guardOnGet(a, buf)
		return buf, true
	}
	a.mu.Unlock()
	if s := offheap.Slice[T](1 << c); s != nil {
		// Fresh mappings are already zeroed.
		guardOnGet(a, s)
		return s[:n], true
	}
	return nil, false
}

// arenaPut files a buffer back under the largest class its capacity
// fully covers, so a future Get for that class always fits. Off-heap
// regions go to the freelists of an off-heap arena and straight back to
// the OS anywhere else.
func arenaPut[T any](a *Arena, cs *classSet[T], buf []T) {
	if cap(buf) == 0 {
		return
	}
	c := bits.Len(uint(cap(buf))) - 1
	if c >= maxClass {
		return
	}
	a.puts.Add(1)
	guardOnPut(a, buf)
	if offheap.IsOffHeapSlice(buf) {
		if a.offheap {
			a.mu.Lock()
			cs.free[c] = append(cs.free[c], buf[:cap(buf)])
			a.mu.Unlock()
		} else {
			// A foreign off-heap buffer must not enter the heap
			// freelists: aging drops buffers without a destructor and
			// the mapping would leak. Return it to the OS instead.
			offheap.Free(buf)
		}
		return
	}
	a.mu.Lock()
	a.ageLocked()
	// The tag is read from the runtime, not from gcSeen: a lagging
	// tag would make the buffer look older than it is.
	if a.cycles[0].Name == "" {
		a.cycles[0].Name = gcCyclesMetric
	}
	metrics.Read(a.cycles[:])
	cs.heap[c] = append(cs.heap[c], parked[T]{buf: buf[:0], cycles: a.cycles[0].Value.Uint64()})
	a.mu.Unlock()
}

// age drops the heap buffers that have outlived heapKeepCycles.
func (a *Arena) age() {
	a.mu.Lock()
	a.ageLocked()
	a.mu.Unlock()
}

// ageLocked is age with a.mu held. It costs one atomic load unless
// gcSeen has moved since the last call.
func (a *Arena) ageLocked() {
	now := gcSeen.Load()
	if now == a.swept {
		return
	}
	a.swept = now
	ageClass(&a.tuples, now)
	ageClass(&a.ints, now)
	ageClass(&a.u32s, now)
	ageClass(&a.u64s, now)
}

func ageClass[T any](cs *classSet[T], now uint64) {
	for c, l := range cs.heap {
		// Tags never decrease along a list, so the expired buffers
		// form a prefix. (A tag may exceed the lagging now.)
		k := 0
		for k < len(l) && l[k].cycles+heapKeepCycles <= now {
			k++
		}
		if k > 0 {
			n := copy(l, l[k:])
			clear(l[n:])
			cs.heap[c] = l[:n]
		}
	}
}

// Tuples returns a tuple buffer of length n with arbitrary contents
// (callers overwrite every slot; partition scatters do). The backing
// array comes from the arena when a large-enough buffer is pooled.
func (a *Arena) Tuples(n int) []tuple.Tuple {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]tuple.Tuple, n)
	}
	return arenaGet(a, &a.tuples, n, false)
}

// PutTuples returns a buffer to the arena. The caller must not use the
// slice (or any alias of it) afterwards; in race and test builds a
// second Put of the same buffer panics with both release sites.
func (a *Arena) PutTuples(buf []tuple.Tuple) {
	if a == nil {
		return
	}
	arenaPut(a, &a.tuples, buf)
}

// Ints returns a zeroed int buffer of length n (histograms rely on
// starting at zero).
func (a *Arena) Ints(n int) []int {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]int, n)
	}
	return arenaGet(a, &a.ints, n, true)
}

// PutInts returns an int buffer to the arena.
func (a *Arena) PutInts(buf []int) {
	if a == nil {
		return
	}
	arenaPut(a, &a.ints, buf)
}

// Uint32s returns a zeroed uint32 buffer of length n — the backing
// store of the linear, Robin Hood and array tables' key/payload arrays,
// whose constructors rely on the all-zero (empty-slot) state.
func (a *Arena) Uint32s(n int) []uint32 {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]uint32, n)
	}
	return arenaGet(a, &a.u32s, n, true)
}

// PutUint32s returns a uint32 buffer to the arena.
func (a *Arena) PutUint32s(buf []uint32) {
	if a == nil {
		return
	}
	arenaPut(a, &a.u32s, buf)
}

// Uint64s returns a zeroed uint64 buffer of length n — presence
// bitmaps, and (reinterpreted) the pointer-free bucket arrays of the
// chained table and the CHT's bitmap groups.
func (a *Arena) Uint64s(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]uint64, n)
	}
	return arenaGet(a, &a.u64s, n, true)
}

// PutUint64s returns a uint64 buffer to the arena.
func (a *Arena) PutUint64s(buf []uint64) {
	if a == nil {
		return
	}
	arenaPut(a, &a.u64s, buf)
}

// Outstanding returns the number of arena buffers handed out but not
// yet returned. Zero after a complete join on a private arena; positive
// means a leak, negative a double release (or a Put of a foreign
// buffer). Safe for concurrent use, but only meaningful to read when no
// join is in flight on the arena.
func (a *Arena) Outstanding() int64 {
	if a == nil {
		return 0
	}
	return a.gets.Load() - a.puts.Load()
}

// Destroy empties the arena's freelists: parked off-heap regions go
// back to the OS, parked heap buffers to the GC. Buffers still
// outstanding are unaffected — their Put parks them again, and a
// subsequent Get simply allocates or maps fresh ones. Harnesses with
// per-case private arenas call Destroy after the Outstanding check so
// the off-heap balance returns to its pre-case level.
func (a *Arena) Destroy() {
	if a == nil {
		return
	}
	destroyClass(a, &a.tuples)
	destroyClass(a, &a.ints)
	destroyClass(a, &a.u32s)
	destroyClass(a, &a.u64s)
	a.guardMu.Lock()
	a.parked = nil
	a.guardMu.Unlock()
}

func destroyClass[T any](a *Arena, cs *classSet[T]) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for c := range cs.free {
		for _, buf := range cs.free[c] {
			offheap.Free(buf)
		}
		cs.free[c] = nil
		cs.heap[c] = nil
	}
}

// debugGuard enables the double-free guard. On by default under the
// race detector (see guard_race.go); tests flip it with SetDebugGuard.
var debugGuard atomic.Bool

// SetDebugGuard enables or disables the arena double-free guard and
// returns the previous state. The guard costs a mutexed map operation
// per Get/Put, so it stays off in production builds.
func SetDebugGuard(on bool) (prev bool) {
	prev = debugGuard.Load()
	debugGuard.Store(on)
	return prev
}

// guardOnGet retires a buffer's parked record: the address is live
// again, so a later Put is legitimate. Fresh allocations also pass
// through here, clearing stale records when the allocator reuses an
// address whose pooled buffer the GC reclaimed.
func guardOnGet[T any](a *Arena, buf []T) {
	if !debugGuard.Load() || cap(buf) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf[:cap(buf)])))
	a.guardMu.Lock()
	if a.parked != nil {
		delete(a.parked, base)
	}
	a.guardMu.Unlock()
}

// guardOnPut records a buffer's release site and panics when the same
// buffer is released twice without an intervening Get.
func guardOnPut[T any](a *Arena, buf []T) {
	if !debugGuard.Load() || cap(buf) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf[:cap(buf)])))
	origin := guardOrigin()
	a.guardMu.Lock()
	if a.parked == nil {
		a.parked = make(map[uintptr]string)
	}
	if first, dup := a.parked[base]; dup {
		a.guardMu.Unlock()
		panic(fmt.Sprintf("exec: double free of arena buffer %#x: first returned at %s, returned again at %s",
			base, first, origin))
	}
	a.parked[base] = origin
	a.guardMu.Unlock()
}

// guardOrigin walks up past the arena internals to the caller that
// issued the Put.
func guardOrigin() string {
	for skip := 2; skip < 10; skip++ {
		_, file, line, ok := runtime.Caller(skip)
		if !ok {
			break
		}
		if !strings.HasSuffix(file, "internal/exec/arena.go") {
			return fmt.Sprintf("%s:%d", file, line)
		}
	}
	return "unknown"
}
