package hashtable

import (
	"sync/atomic"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// LinearTable is a lock-free linear-probing hash table following
// Lang et al. (IMDM 2013): slots are claimed with a single
// compare-and-swap on the key word, after which the payload is written
// with a plain store. Entries are never deleted or overwritten, so a
// claimed slot is immutable.
//
// Internally keys are stored biased by +1 so that 0 marks an empty slot;
// the full uint32 key space except MaxUint32 is usable, which covers all
// workloads in the study (4-byte dense keys starting at 0).
type LinearTable struct {
	keys     []uint32 // biased key + 1; 0 = empty
	payloads []tuple.Payload
	mask     uint64
	hash     hashfn.Hash
	n        int64
	matched  []uint64 // slot-mark bitmap; empty unless tracking

	// a is the arena the key/payload arrays were drawn from (nil for
	// plain heap allocation); Free returns them.
	a *exec.Arena
}

// DefaultLinearLoadFactor is the fill grade the table is sized for.
// Lang et al. size their lock-free table at 50% occupancy to keep probe
// sequences short.
const DefaultLinearLoadFactor = 0.5

// NewLinearTable creates a table for n tuples sized so the fill grade
// stays at or below load (<= 0 means DefaultLinearLoadFactor). The slot
// arrays come from the arena a (possibly off-heap; both are
// pointer-free uint32 words), and the caller must call Free when done;
// a nil arena means the heap.
func NewLinearTable(n int, load float64, hash hashfn.Hash, a *exec.Arena) *LinearTable {
	checkCapacity(n)
	if load <= 0 || load > 1 {
		load = DefaultLinearLoadFactor
	}
	slots := NextPow2(int(float64(n)/load) + 1)
	t := &LinearTable{mask: uint64(slots - 1), hash: hash, a: a}
	if a != nil {
		// Payload is a uint32 alias, so both arrays come straight from
		// the arena's zeroed uint32 class.
		t.keys = a.Uint32s(slots)[:slots]
		t.payloads = a.Uint32s(slots)[:slots]
	} else {
		t.keys = make([]uint32, slots)
		t.payloads = make([]tuple.Payload, slots)
	}
	return t
}

// Free returns arena-drawn slot arrays to the arena; the table must not
// be used afterwards. A no-op for heap-backed tables and idempotent.
func (t *LinearTable) Free() {
	if t.a == nil || t.keys == nil {
		return
	}
	t.a.PutUint32s(t.keys)
	t.a.PutUint32s(t.payloads)
	t.keys = nil
	t.payloads = nil
}

// Slots returns the slot count (for space accounting and tests).
func (t *LinearTable) Slots() int { return len(t.keys) }

// Insert adds one tuple without synchronization. Single-threaded
// per-partition builds (PRL, CPRL) use this path. Inserting more
// tuples than the table has slots panics instead of looping forever.
//
//mmjoin:hotpath
func (t *LinearTable) Insert(tp tuple.Tuple) {
	biased := uint32(tp.Key) + 1
	i := t.hash.Scalar(tp.Key) & t.mask
	for probes := 0; probes <= int(t.mask); probes++ {
		if t.keys[i] == 0 {
			t.keys[i] = biased
			t.payloads[i] = tp.Payload
			t.n++
			return
		}
		i = (i + 1) & t.mask
	}
	//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes when the table is misused
	panic("hashtable: LinearTable full — size it for the build side before inserting")
}

// InsertConcurrent adds one tuple using the CAS protocol of Lang et al.
// Safe for any number of concurrent writers. The payload store is
// intentionally plain: the build phase is separated from the probe phase
// by a barrier, and a slot's key is claimed exactly once. A full table
// panics rather than live-locking every writer.
//
//mmjoin:hotpath
func (t *LinearTable) InsertConcurrent(tp tuple.Tuple) {
	biased := uint32(tp.Key) + 1
	i := t.hash.Scalar(tp.Key) & t.mask
	for probes := 0; probes <= int(t.mask); probes++ {
		if atomic.LoadUint32(&t.keys[i]) == 0 &&
			atomic.CompareAndSwapUint32(&t.keys[i], 0, biased) {
			t.payloads[i] = tp.Payload
			atomic.AddInt64(&t.n, 1)
			return
		}
		i = (i + 1) & t.mask
	}
	//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes when the table is misused
	panic("hashtable: LinearTable full — size it for the build side before inserting")
}

// Lookup implements Table, marking the hit while tracking is on. The
// probe count is bounded by the slot count so a pathologically full
// table terminates with a miss instead of spinning.
//
//mmjoin:hotpath
func (t *LinearTable) Lookup(k tuple.Key) (tuple.Payload, bool) {
	biased := uint32(k) + 1
	i := t.hash.Scalar(k) & t.mask
	for probes := 0; probes <= int(t.mask); probes++ {
		cur := t.keys[i]
		if cur == biased {
			setMark(t.matched, int(i))
			return t.payloads[i], true
		}
		if cur == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// Len implements Table.
func (t *LinearTable) Len() int { return int(atomic.LoadInt64(&t.n)) }

// SizeBytes implements Table.
func (t *LinearTable) SizeBytes() int64 { return int64(len(t.keys)) * 8 }

// Reset clears the table for reuse with the same capacity and ends
// match tracking.
func (t *LinearTable) Reset() {
	clear(t.keys)
	t.matched = t.matched[:0]
	t.n = 0
}
