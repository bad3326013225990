package hashtable

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"mmjoin/internal/exec"
	"mmjoin/internal/tuple"
)

// ArrayTable is the "simple array instead of a hash table" baseline of
// Section 5.2: for unique keys from a (reasonably) dense domain, the key
// indexes a payload array directly, with a presence bitmap marking holes.
// It backs the NOPA, PRA and CPRA joins.
//
// Keys must be unique and fall into [Base, Base+Domain). Dense primary
// keys generated by AUTOINCREMENT columns — the case the paper argues is
// common — satisfy this with Base 0 and Domain |R|.
type ArrayTable struct {
	payloads []tuple.Payload
	present  []uint64
	base     tuple.Key
	n        int
	matched  []uint64 // key-mark bitmap, shaped like present; empty unless tracking

	// a is the arena the payload array and presence bitmap were drawn
	// from (nil for plain heap allocation); Free returns them.
	a *exec.Arena
}

// NewArrayTable creates a table covering the key range
// [base, base+domain). The payload array and presence bitmap come from
// the arena a (possibly off-heap; both are pointer-free), and the
// caller must call Free when done; a nil arena means the heap.
func NewArrayTable(base tuple.Key, domain int, a *exec.Arena) *ArrayTable {
	checkCapacity(domain)
	t := &ArrayTable{base: base, a: a}
	if a != nil {
		t.payloads = a.Uint32s(domain)
		t.present = a.Uint64s((domain + 63) / 64)
	} else {
		t.payloads = make([]tuple.Payload, domain)
		t.present = make([]uint64, (domain+63)/64)
	}
	return t
}

// Free returns arena-drawn storage to the arena; the table must not be
// used afterwards. A no-op for heap-backed tables and idempotent.
func (t *ArrayTable) Free() {
	if t.a == nil || t.payloads == nil {
		return
	}
	t.a.PutUint32s(t.payloads)
	t.a.PutUint64s(t.present)
	t.payloads = nil
	t.present = nil
}

// Insert stores one tuple. Inserting distinct keys is safe concurrently
// without synchronization apart from the presence bitmap, which is
// updated with a per-word read-modify-write; the paper's array joins
// insert unique primary keys, so each payload slot is written exactly
// once. Use InsertConcurrent when several goroutines may share bitmap
// words.
//
//mmjoin:hotpath
func (t *ArrayTable) Insert(tp tuple.Tuple) {
	i := int(tp.Key - t.base)
	if uint(i) >= uint(len(t.payloads)) {
		//mmjoin:allow(hotalloc) cold failure path: formatting only runs on a domain violation, right before dying
		panic(fmt.Sprintf("hashtable: key %d outside the array domain [%d, %d)",
			tp.Key, t.base, int(t.base)+len(t.payloads)))
	}
	t.payloads[i] = tp.Payload
	t.present[i>>6] |= 1 << uint(i&63)
	t.n++
}

// InsertConcurrent stores one tuple with an atomic bitmap update, safe
// for concurrent builders inserting distinct keys (the NOPA build phase).
// The count is fixed up by FinishConcurrentBuild.
//
//mmjoin:hotpath
func (t *ArrayTable) InsertConcurrent(tp tuple.Tuple) {
	i := int(tp.Key - t.base)
	t.payloads[i] = tp.Payload
	atomic.OrUint64(&t.present[i>>6], 1<<uint(i&63))
}

// FinishConcurrentBuild recounts elements after a concurrent build.
func (t *ArrayTable) FinishConcurrentBuild() {
	n := 0
	for _, w := range t.present {
		n += bits.OnesCount64(w)
	}
	t.n = n
}

// Lookup implements Table, marking the hit while tracking is on.
//
//mmjoin:hotpath
func (t *ArrayTable) Lookup(k tuple.Key) (tuple.Payload, bool) {
	i := int(k - t.base)
	if uint(i) >= uint(len(t.payloads)) {
		return 0, false
	}
	if t.present[i>>6]&(1<<uint(i&63)) == 0 {
		return 0, false
	}
	setMark(t.matched, i)
	return t.payloads[i], true
}

// Len implements Table.
func (t *ArrayTable) Len() int { return t.n }

// SizeBytes implements Table. The array join pays for the whole domain —
// the memory/speed trade-off explored in Appendix C.
func (t *ArrayTable) SizeBytes() int64 {
	return int64(len(t.payloads))*4 + int64(len(t.present))*8
}

// Reset clears the table for reuse and ends match tracking.
func (t *ArrayTable) Reset() {
	clear(t.present)
	t.matched = t.matched[:0]
	t.n = 0
}
