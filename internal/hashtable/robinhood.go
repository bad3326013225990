package hashtable

import (
	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// RobinHoodTable is a linear-probing table with Robin Hood displacement
// balancing, one of the strategies of the hashing study the paper leans
// on (Richter, Alvarez, Dittrich, "A Seven-Dimensional Analysis of
// Hashing Methods", PVLDB 2016 — reference [19]): on a collision the
// incoming entry steals the slot of any resident that is closer to its
// home bucket, equalizing probe distances and making worst-case lookups
// short even at high load factors.
//
// It exists here as an ablation subject next to the plain linear table:
// with the paper's 50% load factor and dense keys Robin Hood buys
// little, which is exactly why the study's joins use plain probing.
type RobinHoodTable struct {
	keys     []uint32 // biased key + 1; 0 = empty
	payloads []tuple.Payload
	dist     []uint8 // probe distance from home bucket, saturated at 255
	mask     uint64
	hash     hashfn.Hash
	n        int
	matched  []uint64 // slot-mark bitmap; empty unless tracking

	// Arena-backed storage (nil a means plain heap allocation). The
	// dist bytes are viewed over a uint32 arena buffer, kept in distRaw
	// so Free can return it.
	a       *exec.Arena
	distRaw []uint32
}

// NewRobinHoodTable creates a table for n tuples at the given load
// factor (<= 0 defaults to the linear table's 50%). The slot arrays
// come from the arena a (possibly off-heap; all three are
// pointer-free), and the caller must call Free when done; a nil arena
// means the heap.
func NewRobinHoodTable(n int, load float64, hash hashfn.Hash, a *exec.Arena) *RobinHoodTable {
	checkCapacity(n)
	if load <= 0 || load > 1 {
		load = DefaultLinearLoadFactor
	}
	slots := NextPow2(int(float64(n)/load) + 1)
	t := &RobinHoodTable{mask: uint64(slots - 1), hash: hash, a: a}
	if a != nil {
		t.keys = a.Uint32s(slots)
		t.payloads = a.Uint32s(slots)
		t.distRaw = a.Uint32s((slots + 3) / 4) // zeroed per contract
		t.dist = bytesFrom(t.distRaw, slots)
	} else {
		t.keys = make([]uint32, slots)
		t.payloads = make([]tuple.Payload, slots)
		t.dist = make([]uint8, slots)
	}
	return t
}

// Free returns arena-drawn slot arrays to the arena; the table must not
// be used afterwards. A no-op for heap-backed tables and idempotent.
func (t *RobinHoodTable) Free() {
	if t.a == nil || t.keys == nil {
		return
	}
	t.a.PutUint32s(t.keys)
	t.a.PutUint32s(t.payloads)
	t.a.PutUint32s(t.distRaw)
	t.keys = nil
	t.payloads = nil
	t.dist = nil
	t.distRaw = nil
}

// Insert adds one tuple (single-writer).
func (t *RobinHoodTable) Insert(tp tuple.Tuple) {
	key := uint32(tp.Key) + 1
	payload := tp.Payload
	i := t.hash.Scalar(tp.Key) & t.mask
	var d uint8
	for probes := 0; probes <= int(t.mask); probes++ {
		if t.keys[i] == 0 {
			t.keys[i] = key
			t.payloads[i] = payload
			t.dist[i] = d
			t.n++
			return
		}
		if t.dist[i] < d {
			// Rob the rich: swap with the closer-to-home resident and
			// keep inserting the evicted entry.
			t.keys[i], key = key, t.keys[i]
			t.payloads[i], payload = payload, t.payloads[i]
			t.dist[i], d = d, t.dist[i]
		}
		i = (i + 1) & t.mask
		if d < 255 {
			d++
		}
	}
	panic("hashtable: RobinHoodTable full")
}

// Reset clears the table for reuse at the same capacity without
// allocating. Payload slots keep stale values; keys[i] == 0 marks them
// unreachable. Match tracking ends.
func (t *RobinHoodTable) Reset() {
	clear(t.keys)
	clear(t.dist)
	t.matched = t.matched[:0]
	t.n = 0
}

// Lookup implements Table. The probe loop can stop as soon as it meets
// an entry closer to home than the query would be — the Robin Hood
// early-exit that keeps misses cheap. A hit is marked while tracking is
// on.
func (t *RobinHoodTable) Lookup(k tuple.Key) (tuple.Payload, bool) {
	key := uint32(k) + 1
	i := t.hash.Scalar(k) & t.mask
	var d uint8
	for probes := 0; probes <= int(t.mask); probes++ {
		cur := t.keys[i]
		if cur == 0 {
			return 0, false
		}
		if cur == key {
			setMark(t.matched, int(i))
			return t.payloads[i], true
		}
		if t.dist[i] < d {
			return 0, false
		}
		i = (i + 1) & t.mask
		if d < 255 {
			d++
		}
	}
	return 0, false
}

// Len implements Table.
func (t *RobinHoodTable) Len() int { return t.n }

// SizeBytes implements Table.
func (t *RobinHoodTable) SizeBytes() int64 { return int64(len(t.keys)) * 9 }
