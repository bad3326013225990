package hashtable

import (
	"math/bits"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// SparseTable is a dynamic sibling of the CHT, modeled on the Google
// sparse hash map the paper compares the CHT against (Section 3.2:
// "Google sparse hash map is very similar to CHT, but additionally
// allows for inserts and deletes"). Buckets are organized in groups of
// 32; each group stores a 32-bit occupancy bitmap and a dense slice
// holding only the occupied buckets, so empty buckets cost one bit —
// the same memory frugality as the CHT, paid for with per-group
// shifting on insert and delete.
//
// Collisions are resolved by probing successive buckets (possibly
// crossing group boundaries), like the CHT's bitmap-space linear
// probing but without a displacement bound: the structure is dynamic,
// so there is no overflow side-table to fall back to.
type SparseTable struct {
	groups  []sparseGroup
	mask    uint64 // bucket count - 1
	hash    hashfn.Hash
	n       int
	deleted int

	// Match-tracking state (empty until EnableMatchTracking): a mark
	// bitmap over the table's entries addressed as group base + dense
	// index. The bases snapshot is only valid while the table stays
	// static, so Insert and Delete end tracking.
	bases   []int32
	matched []uint64
}

type sparseGroup struct {
	bits  uint32
	dense []tuple.Tuple
}

// sparseBucketsPerTuple is the bitmap over-provisioning factor, matching
// the CHT's 8 virtual buckets per expected tuple.
const sparseBucketsPerTuple = 8

// NewSparseTable creates a table for about n tuples.
func NewSparseTable(n int, hash hashfn.Hash) *SparseTable {
	buckets := NextPow2(max(n, 4)) * sparseBucketsPerTuple
	if buckets < 32 {
		buckets = 32
	}
	return &SparseTable{
		groups: make([]sparseGroup, buckets/32),
		mask:   uint64(buckets - 1),
		hash:   hash,
	}
}

// bucketOf spreads the hash over the bitmap like the CHT does.
func (t *SparseTable) bucketOf(k tuple.Key) uint64 {
	return (t.hash.Scalar(k) * sparseBucketsPerTuple) & t.mask
}

// denseIndex returns the position of bucket `off` within its group's
// dense slice.
func (g *sparseGroup) denseIndex(off uint) int {
	return bits.OnesCount32(g.bits & ((1 << off) - 1))
}

// Insert adds one tuple. Not safe for concurrent use (the dynamic
// shifting cannot be made lock-free cheaply; this mirrors the original,
// which is a single-writer structure).
func (t *SparseTable) Insert(tp tuple.Tuple) {
	t.matched = t.matched[:0]
	pos := t.bucketOf(tp.Key)
	for probes := uint64(0); probes <= t.mask; probes++ {
		g := &t.groups[pos>>5]
		off := uint(pos & 31)
		if g.bits&(1<<off) == 0 {
			idx := g.denseIndex(off)
			g.dense = append(g.dense, tuple.Tuple{})
			copy(g.dense[idx+1:], g.dense[idx:])
			g.dense[idx] = tp
			g.bits |= 1 << off
			t.n++
			return
		}
		pos = (pos + 1) & t.mask
	}
	panic("hashtable: SparseTable full")
}

// Lookup implements Table, marking the hit while tracking is on.
func (t *SparseTable) Lookup(k tuple.Key) (tuple.Payload, bool) {
	pos := t.bucketOf(k)
	for probes := uint64(0); probes <= t.mask; probes++ {
		g := &t.groups[pos>>5]
		off := uint(pos & 31)
		if g.bits&(1<<off) == 0 {
			return 0, false
		}
		idx := g.denseIndex(off)
		if e := g.dense[idx]; e.Key == k {
			if len(t.matched) != 0 {
				setMark(t.matched, int(t.bases[pos>>5])+idx)
			}
			return e.Payload, true
		}
		pos = (pos + 1) & t.mask
	}
	return 0, false
}

// Delete removes one tuple with the given key and reports whether one
// was found — the operation the CHT gives up to stay bulk-loaded.
// Deletion leaves a tombstone-free table by back-shifting within probe
// runs being unnecessary here: the occupancy bit is simply cleared,
// which would break probe runs for displaced keys, so instead the
// displaced suffix of the run is re-inserted.
func (t *SparseTable) Delete(k tuple.Key) bool {
	t.matched = t.matched[:0]
	pos := t.bucketOf(k)
	for probes := uint64(0); probes <= t.mask; probes++ {
		g := &t.groups[pos>>5]
		off := uint(pos & 31)
		if g.bits&(1<<off) == 0 {
			return false
		}
		idx := g.denseIndex(off)
		if g.dense[idx].Key == k {
			// Remove the entry...
			g.dense = append(g.dense[:idx], g.dense[idx+1:]...)
			g.bits &^= 1 << off
			t.n--
			// ...then re-insert the remainder of the probe run so
			// displaced keys stay reachable.
			t.reinsertRun((pos + 1) & t.mask)
			return true
		}
		pos = (pos + 1) & t.mask
	}
	return false
}

// reinsertRun pops and re-inserts every occupied bucket from pos until
// the first empty bucket — the standard deletion repair for linear
// probing, applied to the sparse-group layout.
func (t *SparseTable) reinsertRun(pos uint64) {
	var displaced []tuple.Tuple
	for probes := uint64(0); probes <= t.mask; probes++ {
		g := &t.groups[pos>>5]
		off := uint(pos & 31)
		if g.bits&(1<<off) == 0 {
			break
		}
		idx := g.denseIndex(off)
		displaced = append(displaced, g.dense[idx])
		g.dense = append(g.dense[:idx], g.dense[idx+1:]...)
		g.bits &^= 1 << off
		t.n--
		pos = (pos + 1) & t.mask
	}
	for _, tp := range displaced {
		t.Insert(tp)
	}
}

// Len implements Table.
func (t *SparseTable) Len() int { return t.n }

// SizeBytes implements Table: one occupancy word per 32 buckets plus
// exactly n dense tuples.
func (t *SparseTable) SizeBytes() int64 {
	var dense int64
	for i := range t.groups {
		dense += int64(cap(t.groups[i].dense)) * tuple.Bytes
	}
	// Bitmap word + slice header per group.
	return int64(len(t.groups))*(4+24) + dense
}
