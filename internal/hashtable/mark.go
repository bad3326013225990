package hashtable

import (
	"math/bits"
	"sync/atomic"

	"mmjoin/internal/tuple"
)

// This file holds the build-side match-tracking API the outer-join
// variants are built on (see join.Kind): every table can record which of
// its entries matched at least one probe key, and enumerate the entries
// that never did. Tracking is table state, not a separate kernel:
// after EnableMatchTracking, Lookup and LookupBatch (and so the hashed
// designs' ProbeJoinBatch) mark the entry they hit. A right/full outer
// join enables tracking after the build, probes as usual, then scans the
// survivors with ForEachUnmatched in a post-pass, emitting
// <buildPayload, NullPayload> padding for each. Reset ends tracking.
//
// Marks are set with atomic OR so concurrent probes over a shared table
// (the no-partitioning joins and the skew-split shared tables) need no
// extra synchronization: marking is idempotent, and the post-pass runs
// after a phase barrier. The mark storage is a side bitmap over the
// table's stable entry positions, non-empty exactly while tracking is
// on — except for ChainedTable, whose overflow buckets have no stable
// global index; it keeps per-slot mark bits inside the bucket meta word
// (bits 29-30) and a tracking flag instead.
//
// Inner probes pay for this with one predicted branch, never a store:
// per hit in scalar Lookup (and ArrayTable's single-pass LookupBatch),
// per batch in the other LookupBatch walks, which mark in a pass after
// the walk from the lane cursors that stopped on the hit entries. The
// walks themselves carry no tracking code. Marking follows Lookup's
// first-match semantics — exact for the unique build-key workloads of
// the study, which the join layer guarantees by routing only null-free
// relations with unique keys into tables.

// markBitmap returns a cleared bitmap covering n entries, reusing m's
// storage when it is large enough (tables are Reset and re-tracked per
// co-partition).
func markBitmap(m []uint64, n int) []uint64 {
	w := (n + 63) / 64
	if cap(m) < w {
		return make([]uint64, w)
	}
	m = m[:w]
	clear(m)
	return m
}

// setMark sets bit i of a shared mark bitmap while tracking is on (the
// bitmap is non-empty); safe for concurrent markers.
func setMark(m []uint64, i int) {
	if len(m) != 0 {
		atomic.OrUint64(&m[i>>6], 1<<uint(i&63))
	}
}

// testMark reports bit i. Only called after the probe phase barrier, so
// a plain load suffices.
func testMark(m []uint64, i int) bool {
	return m[i>>6]&(1<<uint(i&63)) != 0
}

// ---------------------------------------------------------------------
// ChainedTable
// ---------------------------------------------------------------------

// EnableMatchTracking clears the mark bits in every bucket's meta word
// and makes Lookup and LookupBatch mark the entries they hit, for
// ForEachUnmatched. Call it after the build completed and before the
// first probe.
func (t *ChainedTable) EnableMatchTracking() {
	const marks = ^uint32(chainedCountMask | chainedLatchBit)
	for i := range t.buckets {
		t.buckets[i].meta &^= marks
	}
	for i := range t.arena {
		t.arena[i].meta &^= marks
	}
	t.tracking = true
}

// ForEachUnmatched invokes fn for every stored tuple whose mark bit was
// never set. Call only after all probes completed.
func (t *ChainedTable) ForEachUnmatched(fn func(tuple.Key, tuple.Payload)) {
	for bi := range t.buckets {
		b := &t.buckets[bi]
		for {
			meta := b.meta
			cnt := int(meta & chainedCountMask)
			for i := 0; i < cnt; i++ {
				if meta&(chainedMarkBit0<<uint(i)) == 0 {
					fn(b.tuples[i].Key, b.tuples[i].Payload)
				}
			}
			if b.next == 0 {
				break
			}
			b = &t.arena[b.next-1]
		}
	}
}

// ---------------------------------------------------------------------
// LinearTable
// ---------------------------------------------------------------------

// EnableMatchTracking allocates (or clears) the slot-mark bitmap. Must
// be called after the build completed and before the first probe.
func (t *LinearTable) EnableMatchTracking() { t.matched = markBitmap(t.matched, len(t.keys)) }

// ForEachUnmatched invokes fn for every stored tuple no probe marked.
// Requires EnableMatchTracking.
func (t *LinearTable) ForEachUnmatched(fn func(tuple.Key, tuple.Payload)) {
	for i, cur := range t.keys {
		if cur == 0 || testMark(t.matched, i) {
			continue
		}
		fn(tuple.Key(cur-1), t.payloads[i])
	}
}

// ---------------------------------------------------------------------
// RobinHoodTable
// ---------------------------------------------------------------------

// EnableMatchTracking allocates (or clears) the slot-mark bitmap.
func (t *RobinHoodTable) EnableMatchTracking() { t.matched = markBitmap(t.matched, len(t.keys)) }

// ForEachUnmatched invokes fn for every stored tuple never marked.
// Requires EnableMatchTracking.
func (t *RobinHoodTable) ForEachUnmatched(fn func(tuple.Key, tuple.Payload)) {
	for i, cur := range t.keys {
		if cur == 0 || testMark(t.matched, i) {
			continue
		}
		fn(tuple.Key(cur-1), t.payloads[i])
	}
}

// ---------------------------------------------------------------------
// ArrayTable
// ---------------------------------------------------------------------

// EnableMatchTracking allocates (or clears) the mark bitmap, shaped like
// the presence bitmap.
func (t *ArrayTable) EnableMatchTracking() {
	t.matched = markBitmap(t.matched, 64*len(t.present))
}

// ForEachUnmatched invokes fn for every present key never marked.
// Requires EnableMatchTracking. The scan is a word-at-a-time walk over
// present &^ matched, so fully-matched regions cost one load per 64
// keys.
func (t *ArrayTable) ForEachUnmatched(fn func(tuple.Key, tuple.Payload)) {
	for w, pres := range t.present {
		rem := pres &^ t.matched[w]
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &= rem - 1
			i := w<<6 + b
			fn(t.base+tuple.Key(i), t.payloads[i])
		}
	}
}

// ---------------------------------------------------------------------
// CHT
// ---------------------------------------------------------------------

// EnableMatchTracking allocates the mark bitmap over the dense array and
// flattens the overflow map into an indexable key list so overflow hits
// can be marked without mutating the map concurrently. Must be called
// after Finalize and before the first probe.
func (t *CHT) EnableMatchTracking() {
	t.matched = markBitmap(t.matched, len(t.array))
	if len(t.overflow) > 0 && t.ovIdx == nil {
		t.ovKeys = make([]tuple.Key, 0, len(t.overflow))
		t.ovIdx = make(map[tuple.Key]int32, len(t.overflow))
		for k := range t.overflow {
			t.ovIdx[k] = int32(len(t.ovKeys))
			t.ovKeys = append(t.ovKeys, k)
		}
	}
	t.ovMatched = markBitmap(t.ovMatched, len(t.ovKeys))
}

// markOverflow records a match for an overflow-resident key; a no-op
// until EnableMatchTracking builds ovIdx. Map reads are safe under
// concurrent readers; the bitmap takes the write.
func (t *CHT) markOverflow(k tuple.Key) {
	if i, ok := t.ovIdx[k]; ok {
		setMark(t.ovMatched, int(i))
	}
}

// ForEachUnmatched invokes fn for every stored tuple never marked: dense
// array entries by position, then whole overflow chains per unmatched
// key (a key's overflow payloads match or miss together, since matching
// is by key). Requires EnableMatchTracking.
func (t *CHT) ForEachUnmatched(fn func(tuple.Key, tuple.Payload)) {
	for i := range t.array {
		if !testMark(t.matched, i) {
			fn(t.array[i].Key, t.array[i].Payload)
		}
	}
	for i, k := range t.ovKeys {
		if testMark(t.ovMatched, i) {
			continue
		}
		for _, p := range t.overflow[k] {
			fn(k, p)
		}
	}
}

// ---------------------------------------------------------------------
// SparseTable
// ---------------------------------------------------------------------

// EnableMatchTracking snapshots per-group entry bases and allocates the
// mark bitmap over the table's current entries. The sparse table is
// dynamic; tracking is only valid while the table stays static — any
// Insert or Delete ends it, so enable tracking after the build
// completes, as the joins do for every table.
func (t *SparseTable) EnableMatchTracking() {
	if len(t.bases) != len(t.groups) {
		t.bases = make([]int32, len(t.groups))
	}
	total := 0
	for i := range t.groups {
		t.bases[i] = int32(total)
		total += len(t.groups[i].dense)
	}
	t.matched = markBitmap(t.matched, total)
}

// ForEachUnmatched invokes fn for every stored tuple never marked.
// Requires EnableMatchTracking on a static table.
func (t *SparseTable) ForEachUnmatched(fn func(tuple.Key, tuple.Payload)) {
	for gi := range t.groups {
		base := int(t.bases[gi])
		for j, e := range t.groups[gi].dense {
			if !testMark(t.matched, base+j) {
				fn(e.Key, e.Payload)
			}
		}
	}
}
