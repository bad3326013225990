package hashtable

import (
	"math/bits"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// CHT is the Concise Hash Table of Barber et al. (PVLDB 2014). It packs
// all n tuples into a dense array A with no empty slots, and finds a
// tuple's array position through a bitmap over 8*n virtual buckets with
// interleaved population-count prefixes: a set bit at bucket b means the
// bucket is occupied, and the array index of its tuple is the number of
// set bits before b. The structure is static — bulk-loaded once, then
// probed — which is exactly the lifecycle of a join build side.
//
// Collisions are resolved by bounded linear probing in bitmap space;
// tuples whose displacement would exceed chtMaxDisplacement go to a small
// overflow table, as in the original design.
type CHT struct {
	groups   []chtGroup // one per 32 buckets: bitmap word + bit-prefix
	array    []tuple.Tuple
	overflow map[tuple.Key][]tuple.Payload
	mask     uint64 // bucketCount - 1
	hash     hashfn.Func
	hashB    hashfn.BatchFunc
	n        int

	// Match-tracking state (empty until EnableMatchTracking): a mark bitmap
	// over the dense array, plus a flattened index of the overflow map so
	// overflow hits can be marked without mutating the map during
	// concurrent probes.
	matched   []uint64
	ovKeys    []tuple.Key
	ovIdx     map[tuple.Key]int32
	ovMatched []uint64

	// Arena-backed storage (nil a means plain heap allocation): the
	// group array is viewed over a uint64 buffer kept in groupsRaw, the
	// dense array is drawn from the arena's tuple class. The overflow
	// map stays on the heap — it is empty for dense keys, and a Go map
	// cannot live off-heap anyway.
	a         *exec.Arena
	groupsRaw []uint64
}

// chtGroup interleaves 32 bitmap bits with the running population count
// of all preceding groups, mirroring the physically interleaved B/PC
// layout described in the paper (Section 3.2 of Schuh et al.).
type chtGroup struct {
	bits   uint32
	prefix uint32
}

// chtBucketsPerTuple is the bitmap over-provisioning factor: the paper's
// CHT uses a bitmap of size 8*n.
const chtBucketsPerTuple = 8

// chtMaxDisplacement bounds linear probing in bitmap space; longer runs
// spill to the overflow table. Two bitmap words is generous at the
// 1/8 fill grade of an 8*n bitmap.
const chtMaxDisplacement = 64

// BuildCHT bulk-loads a CHT from the relation on one thread. The
// parallel partitioned build used by the CHTJ join lives in CHTBuilder.
func BuildCHT(rel tuple.Relation, hash hashfn.Func) *CHT {
	b := NewCHTBuilder(len(rel), 1, hash)
	b.LoadRegion(0, rel)
	return b.Finalize()
}

// bucketOf returns the home bucket of a key.
func (t *CHT) bucketOf(k tuple.Key) uint64 { return t.hash(k) & t.mask }

// Lookup implements Table, marking the hit while tracking is on.
func (t *CHT) Lookup(k tuple.Key) (tuple.Payload, bool) {
	h := t.bucketOf(k)
	bucketCount := t.mask + 1
	for d := uint64(0); d < chtMaxDisplacement; d++ {
		pos := h + d
		if pos >= bucketCount {
			break
		}
		g := &t.groups[pos>>5]
		off := uint(pos & 31)
		if g.bits&(1<<off) == 0 {
			break
		}
		idx := int(g.prefix) + bits.OnesCount32(g.bits&((1<<off)-1))
		if t.array[idx].Key == k {
			setMark(t.matched, idx)
			return t.array[idx].Payload, true
		}
	}
	if len(t.overflow) > 0 {
		if ps := t.overflow[k]; len(ps) > 0 {
			t.markOverflow(k)
			return ps[0], true
		}
	}
	return 0, false
}

// Len implements Table.
func (t *CHT) Len() int { return t.n }

// SizeBytes implements Table. The bitmap+prefix structure costs 8 bytes
// per 32 buckets plus the dense tuple array — the memory frugality that
// motivated the design.
func (t *CHT) SizeBytes() int64 {
	return int64(len(t.groups))*8 + int64(len(t.array))*tuple.Bytes
}

// Free returns arena-drawn storage to the arena; the table must not be
// used afterwards. A no-op for heap-backed tables and idempotent.
func (t *CHT) Free() {
	if t.a == nil {
		return
	}
	if t.groupsRaw != nil {
		t.a.PutUint64s(t.groupsRaw)
		t.groupsRaw = nil
		t.groups = nil
	}
	if t.array != nil {
		t.a.PutTuples(t.array)
		t.array = nil
	}
}

// OverflowLen reports how many tuples spilled past the displacement
// bound (diagnostics and tests).
func (t *CHT) OverflowLen() int {
	n := 0
	for _, ps := range t.overflow {
		n += len(ps)
	}
	return n
}

// CHTBuilder constructs a CHT in parallel over disjoint bitmap regions:
// the CHTJ join radix-partitions the build side by bucket prefix so that
// each worker bulk-loads one contiguous region without synchronization
// (Section 3.2). Region boundaries are aligned to 32-bucket groups.
type CHTBuilder struct {
	table     *CHT
	regions   int
	perRegion [][]tuple.Tuple // placed tuples per region, in bucket order
	spilled   [][]tuple.Tuple // overflow tuples per region
}

// NewCHTBuilder prepares a builder for n tuples loaded via `regions`
// disjoint regions. regions must be a power of two so regions align with
// bitmap groups; it is clamped to keep each region at least one group
// wide.
func NewCHTBuilder(n, regions int, hash hashfn.Func) *CHTBuilder {
	return NewCHTBuilderArena(n, regions, hash, nil)
}

// NewCHTBuilderArena is NewCHTBuilder with the finished table's bitmap
// groups and dense array drawn from the arena (possibly off-heap; both
// are pointer-free). The caller owns the storage and must call the
// table's Free when done; a nil arena gives plain heap allocation.
func NewCHTBuilderArena(n, regions int, hash hashfn.Func, a *exec.Arena) *CHTBuilder {
	checkCapacity(n)
	if hash == nil {
		hash = hashfn.Identity
	}
	bucketCount := NextPow2(n) * chtBucketsPerTuple
	if bucketCount < 32 {
		bucketCount = 32
	}
	groupCount := bucketCount / 32
	regions = NextPow2(regions)
	if regions < 1 {
		regions = 1
	}
	for regions > groupCount {
		regions >>= 1
	}
	t := &CHT{
		overflow: make(map[tuple.Key][]tuple.Payload),
		mask:     uint64(bucketCount - 1),
		hash:     hash,
		hashB:    hashfn.BatchFor(hash),
		a:        a,
	}
	if a != nil {
		t.groupsRaw = a.Uint64s(groupCount) // zeroed per contract
		t.groups = groupsFrom(t.groupsRaw, groupCount)
		// Tuples are handed out with arbitrary contents, which is fine:
		// the dense array is append-only up to n, never read past len.
		t.array = a.Tuples(n)[:0]
	} else {
		t.groups = make([]chtGroup, groupCount)
		t.array = make([]tuple.Tuple, 0, n)
	}
	return &CHTBuilder{
		table:     t,
		regions:   regions,
		perRegion: make([][]tuple.Tuple, regions),
		spilled:   make([][]tuple.Tuple, regions),
	}
}

// Regions returns the actual region count after alignment clamping.
func (b *CHTBuilder) Regions() int { return b.regions }

// Free releases the under-construction table's arena storage. Because
// Finalize returns the same *CHT the builder owns, a deferred
// builder.Free() also covers the finalized table (Free is idempotent),
// so join error paths before and after Finalize need only one call.
func (b *CHTBuilder) Free() { b.table.Free() }

// RegionOf returns the region index a key's bucket falls into; the CHTJ
// join uses it to partition the build side before calling LoadRegion.
func (b *CHTBuilder) RegionOf(k tuple.Key) int {
	bucketCount := b.table.mask + 1
	return int(b.table.bucketOf(k) * uint64(b.regions) / bucketCount)
}

// LoadRegion places all tuples of one region into the region's bitmap
// range. Every tuple must satisfy RegionOf(t.Key) == region. Safe to call
// concurrently for distinct regions.
func (b *CHTBuilder) LoadRegion(region int, tuples []tuple.Tuple) {
	t := b.table
	bucketCount := t.mask + 1
	lo := uint64(region) * bucketCount / uint64(b.regions)
	hi := uint64(region+1) * bucketCount / uint64(b.regions)

	// Canonical linear-probing placement: process tuples in home-bucket
	// order and assign each the first free bucket at or after its home.
	// Bucket order is established with an LSD radix sort — comparison
	// sorting here would dominate the whole bulkload.
	ordered := radixSortByBucket(tuples, t.bucketOf, bucketCount)

	placed := make([]tuple.Tuple, 0, len(ordered))
	next := lo
	for _, tp := range ordered {
		home := t.bucketOf(tp.Key)
		pos := home
		if next > pos {
			pos = next
		}
		if pos >= hi || pos-home >= chtMaxDisplacement {
			b.spilled[region] = append(b.spilled[region], tp)
			continue
		}
		g := &t.groups[pos>>5]
		g.bits |= 1 << uint(pos&31)
		placed = append(placed, tp)
		next = pos + 1
	}
	b.perRegion[region] = placed
}

// radixSortByBucket returns the tuples ordered by their home bucket,
// using an 11-bit-per-pass LSD radix sort over the bucket values.
func radixSortByBucket(tuples []tuple.Tuple, bucketOf func(tuple.Key) uint64, bucketCount uint64) []tuple.Tuple {
	const passBits = 11
	const radix = 1 << passBits
	n := len(tuples)
	src := make([]tuple.Tuple, n)
	copy(src, tuples)
	if n < 2 {
		return src
	}
	dst := make([]tuple.Tuple, n)
	for shift := uint(0); uint64(1)<<shift < bucketCount; shift += passBits {
		var counts [radix]int
		for _, tp := range src {
			counts[(bucketOf(tp.Key)>>shift)&(radix-1)]++
		}
		pos := 0
		var starts [radix]int
		for d := 0; d < radix; d++ {
			starts[d] = pos
			pos += counts[d]
		}
		for _, tp := range src {
			d := (bucketOf(tp.Key) >> shift) & (radix - 1)
			dst[starts[d]] = tp
			starts[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Finalize computes the population-count prefixes, concatenates the
// region arrays into the dense tuple array, merges overflow, and returns
// the finished table. Must be called once after all LoadRegion calls.
func (b *CHTBuilder) Finalize() *CHT {
	t := b.table
	var running uint32
	for i := range t.groups {
		t.groups[i].prefix = running
		running += uint32(bits.OnesCount32(t.groups[i].bits))
	}
	for _, region := range b.perRegion {
		t.array = append(t.array, region...)
	}
	for _, sp := range b.spilled {
		for _, tp := range sp {
			t.overflow[tp.Key] = append(t.overflow[tp.Key], tp.Payload)
		}
	}
	t.n = len(t.array)
	for _, ps := range t.overflow {
		t.n += len(ps)
	}
	return t
}
