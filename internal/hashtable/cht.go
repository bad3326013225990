package hashtable

import (
	"math/bits"
	"sync"
	"unsafe"

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
	hash     hashfn.Hash
	// spread is the shift that spreads a hash over the 8n buckets: a
	// key's home is (hash << spread) & mask. The identity hash spreads
	// by chtBucketShift, so a dense key k sits at exactly 8k. A
	// scrambler's low bits are already uniform, so it spreads by 0:
	// shifted, its n keys would share n home buckets, every one a
	// multiple of 8.
	spread uint8
	n      int

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
// CHT uses a bitmap of size 8*n. The identity hash shifts a key left by
// chtBucketShift to reach its home bucket (see CHT.spread), so it stays
// collision-free for dense keys.
const (
	chtBucketShift     = 3
	chtBucketsPerTuple = 1 << chtBucketShift
)

// chtMaxDisplacement bounds linear probing in bitmap space; longer runs
// spill to the overflow table. Two bitmap words is generous at the
// 1/8 fill grade of an 8*n bitmap.
const chtMaxDisplacement = 64

// chtPrefetchMinBytes is the table size above which the bulkload and
// LookupBatch issue software prefetches. Below it (an L2-sized table)
// the hints cost more issue slots than the misses they would hide.
const chtPrefetchMinBytes = 2 << 20

// pfDist is the prefetch distance of the table's kernels: the package
// distance for tables above chtPrefetchMinBytes, 0 for smaller ones.
// It counts the dense array's capacity, so it holds during the build.
//
//mmjoin:hotpath
//mmjoin:inline
func (t *CHT) pfDist() int {
	if len(t.groups)*8+cap(t.array)*tuple.Bytes <= chtPrefetchMinBytes {
		return 0
	}
	return prefetchDist()
}

// BuildCHT bulk-loads a CHT from the relation on one thread. The
// parallel partitioned build used by the CHTJ join lives in CHTBuilder.
func BuildCHT(rel tuple.Relation, hash hashfn.Hash) *CHT {
	b := NewCHTBuilder(len(rel), 1, hash, nil)
	b.LoadRegion(0, rel)
	return b.Finalize()
}

// bucketOf returns the home bucket of a key.
//
//mmjoin:hotpath
//mmjoin:inline
func (t *CHT) bucketOf(k tuple.Key) uint64 { return (t.hash.Scalar(k) << t.spread) & t.mask }

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

// CHTBuilder bulk-loads a CHT in the two passes of Barber et al., in
// parallel over disjoint bitmap regions: the CHTJ join partitions the
// build side by bucket prefix so that each worker loads one contiguous
// region without synchronization (Section 3.2). Region boundaries are
// aligned to 32-bucket groups.
//
//  1. LoadRegion (claim) walks the region's tuples in input order. Each
//     takes the first free bucket at or after its home, or spills to the
//     overflow table past chtMaxDisplacement or the region end.
//  2. ScatterRegion computes the region's population-count prefixes and
//     writes each placed tuple to array[rank(bucket)].
//
// Ranks follow bucket order, so the dense array is in bucket order;
// within a collision run the tuples keep their input order. The table's
// storage is allocated by the first of these calls, so a join that runs
// them in its phases times the allocation there.
type CHTBuilder struct {
	table   *CHT
	regions int
	shift   uint // bucket >> shift is the bucket's region
	n       int
	alloc   sync.Once
	loads   []chtLoad
}

// chtLoad is one region's claim: its tuples (the caller's slices, not
// copies), each tuple's displacement from its home bucket or
// chtSpilled, the spilled tuples and the placed count.
type chtLoad struct {
	segs    [][]tuple.Tuple
	disp    []uint8
	spilled []tuple.Tuple
	placed  int
	done    bool
}

// chtSpilled marks an overflow tuple; displacements are below
// chtMaxDisplacement.
const chtSpilled = 0xff

// NewCHTBuilder prepares a builder for n tuples loaded via `regions`
// disjoint regions. regions must be a power of two so regions align with
// bitmap groups; it is clamped to keep each region at least one group
// wide. The finished table's bitmap groups and dense array come from the
// arena a (possibly off-heap; both are pointer-free), and the caller
// must call the table's Free when done; a nil arena means the heap.
func NewCHTBuilder(n, regions int, hash hashfn.Hash, a *exec.Arena) *CHTBuilder {
	checkCapacity(n)
	bucketCount := max(NextPow2(n)*chtBucketsPerTuple, 32)
	regions = max(NextPow2(regions), 1)
	for regions > bucketCount/32 {
		regions >>= 1
	}
	return &CHTBuilder{
		table: &CHT{
			overflow: make(map[tuple.Key][]tuple.Payload),
			mask:     uint64(bucketCount - 1),
			hash:     hash,
			spread:   chtSpread(hash),
			a:        a,
		},
		regions: regions,
		shift:   uint(bits.TrailingZeros(uint(bucketCount / regions))),
		n:       n,
		loads:   make([]chtLoad, regions),
	}
}

// chtSpread returns the hash's spread (see CHT.spread).
func chtSpread(hash hashfn.Hash) uint8 {
	if hash == hashfn.Identity {
		return chtBucketShift
	}
	return 0
}

// allocate draws the bitmap groups (zeroed) and the dense array. The
// array may come with arbitrary contents: the scatter writes every slot
// below the placed count, and nothing reads past it.
func (b *CHTBuilder) allocate() {
	t := b.table
	groupCount := int(t.mask+1) / 32
	if t.a != nil {
		t.groupsRaw = t.a.Uint64s(groupCount)
		t.groups = groupsFrom(t.groupsRaw, groupCount)
		t.array = t.a.Tuples(b.n)[:0]
	} else {
		t.groups = make([]chtGroup, groupCount)
		t.array = make([]tuple.Tuple, 0, b.n)
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
func (b *CHTBuilder) RegionOf(k tuple.Key) int { return int(b.table.bucketOf(k) >> b.shift) }

// eachBlock calls fn on the region's tuples in order, BatchSize at a
// time, with their displacements. The passes over a block first touch
// every tuple's bitmap group (prefetched on large tables), so the
// block's cache misses overlap, and only then act on them.
func (l *chtLoad) eachBlock(fn func(blk []tuple.Tuple, disp []uint8)) {
	disp := l.disp
	for _, s := range l.segs {
		for len(s) > 0 {
			blk := s[:min(len(s), BatchSize)]
			fn(blk, disp[:len(blk)])
			s, disp = s[len(blk):], disp[len(blk):]
		}
	}
}

// LoadRegion is the claim pass over one region: segs, walked in order,
// are the region's tuples, and each tuple claims the first free bucket
// at or after its home. Every tuple must satisfy RegionOf(t.Key) ==
// region, and segs must stay unchanged until Finalize. It returns the
// number of tuples. Safe to call concurrently for distinct regions.
func (b *CHTBuilder) LoadRegion(region int, segs ...[]tuple.Tuple) int {
	b.alloc.Do(b.allocate)
	t, l := b.table, &b.loads[region]
	hi := uint64(region+1) << b.shift
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	l.segs, l.disp = segs, make([]uint8, n)
	pfOn := t.pfDist() > 0
	var homes [BatchSize]uint64
	l.eachBlock(func(blk []tuple.Tuple, disp []uint8) {
		for j, tp := range blk {
			homes[j] = t.bucketOf(tp.Key)
			if pfOn {
				pf(unsafe.Pointer(&t.groups[homes[j]>>5]))
			}
		}
		for j, tp := range blk {
			pos, end := homes[j], min(homes[j]+chtMaxDisplacement, hi)
			for pos < end {
				// The free buckets at or after pos within its group.
				if free := ^t.groups[pos>>5].bits >> (pos & 31); free != 0 {
					pos += uint64(bits.TrailingZeros32(free))
					break
				}
				pos = pos&^31 + 32
			}
			if pos < end {
				t.groups[pos>>5].bits |= 1 << (pos & 31)
				disp[j] = uint8(pos - homes[j])
				l.placed++
			} else {
				disp[j] = chtSpilled
				l.spilled = append(l.spilled, tp)
			}
		}
	})
	return n
}

// ScatterRegion computes the region's population-count prefixes and
// writes each of its placed tuples to the dense array slot its bucket
// ranks; on large tables each rank's array line is prefetched before
// the block's writes. Every region must have been loaded first: the
// region's array range starts after the tuples placed in the regions
// before it. Safe to call concurrently for distinct regions.
func (b *CHTBuilder) ScatterRegion(region int) {
	b.alloc.Do(b.allocate)
	t, l := b.table, &b.loads[region]
	running := uint32(0)
	for r := 0; r < region; r++ {
		running += uint32(b.loads[r].placed)
	}
	per := len(t.groups) / b.regions
	for i := region * per; i < (region+1)*per; i++ {
		t.groups[i].prefix = running
		running += uint32(bits.OnesCount32(t.groups[i].bits))
	}
	array := t.array[:cap(t.array)]
	pfOn := t.pfDist() > 0
	var slot [BatchSize]int
	l.eachBlock(func(blk []tuple.Tuple, disp []uint8) {
		for j, tp := range blk {
			slot[j] = -1
			if disp[j] != chtSpilled {
				slot[j] = int(t.bucketOf(tp.Key) + uint64(disp[j]))
				if pfOn {
					pf(unsafe.Pointer(&t.groups[slot[j]>>5]))
				}
			}
		}
		for j, pos := range slot[:len(blk)] {
			if pos >= 0 {
				g := t.groups[pos>>5]
				slot[j] = int(g.prefix) + bits.OnesCount32(g.bits&(1<<(pos&31)-1))
				if pfOn {
					pf(unsafe.Pointer(&array[slot[j]]))
				}
			}
		}
		for j, tp := range blk {
			if slot[j] >= 0 {
				array[slot[j]] = tp
			}
		}
	})
	l.segs, l.disp, l.done = nil, nil, true
}

// Finalize scatters any region not yet scattered, merges overflow, and
// returns the finished table. Must be called once, after all LoadRegion
// calls.
func (b *CHTBuilder) Finalize() *CHT {
	t := b.table
	placed := 0
	for r := range b.loads {
		l := &b.loads[r]
		if !l.done {
			b.ScatterRegion(r)
		}
		placed += l.placed
		t.n += l.placed + len(l.spilled)
		for _, tp := range l.spilled {
			t.overflow[tp.Key] = append(t.overflow[tp.Key], tp.Payload)
		}
	}
	t.array = t.array[:placed]
	return t
}
