package hashtable

import (
	"sync/atomic"
	"unsafe"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// chainedBucketTuples is the number of tuples stored inline per bucket.
// With two 8-byte tuples, a 4-byte latch/count word and a 4-byte next
// index, a bucket pads to 32 bytes: two buckets per cache line, the
// layout argued for by Balkesen et al. as the fix for the pointer-heavy
// design of Blanas et al.
const chainedBucketTuples = 2

// chainedBucket is pointer-free on purpose: overflow chains link by
// index into the table's overflow arena, not by Go pointer. That keeps
// the GC out of the bucket arrays entirely (a pointer field would make
// every bucket a scan target) and — the property the off-heap backend
// depends on — makes it legal to place bucket arrays in mmap-backed
// memory the collector never sees, where a stored Go pointer would be
// invisible to the GC and its referent freed underneath the table.
// Index links are also relocation-safe: growing the overflow arena
// moves the buckets, not the identities.
type chainedBucket struct {
	// meta packs the latch (bit 31), the match marks (bits 29-30) and
	// the in-bucket tuple count (low bits); manipulated atomically
	// during concurrent builds and probes, and plainly during
	// single-threaded per-partition builds.
	meta uint32
	// next is the 1-based index of the successor overflow bucket in the
	// table's arena; 0 ends the chain.
	next   int32
	tuples [chainedBucketTuples]tuple.Tuple
	_      [8]byte // pad to 32 bytes: two buckets per cache line
}

// chainedBucketWords is the bucket size in uint64 words, for
// reinterpreting arena-drawn uint64 buffers as bucket arrays.
const chainedBucketWords = 4

const (
	chainedLatchBit = 1 << 31
	// chainedMarkBit0 is the build-side matched flag of in-bucket slot 0;
	// slot i uses bit chainedMarkShift+i. With chainedBucketTuples == 2
	// the marks occupy bits 29-30, leaving bit 31 for the latch and the
	// low 29 bits for the count. Marks are set atomically by Lookup and
	// LookupBatch once EnableMatchTracking was called, and read by
	// ForEachUnmatched; every count extraction masks them out.
	chainedMarkShift = 29
	chainedMarkBit0  = 1 << chainedMarkShift
	chainedCountMask = chainedMarkBit0 - 1
)

// ChainedTable is a bucket-chaining hash table whose head buckets live in
// one contiguous array holding latches and tuples together. Overflow
// buckets are allocated from a growing arena, addressed by index, to
// keep them dense in memory and cheap to allocate.
type ChainedTable struct {
	buckets []chainedBucket
	mask    uint64
	hash    hashfn.Hash
	arena   []chainedBucket // overflow bucket storage, 1-based-index addressed
	// ovUsed is the overflow cursor of concurrent builds: chains are
	// guarded by per-head latches, which cannot protect a growing
	// slice, so concurrent overflow buckets are claimed from the
	// PrepareConcurrent reservation with this atomic counter.
	ovUsed     atomic.Int32
	concurrent bool
	tracking   bool // Lookup/LookupBatch mark hits; see EnableMatchTracking
	n          int
	capacity   int // declared capacity from New, for PrepareConcurrent

	// Arena-backed storage (nil a means plain heap allocation): the raw
	// uint64 buffers the bucket arrays are reinterpreted from, kept so
	// Free can return them.
	a          *exec.Arena
	bucketsRaw []uint64
	arenaRaw   []uint64
}

// NewChainedTable creates a table for about n tuples. The bucket count is
// the next power of two of n/chainedBucketTuples so the expected chain
// length stays at one bucket. The backing arrays come from the arena a
// (possibly off-heap; the bucket layout is pointer-free exactly so this
// is legal), and the caller owns the table's storage and must call Free
// when done; a nil arena means the heap.
func NewChainedTable(n int, hash hashfn.Hash, a *exec.Arena) *ChainedTable {
	checkCapacity(n)
	nb := NextPow2((n + chainedBucketTuples - 1) / chainedBucketTuples)
	t := &ChainedTable{
		mask:     uint64(nb - 1),
		hash:     hash,
		capacity: n,
		a:        a,
	}
	if a != nil {
		t.bucketsRaw = a.Uint64s(nb * chainedBucketWords) // zeroed per contract
		t.buckets = bucketsFrom(t.bucketsRaw, nb)
	} else {
		t.buckets = make([]chainedBucket, nb)
	}
	return t
}

// bucketsFrom reinterprets a uint64 buffer as n chained buckets. The
// word alignment (8 bytes) exceeds the bucket's 4-byte requirement.
func bucketsFrom(raw []uint64, n int) []chainedBucket {
	p := (*chainedBucket)(unsafe.Pointer(unsafe.SliceData(raw)))
	return unsafe.Slice(p, n)
}

// Free returns arena-drawn backing arrays to the arena; the table must
// not be used afterwards. A no-op for heap-backed tables (the GC owns
// them) and idempotent.
func (t *ChainedTable) Free() {
	if t.a == nil {
		return
	}
	if t.bucketsRaw != nil {
		t.a.PutUint64s(t.bucketsRaw)
		t.bucketsRaw = nil
		t.buckets = nil
	}
	if t.arenaRaw != nil {
		t.a.PutUint64s(t.arenaRaw)
		t.arenaRaw = nil
	}
	t.arena = nil
}

// Reset clears the table for reuse with the same capacity, avoiding
// reallocation between co-partition joins.
//
// Chains link by index, so truncating the overflow arena detaches every
// chain; the retired slots are scrubbed too so no stale tuple data
// lingers in recycled capacity. A Reset+rebuild cycle over the same
// data allocates nothing (see TestChainedResetRebuildAllocationFree).
func (t *ChainedTable) Reset() {
	for i := range t.buckets {
		t.buckets[i].meta = 0
		t.buckets[i].next = 0
	}
	clear(t.arena[:cap(t.arena)])
	t.arena = t.arena[:0]
	t.ovUsed.Store(0)
	t.concurrent = false
	t.tracking = false
	t.n = 0
}

// newOverflow claims the next overflow bucket (single-threaded builds),
// zeroing the recycled slot. The caller must have ensured capacity; the
// arena is never relocated here, so bucket pointers held across the
// call stay valid.
//
//mmjoin:hotpath
func (t *ChainedTable) newOverflow() int32 {
	idx := len(t.arena)
	t.arena = t.arena[:idx+1]
	t.arena[idx] = chainedBucket{}
	return int32(idx + 1)
}

// ensureOverflowSpace guarantees capacity for `extra` more overflow
// buckets without relocating when none is needed — the amortized-growth
// point kept out of the insert loops so bucket pointers can be held
// across newOverflow calls.
func (t *ChainedTable) ensureOverflowSpace(extra int) {
	need := len(t.arena) + extra
	if cap(t.arena) >= need {
		return
	}
	newCap := cap(t.arena) * 2
	if newCap < need {
		newCap = need
	}
	if newCap < 16 {
		newCap = 16
	}
	t.reallocOverflow(newCap)
}

// reallocOverflow grows the overflow arena to newCap buckets. Index
// links make the move safe even mid-build: identities survive the copy.
func (t *ChainedTable) reallocOverflow(newCap int) {
	if t.a == nil {
		na := make([]chainedBucket, len(t.arena), newCap)
		copy(na, t.arena)
		t.arena = na
		return
	}
	raw := t.a.Uint64s(newCap * chainedBucketWords) // zeroed per contract
	nb := bucketsFrom(raw, cap(raw)/chainedBucketWords)[:len(t.arena)]
	copy(nb, t.arena)
	if t.arenaRaw != nil {
		t.a.PutUint64s(t.arenaRaw)
	}
	t.arenaRaw = raw
	t.arena = nb
}

// Insert adds one tuple. Not safe for concurrent use; the radix joins
// build one table per co-partition on a single thread.
//
//mmjoin:hotpath
func (t *ChainedTable) Insert(tp tuple.Tuple) {
	if len(t.arena) == cap(t.arena) {
		// At most one overflow bucket per insert; growing up front keeps
		// the chain-walk below relocation-free.
		t.ensureOverflowSpace(1)
	}
	b := &t.buckets[t.hash.Scalar(tp.Key)&t.mask]
	for {
		cnt := int(b.meta)
		if cnt < chainedBucketTuples {
			b.tuples[cnt] = tp
			b.meta = uint32(cnt + 1)
			t.n++
			return
		}
		if b.next == 0 {
			b.next = t.newOverflow()
		}
		b = &t.arena[b.next-1]
	}
}

// ReserveOverflow pre-allocates arena capacity for n overflow buckets.
func (t *ChainedTable) ReserveOverflow(n int) {
	if cap(t.arena) < n {
		t.reallocOverflow(n)
	}
}

// PrepareConcurrent readies the table for InsertConcurrent and
// BuildBatchConcurrent: concurrent overflow buckets are claimed from a
// pre-reserved, never-relocating region via the ovUsed cursor, because
// the per-head latches cannot protect a growing slice. The reservation
// is the worst case for the declared capacity — a chain holding k
// tuples needs ceil((k-2)/2) overflow buckets, so all chains together
// never exceed (n+1)/2+1 — making exhaustion impossible rather than
// merely unlikely. Builds that intentionally insert more than the
// declared capacity must ReserveOverflow((inserts+1)/2+1) first; the
// reservation extends to whatever capacity is present. Call it
// single-threaded, after New or Reset and before the parallel build
// phase; do not mix concurrent and single-threaded inserts within one
// build.
func (t *ChainedTable) PrepareConcurrent() {
	need := (t.capacity+1)/2 + 1
	t.ReserveOverflow(need)
	t.arena = t.arena[:cap(t.arena)]
	// Claimed slots must start zero; recycled capacity is stale.
	clear(t.arena)
	t.ovUsed.Store(0)
	t.concurrent = true
}

// newOverflowConcurrent claims one pre-zeroed overflow bucket from the
// PrepareConcurrent reservation.
//
//mmjoin:hotpath
func (t *ChainedTable) newOverflowConcurrent() int32 {
	idx := t.ovUsed.Add(1) - 1
	if int(idx) >= len(t.arena) {
		//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on driver misuse
		panic("hashtable: chained overflow reservation exhausted — call PrepareConcurrent before a concurrent build")
	}
	return idx + 1
}

// InsertConcurrent adds one tuple under the bucket latch, following the
// latched concurrent build of Blanas/Balkesen-style no-partitioning
// joins. Overflow buckets come from the PrepareConcurrent reservation;
// the latch's release/acquire on the head meta orders the chain's plain
// fields between writers.
//
//mmjoin:hotpath
func (t *ChainedTable) InsertConcurrent(tp tuple.Tuple) {
	head := &t.buckets[t.hash.Scalar(tp.Key)&t.mask]
	t.lock(head)
	b := head
	for {
		// Only the head's meta is contended (other builders CAS its
		// latch); overflow buckets are reached under the latch.
		var cnt int
		if b == head {
			cnt = int(atomic.LoadUint32(&b.meta) & chainedCountMask)
		} else {
			cnt = int(b.meta & chainedCountMask)
		}
		if cnt < chainedBucketTuples {
			b.tuples[cnt] = tp
			if b == head {
				atomic.StoreUint32(&b.meta, uint32(cnt+1)|chainedLatchBit)
			} else {
				b.meta = uint32(cnt + 1)
			}
			break
		}
		if b.next == 0 {
			b.next = t.newOverflowConcurrent()
		}
		b = &t.arena[b.next-1]
	}
	// Release: clear the latch bit. We are the only writer while the
	// latch is held, so a load+store pair is safe.
	atomic.StoreUint32(&head.meta, atomic.LoadUint32(&head.meta)&^uint32(chainedLatchBit))
}

func (t *ChainedTable) lock(b *chainedBucket) {
	for {
		old := atomic.LoadUint32(&b.meta)
		if old&chainedLatchBit == 0 && atomic.CompareAndSwapUint32(&b.meta, old, old|chainedLatchBit) {
			return
		}
	}
}

// FinishConcurrentBuild must be called after all InsertConcurrent calls
// completed; it fixes up the element count (which concurrent inserts do
// not maintain globally).
func (t *ChainedTable) FinishConcurrentBuild() {
	n := 0
	for i := range t.buckets {
		b := &t.buckets[i]
		for {
			n += int(b.meta & chainedCountMask)
			if b.next == 0 {
				break
			}
			b = &t.arena[b.next-1]
		}
	}
	t.n = n
}

// Lookup implements Table, marking the hit while tracking is on. meta
// is loaded atomically for the same reason as in LookupBatch.
//
//mmjoin:hotpath
func (t *ChainedTable) Lookup(k tuple.Key) (tuple.Payload, bool) {
	b := &t.buckets[t.hash.Scalar(k)&t.mask]
	for {
		cnt := int(atomic.LoadUint32(&b.meta) & chainedCountMask)
		for i := 0; i < cnt; i++ {
			if b.tuples[i].Key == k {
				if t.tracking {
					atomic.OrUint32(&b.meta, chainedMarkBit0<<uint(i))
				}
				return b.tuples[i].Payload, true
			}
		}
		if b.next == 0 {
			return 0, false
		}
		b = &t.arena[b.next-1]
	}
}

// Len implements Table.
func (t *ChainedTable) Len() int { return t.n }

// overflowUsed is the number of live overflow buckets under either
// build mode.
func (t *ChainedTable) overflowUsed() int {
	if t.concurrent {
		return int(t.ovUsed.Load())
	}
	return len(t.arena)
}

// SizeBytes implements Table.
func (t *ChainedTable) SizeBytes() int64 {
	const bucketBytes = 32
	return int64(len(t.buckets)+t.overflowUsed()) * bucketBytes
}
