package hashtable

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"mmjoin/internal/tuple"
)

// This file holds the batch-at-a-time kernels: for every table type a
// monomorphized BuildBatch and LookupBatch that process up to BatchSize
// tuples per call, plus ProbeJoinBatch, which is LookupBatch followed by
// the shared compactMatches (ArrayTable alone keeps a fused kernel: its
// lookup is one load, so the extra pass would be most of its cost).
// Hashes for the whole batch are computed up front by the table's
// hashfn.Hash.Batch (one specialized loop, no per-key call), and the probe
// kernels walk their buckets in an AMAC-style interleaved state machine
// (Kocberber et al., VLDB 2015): a gather pass issues one independent
// memory access per lane back-to-back, so an out-of-order core overlaps
// the cache misses of up to BatchSize probes instead of serializing them
// behind one pointer chase; subsequent rounds advance only the surviving
// lanes, compacted with indexed writes, never append.
//
// Bounds-check elimination discipline: every per-lane scratch buffer is
// re-sliced to the batch length n before the lane loops, table arrays
// are indexed through masks derived from their own lengths (all powers
// of two), and emit positions are masked with the constant BatchSize-1,
// so the hot loops compile free of bounds checks.
//
// All kernels are semantically equivalent to their scalar counterparts
// run tuple-at-a-time in batch order; LookupBatch and ProbeJoinBatch
// mirror Lookup's first-match semantics exactly, so a probe batch of n
// keys emits at most n matches. Like Lookup, LookupBatch also marks the
// entry it hits once EnableMatchTracking has been called (see mark.go),
// so each design has exactly one batch probe walk.

// BatchSize is the number of tuples processed per batch kernel call.
// 256 lanes keep every per-lane state array comfortably inside L1
// while exposing far more memory-level parallelism than the ~10
// outstanding misses a core can sustain.
const BatchSize = 256

// BatchScratch holds the per-lane state arrays shared by all batch
// kernels. One instance per worker is enough; kernels may clobber every
// buffer. The zero value is ready to use — buffers are allocated
// lazily on first touch so a worker that only ever probes one table
// kind pays only for the arrays that kind needs.
//
// The buffers are pointers to fixed [BatchSize] arrays, not slices:
// with the batch length proven ≤ BatchSize by checkBatch, every lane
// index below n is in bounds of the array by construction, so the
// kernels' scratch accesses compile without bounds checks. The
// accessors are //go:noinline so the one-time allocation (and its
// escape, which is the point of a reusable buffer) stays out of the
// kernels' //mmjoin:noescape regions.
type BatchScratch struct {
	hashes *[BatchSize]uint64
	slots  *[BatchSize]uint64
	lanes  *[BatchSize]int32
	biased *[BatchSize]uint32
	curk   *[BatchSize]uint32
	dists  *[BatchSize]uint8
	bptrs  *[BatchSize]*chainedBucket
	// Per-lane LookupBatch outputs that ProbeJoinBatch compacts.
	hitPays  *[BatchSize]tuple.Payload
	hitFound *[BatchSize]bool
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) hashesBuf() *[BatchSize]uint64 {
	if s.hashes == nil {
		s.hashes = new([BatchSize]uint64)
	}
	return s.hashes
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) slotBuf() *[BatchSize]uint64 {
	if s.slots == nil {
		s.slots = new([BatchSize]uint64)
	}
	return s.slots
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) laneBuf() *[BatchSize]int32 {
	if s.lanes == nil {
		s.lanes = new([BatchSize]int32)
	}
	return s.lanes
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) keyBuf() *[BatchSize]uint32 {
	if s.biased == nil {
		s.biased = new([BatchSize]uint32)
	}
	return s.biased
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) curkBuf() *[BatchSize]uint32 {
	if s.curk == nil {
		s.curk = new([BatchSize]uint32)
	}
	return s.curk
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) distBuf() *[BatchSize]uint8 {
	if s.dists == nil {
		s.dists = new([BatchSize]uint8)
	}
	return s.dists
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) bucketBuf() *[BatchSize]*chainedBucket {
	if s.bptrs == nil {
		s.bptrs = new([BatchSize]*chainedBucket)
	}
	return s.bptrs
}

//
//mmjoin:hotpath
//go:noinline
func (s *BatchScratch) hitBufs() (*[BatchSize]tuple.Payload, *[BatchSize]bool) {
	if s.hitPays == nil {
		s.hitPays = new([BatchSize]tuple.Payload)
	}
	if s.hitFound == nil {
		s.hitFound = new([BatchSize]bool)
	}
	return s.hitPays, s.hitFound
}

// MatchBatch receives the output of a ProbeJoinBatch call:
// parallel build/probe payload arrays with N valid entries. Because the
// probe kernels mirror Lookup's at-most-one-match semantics, N never
// exceeds the probe batch length, so fixed [BatchSize] arrays hold any
// batch — and emit positions masked with BatchSize-1 index them without
// bounds checks. The zero value is ready to use; both arrays are
// non-nil after any ProbeJoinBatch call.
type MatchBatch struct {
	N     int
	Build *[BatchSize]tuple.Payload
	Probe *[BatchSize]tuple.Payload
}

//
//mmjoin:hotpath
//go:noinline
func (m *MatchBatch) bufs() (*[BatchSize]tuple.Payload, *[BatchSize]tuple.Payload) {
	if m.Build == nil {
		m.Build = new([BatchSize]tuple.Payload)
	}
	if m.Probe == nil {
		m.Probe = new([BatchSize]tuple.Payload)
	}
	return m.Build, m.Probe
}

// checkBatch bounds a kernel's batch length; kernels accept at most
// BatchSize lanes because the scratch state arrays are sized for that.
// After it returns, the compiler's prove pass knows n ≤ BatchSize, so
// indexing a scratch array with any lane < n is check-free.
//
//mmjoin:hotpath
//mmjoin:inline
func checkBatch(n int) {
	if n > BatchSize {
		//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on kernel misuse
		panic("hashtable: batch kernels accept at most BatchSize tuples per call")
	}
}

// checkSpan panics when a buffer of length have cannot hold n lanes.
// Kernels run it on every caller-supplied slice before re-slicing to
// the batch length, which both reports misuse with a message instead of
// a raw index panic and lets the prove pass drop the re-slice check.
// The comparison is unsigned so a negative n fails too, which proves
// 0 <= n for lane counts that do not come from a len.
//
//mmjoin:hotpath
//mmjoin:inline
func checkSpan(have, n int) {
	if uint(have) < uint(n) {
		//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on kernel misuse
		panic("hashtable: batch buffer shorter than the key batch")
	}
}

// clearBatchOutputs resets the per-lane outputs of a LookupBatch call.
// The empty-table early exits must go through it: the output arrays are
// worker scratch reused across batches, and a lane left untouched would
// carry a stale found=true (and payload) from an earlier batch.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
//mmjoin:inline
func clearBatchOutputs(payloads []tuple.Payload, found []bool) {
	for i := range payloads {
		payloads[i] = 0
	}
	for i := range found {
		found[i] = false
	}
}

// compactMatches is the second half of ProbeJoinBatch: it packs the hit
// lanes of a LookupBatch result (build payloads and found flags for the
// first n lanes) with their probe payloads into out. Every lane is
// written at the cursor, which advances only on a hit, so the loop has
// no data-dependent branch to mispredict on miss-heavy probes.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func compactMatches(build *[BatchSize]tuple.Payload, found *[BatchSize]bool, probePayloads []tuple.Payload, n int, out *MatchBatch) {
	checkBatch(n)
	checkSpan(len(probePayloads), n)
	probePayloads = probePayloads[:n]
	bp, pp := out.bufs()
	m := 0
	for li := 0; li < n; li++ {
		bp[m&(BatchSize-1)] = build[li]
		pp[m&(BatchSize-1)] = probePayloads[li]
		m += b2i(found[li])
	}
	out.N = m
}

// b2i converts a flag to 0/1; the compiler lowers it to a zero-extending
// byte load, not a branch.
//
//mmjoin:inline
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// markSlots is the tracking pass of the linear and Robin Hood
// LookupBatch walks: a hit lane's slot cursor stops on the slot it hit,
// so marking after the walk keeps the walk free of tracking code. It
// stays out of line so its allowed mark-index check is not reported at
// the callers.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
//go:noinline
func markSlots(matched []uint64, found []bool, slots *[BatchSize]uint64, mask uint64) {
	for li, hit := range found {
		if hit {
			//mmjoin:allow(perfgate) setMark's inlined word index i>>6 divides the slot invariant through a shift prove cannot follow
			setMark(matched, int(slots[li&(BatchSize-1)]&mask))
		}
	}
}

// ---------------------------------------------------------------------
// ChainedTable
// ---------------------------------------------------------------------

// BuildBatch inserts keys[i]/payloads[i] for the whole batch
// (single-writer), equivalent to Insert called in batch order.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ChainedTable) BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	buckets := t.buckets
	if len(buckets) == 0 {
		return
	}
	// Worst case one overflow bucket per insert; growing up front keeps
	// the chain walks below relocation-free, so the bucket pointer held
	// in b stays valid across newOverflow calls.
	t.ensureOverflowSpace(n)
	mask := uint64(len(buckets) - 1)
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		b := &buckets[h[li]&mask]
		for {
			cnt := int(b.meta)
			if cnt < chainedBucketTuples {
				b.tuples[cnt&(chainedBucketTuples-1)] = tuple.Tuple{Key: keys[li], Payload: payloads[li]}
				b.meta = uint32(cnt + 1)
				break
			}
			if b.next == 0 {
				//mmjoin:allow(perfgate) newOverflow's reslice bound is guaranteed by ensureOverflowSpace(n) above; the check runs only on the rare overflow-allocation path
				b.next = t.newOverflow()
			}
			//mmjoin:allow(perfgate) next is a 1-based link into the overflow arena, in range by construction; prove cannot see the link invariant
			b = &t.arena[b.next-1]
		}
	}
	t.n += n
}

// BuildBatchConcurrent inserts the batch under per-bucket latches, the
// batched equivalent of InsertConcurrent. Overflow buckets are claimed
// from the PrepareConcurrent reservation, which must have been set up
// before the parallel build phase. As with the scalar path the global
// count is not maintained; call FinishConcurrentBuild after all
// builders complete.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ChainedTable) BuildBatchConcurrent(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	buckets := t.buckets
	if len(buckets) == 0 {
		return
	}
	mask := uint64(len(buckets) - 1)
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		head := &buckets[h[li]&mask]
		t.lock(head)
		b := head
		for {
			// The head's meta holds the latch other builders CAS on, so it
			// is only ever read atomically; overflow buckets are reached
			// only under the head latch and are read plainly.
			var cnt int
			if b == head {
				cnt = int(atomic.LoadUint32(&b.meta) & chainedCountMask)
			} else {
				cnt = int(b.meta & chainedCountMask)
			}
			if cnt < chainedBucketTuples {
				b.tuples[cnt&(chainedBucketTuples-1)] = tuple.Tuple{Key: keys[li], Payload: payloads[li]}
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
			//mmjoin:allow(perfgate) next is a 1-based link into the PrepareConcurrent reservation, in range by construction; prove cannot see the link invariant
			b = &t.arena[b.next-1]
		}
		atomic.StoreUint32(&head.meta, atomic.LoadUint32(&head.meta)&^uint32(chainedLatchBit))
	}
}

// LookupBatch looks up every key of the batch, writing payloads[i] and
// found[i]; equivalent to Lookup per key, marks included. Chains are
// walked one bucket per round across all still-active lanes, overlapping
// the dependent loads of different probes. meta is always loaded
// atomically: concurrent probers of a tracking table OR mark bits into
// it (a plain MOV on amd64 all the same).
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ChainedTable) LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	ptrs := s.bucketBuf()
	lanes := s.laneBuf()
	slots := s.slotBuf()
	checkSpan(len(payloads), n)
	checkSpan(len(found), n)
	payloads = payloads[:n]
	found = found[:n]
	buckets := t.buckets
	if len(buckets) == 0 {
		// The outputs must still be written: callers reuse the scratch
		// arrays across batches, so leaving them untouched would replay
		// a previous batch's hits as phantom matches.
		clearBatchOutputs(payloads, found)
		return
	}
	mask := uint64(len(buckets) - 1)
	arena := t.arena
	pfd := prefetchDist()
	// Gather pass: one independent head-bucket load per lane, issued
	// back-to-back so the out-of-order core keeps the maximum number of
	// cache misses in flight, preceded by an explicit prefetch hint
	// pfd lanes ahead to extend that overlap beyond the core's
	// out-of-order window. The loaded meta word both warms the bucket
	// line for round 0 and feeds it the in-bucket count.
	for li := 0; li < n; li++ {
		if p := li + pfd; pfd > 0 && p < n {
			pf(unsafe.Pointer(&buckets[h[p&(BatchSize-1)]&mask]))
		}
		b := &buckets[h[li]&mask]
		ptrs[li] = b
		slots[li] = uint64(atomic.LoadUint32(&b.meta))
	}
	// Round 0 runs on warm lines with the pre-loaded meta. A surviving
	// lane's next overflow bucket is prefetched the moment its link is
	// read, so the following round runs on warm lines too.
	nn := 0
	for li := 0; li < n; li++ {
		b := ptrs[li]
		cnt := int(uint32(slots[li]) & chainedCountMask)
		payloads[li] = 0
		found[li] = false
		hit := false
		for i := 0; i < cnt; i++ {
			if b.tuples[i&(chainedBucketTuples-1)].Key == keys[li] {
				payloads[li] = b.tuples[i&(chainedBucketTuples-1)].Payload
				found[li] = true
				hit = true
				break
			}
		}
		if nx := b.next; !hit && nx != 0 {
			//mmjoin:allow(perfgate) nx is a 1-based link into the overflow arena, in range by construction; prove cannot see the link invariant
			nb := &arena[nx-1]
			if pfd > 0 {
				pf(unsafe.Pointer(nb))
			}
			ptrs[li] = nb
			lanes[nn&(BatchSize-1)] = int32(li)
			nn++
		}
	}
	// Remaining rounds walk the overflow chains of the surviving lanes.
	// The compaction machine only ever stores lane numbers below n, but
	// the prove pass cannot carry that invariant through the buffer, so
	// each round restates it: the mask keeps the scratch reads in
	// bounds, and the never-taken re-bound branch re-establishes li < n
	// for every access after it.
	for nn > 0 {
		na := 0
		for a := 0; a < nn; a++ {
			li := int(lanes[a&(BatchSize-1)])
			if uint(li) >= uint(n) {
				continue
			}
			b := ptrs[li]
			cnt := int(atomic.LoadUint32(&b.meta) & chainedCountMask)
			hit := false
			for i := 0; i < cnt; i++ {
				if b.tuples[i&(chainedBucketTuples-1)].Key == keys[li] {
					payloads[li] = b.tuples[i&(chainedBucketTuples-1)].Payload
					found[li] = true
					hit = true
					break
				}
			}
			if nx := b.next; !hit && nx != 0 {
				//mmjoin:allow(perfgate) nx is a 1-based link into the overflow arena, in range by construction; prove cannot see the link invariant
				nb := &arena[nx-1]
				if pfd > 0 {
					pf(unsafe.Pointer(nb))
				}
				ptrs[li] = nb
				lanes[na&(BatchSize-1)] = int32(li)
				na++
			}
		}
		nn = na
	}
	// A hit lane's bucket pointer stops on the bucket it hit, so
	// tracking marks in a pass of its own, outside the walk.
	if t.tracking {
		for li := 0; li < n; li++ {
			if !found[li] {
				continue
			}
			b := ptrs[li]
			cnt := int(atomic.LoadUint32(&b.meta) & chainedCountMask)
			for i := 0; i < cnt; i++ {
				if b.tuples[i&(chainedBucketTuples-1)].Key == keys[li] {
					atomic.OrUint32(&b.meta, chainedMarkBit0<<uint(i))
					break
				}
			}
		}
	}
}

// ProbeJoinBatch is LookupBatch plus compactMatches: the matches of
// the batch land in out, which it resets.
//
//mmjoin:hotpath
//mmjoin:noescape
func (t *ChainedTable) ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *BatchScratch, out *MatchBatch) {
	pays, found := s.hitBufs()
	t.LookupBatch(keys, s, pays[:], found[:])
	compactMatches(pays, found, probePayloads, len(keys), out)
}

// ---------------------------------------------------------------------
// LinearTable
// ---------------------------------------------------------------------

// BuildBatch inserts the batch without synchronization, equivalent to
// Insert called in batch order.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *LinearTable) BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	tk := t.keys
	if len(tk) == 0 {
		return
	}
	checkSpan(len(t.payloads), len(tk))
	tp := t.payloads[:len(tk)]
	mask := uint64(len(tk) - 1)
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		biased := uint32(keys[li]) + 1
		i := h[li] & mask
		ok := false
		for probes := uint64(0); probes <= mask; probes++ {
			if tk[i&mask] == 0 {
				tk[i&mask] = biased
				tp[i&mask] = payloads[li]
				ok = true
				break
			}
			i = (i + 1) & mask
		}
		if !ok {
			//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes when the table is misused
			panic("hashtable: LinearTable full — size it for the build side before inserting")
		}
	}
	t.n += int64(n)
}

// BuildBatchConcurrent inserts the batch with the CAS protocol of
// InsertConcurrent; the element count is updated once per batch instead
// of once per tuple.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *LinearTable) BuildBatchConcurrent(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	tk := t.keys
	if len(tk) == 0 {
		return
	}
	checkSpan(len(t.payloads), len(tk))
	tp := t.payloads[:len(tk)]
	mask := uint64(len(tk) - 1)
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		biased := uint32(keys[li]) + 1
		i := h[li] & mask
		ok := false
		for probes := uint64(0); probes <= mask; probes++ {
			if atomic.LoadUint32(&tk[i&mask]) == 0 &&
				atomic.CompareAndSwapUint32(&tk[i&mask], 0, biased) {
				tp[i&mask] = payloads[li]
				ok = true
				break
			}
			i = (i + 1) & mask
		}
		if !ok {
			//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes when the table is misused
			panic("hashtable: LinearTable full — size it for the build side before inserting")
		}
	}
	atomic.AddInt64(&t.n, int64(n))
}

// LookupBatch looks up every key of the batch; equivalent to Lookup per
// key, marks included. All active lanes advance one probe per round, so
// the slot loads of up to BatchSize independent probe sequences are in
// flight at once.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *LinearTable) LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	slots := s.slotBuf()
	biased := s.keyBuf()
	lanes := s.laneBuf()
	curk := s.curkBuf()
	checkSpan(len(payloads), n)
	checkSpan(len(found), n)
	payloads = payloads[:n]
	found = found[:n]
	tk := t.keys
	if len(tk) == 0 {
		clearBatchOutputs(payloads, found)
		return
	}
	checkSpan(len(t.payloads), len(tk))
	tp := t.payloads[:len(tk)]
	mask := uint64(len(tk) - 1)
	pfd := prefetchDist()
	// Gather pass: load every lane's home slot key — one independent
	// cache miss per lane, issued back-to-back so the out-of-order core
	// keeps the maximum number of misses in flight, preceded by an
	// explicit prefetch hint pfd lanes ahead to extend that overlap
	// beyond the core's out-of-order window.
	for li := 0; li < n; li++ {
		if p := li + pfd; pfd > 0 && p < n {
			pf(unsafe.Pointer(&tk[h[p&(BatchSize-1)]&mask]))
		}
		i := h[li] & mask
		slots[li] = i
		curk[li] = tk[i&mask]
	}
	// Round 0 resolves from the gathered keys; the payload loads of the
	// hit lanes are themselves independent and overlap across lanes.
	nn := 0
	for li := 0; li < n; li++ {
		cur := curk[li]
		bk := uint32(keys[li]) + 1
		payloads[li] = 0
		found[li] = false
		if cur == bk {
			payloads[li] = tp[slots[li]&mask]
			found[li] = true
			continue
		}
		if cur == 0 {
			continue
		}
		slots[li] = (slots[li] + 1) & mask
		biased[li] = bk
		lanes[nn&(BatchSize-1)] = int32(li)
		nn++
	}
	// Remaining rounds advance the surviving probe sequences in
	// lockstep; see ChainedTable.LookupBatch for the lane re-bound.
	for round := uint64(0); nn > 0 && round < mask; round++ {
		na := 0
		for a := 0; a < nn; a++ {
			li := int(lanes[a&(BatchSize-1)])
			if uint(li) >= uint(n) {
				continue
			}
			i := slots[li] & mask
			cur := tk[i&mask]
			if cur == biased[li] {
				payloads[li] = tp[i&mask]
				found[li] = true
				continue
			}
			if cur == 0 {
				continue
			}
			slots[li] = (i + 1) & mask
			lanes[na&(BatchSize-1)] = int32(li)
			na++
		}
		nn = na
	}
	if len(t.matched) != 0 {
		markSlots(t.matched, found, slots, mask)
	}
}

// ProbeJoinBatch is LookupBatch plus compactMatches: the matches of
// the batch land in out, which it resets.
//
//mmjoin:hotpath
//mmjoin:noescape
func (t *LinearTable) ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *BatchScratch, out *MatchBatch) {
	pays, found := s.hitBufs()
	t.LookupBatch(keys, s, pays[:], found[:])
	compactMatches(pays, found, probePayloads, len(keys), out)
}

// ---------------------------------------------------------------------
// RobinHoodTable
// ---------------------------------------------------------------------

// BuildBatch inserts the batch (single-writer), equivalent to Insert in
// batch order. Only the initial slot benefits from the batched hash:
// the displacement swaps are inherently sequential per lane.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *RobinHoodTable) BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	tk := t.keys
	if len(tk) == 0 {
		return
	}
	checkSpan(len(t.payloads), len(tk))
	checkSpan(len(t.dist), len(tk))
	tp := t.payloads[:len(tk)]
	td := t.dist[:len(tk)]
	mask := uint64(len(tk) - 1)
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		key := uint32(keys[li]) + 1
		payload := payloads[li]
		i := h[li] & mask
		var d uint8
		ok := false
		for probes := uint64(0); probes <= mask; probes++ {
			if tk[i&mask] == 0 {
				tk[i&mask] = key
				tp[i&mask] = payload
				td[i&mask] = d
				t.n++
				ok = true
				break
			}
			if td[i&mask] < d {
				tk[i&mask], key = key, tk[i&mask]
				tp[i&mask], payload = payload, tp[i&mask]
				td[i&mask], d = d, td[i&mask]
			}
			i = (i + 1) & mask
			if d < 255 {
				d++
			}
		}
		if !ok {
			//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes when the table is misused
			panic("hashtable: RobinHoodTable full")
		}
	}
}

// LookupBatch looks up every key of the batch; equivalent to Lookup per
// key, including the Robin Hood distance early-exit and the marks.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *RobinHoodTable) LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	slots := s.slotBuf()
	biased := s.keyBuf()
	dists := s.distBuf()
	lanes := s.laneBuf()
	curk := s.curkBuf()
	checkSpan(len(payloads), n)
	checkSpan(len(found), n)
	payloads = payloads[:n]
	found = found[:n]
	tk := t.keys
	if len(tk) == 0 {
		clearBatchOutputs(payloads, found)
		return
	}
	checkSpan(len(t.payloads), len(tk))
	checkSpan(len(t.dist), len(tk))
	tp := t.payloads[:len(tk)]
	td := t.dist[:len(tk)]
	mask := uint64(len(tk) - 1)
	pfd := prefetchDist()
	// Gather pass, as in LinearTable.LookupBatch (including the
	// pfd-ahead prefetch).
	for li := 0; li < n; li++ {
		if p := li + pfd; pfd > 0 && p < n {
			pf(unsafe.Pointer(&tk[h[p&(BatchSize-1)]&mask]))
		}
		i := h[li] & mask
		slots[li] = i
		curk[li] = tk[i&mask]
	}
	nn := 0
	for li := 0; li < n; li++ {
		cur := curk[li]
		bk := uint32(keys[li]) + 1
		payloads[li] = 0
		found[li] = false
		if cur == bk {
			payloads[li] = tp[slots[li]&mask]
			found[li] = true
			continue
		}
		if cur == 0 {
			continue
		}
		// Distance 0 probes never early-exit (dist is unsigned), so a
		// non-empty, non-matching home slot always advances.
		slots[li] = (slots[li] + 1) & mask
		biased[li] = bk
		dists[li] = 1
		lanes[nn&(BatchSize-1)] = int32(li)
		nn++
	}
	for round := uint64(0); nn > 0 && round < mask; round++ {
		na := 0
		for a := 0; a < nn; a++ {
			li := int(lanes[a&(BatchSize-1)])
			if uint(li) >= uint(n) {
				continue
			}
			i := slots[li] & mask
			cur := tk[i&mask]
			if cur == 0 {
				continue
			}
			if cur == biased[li] {
				payloads[li] = tp[i&mask]
				found[li] = true
				continue
			}
			d := dists[li]
			if td[i&mask] < d {
				continue
			}
			slots[li] = (i + 1) & mask
			if d < 255 {
				dists[li] = d + 1
			}
			lanes[na&(BatchSize-1)] = int32(li)
			na++
		}
		nn = na
	}
	if len(t.matched) != 0 {
		markSlots(t.matched, found, slots, mask)
	}
}

// ProbeJoinBatch is LookupBatch plus compactMatches: the matches of
// the batch land in out, which it resets.
//
//mmjoin:hotpath
//mmjoin:noescape
func (t *RobinHoodTable) ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *BatchScratch, out *MatchBatch) {
	pays, found := s.hitBufs()
	t.LookupBatch(keys, s, pays[:], found[:])
	compactMatches(pays, found, probePayloads, len(keys), out)
}

// ---------------------------------------------------------------------
// ArrayTable
// ---------------------------------------------------------------------

// BuildBatch stores the batch (single-writer per bitmap word),
// equivalent to Insert in batch order. No hashing is involved.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ArrayTable) BuildBatch(keys []tuple.Key, payloads []tuple.Payload, _ *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	pl := t.payloads
	pres := t.present
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		i := int(keys[li] - t.base)
		if uint(i) >= uint(len(pl)) {
			//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on a domain violation
			panic("hashtable: key outside the array domain")
		}
		pl[i] = payloads[li]
		//mmjoin:allow(perfgate) present is sized ⌈len(payloads)/64⌉ at construction, so i>>6 is in range whenever i is; prove cannot divide that invariant through the shift
		pres[i>>6] |= 1 << uint(i&63)
	}
	t.n += n
}

// BuildBatchConcurrent stores the batch with atomic bitmap updates,
// equivalent to InsertConcurrent in batch order; call
// FinishConcurrentBuild afterwards.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ArrayTable) BuildBatchConcurrent(keys []tuple.Key, payloads []tuple.Payload, _ *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	pl := t.payloads
	pres := t.present
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		i := int(keys[li] - t.base)
		//mmjoin:allow(perfgate) this bounds check is the only domain validation on the concurrent path, exactly like the scalar InsertConcurrent — eliminating it would change semantics
		pl[i] = payloads[li]
		//mmjoin:allow(perfgate) same as above: the implicit check on the bitmap word is the concurrent path's domain validation
		atomic.OrUint64(&pres[i>>6], 1<<uint(i&63))
	}
}

// LookupBatch looks up every key of the batch; equivalent to Lookup per
// key, marks included. The array table has no probe sequences, so a
// single pass suffices; the bitmap and payload loads of all lanes still
// overlap.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ArrayTable) LookupBatch(keys []tuple.Key, _ *BatchScratch, payloads []tuple.Payload, found []bool) {
	n := len(keys)
	checkBatch(n)
	pl := t.payloads
	pres := t.present
	matched := t.matched
	checkSpan(len(payloads), n)
	checkSpan(len(found), n)
	payloads = payloads[:n]
	found = found[:n]
	for li := 0; li < n; li++ {
		i := int(keys[li] - t.base)
		//mmjoin:allow(perfgate) present is sized ⌈len(payloads)/64⌉ at construction, so after the short-circuit domain test i>>6 is in range; prove cannot divide that invariant through the shift
		if uint(i) >= uint(len(pl)) || pres[i>>6]&(1<<uint(i&63)) == 0 {
			payloads[li] = 0
			found[li] = false
			continue
		}
		payloads[li] = pl[i]
		found[li] = true
		//mmjoin:allow(perfgate) setMark's inlined word index i>>6 divides the domain guard through a shift prove cannot follow
		setMark(matched, i)
	}
}

// ProbeJoinBatch fuses LookupBatch with match emission into out. It
// never marks: the join layer runs it for inner joins only.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *ArrayTable) ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, _ *BatchScratch, out *MatchBatch) {
	n := len(keys)
	checkBatch(n)
	bp, pp := out.bufs()
	pl := t.payloads
	pres := t.present
	checkSpan(len(probePayloads), n)
	probePayloads = probePayloads[:n]
	m := 0
	for li := 0; li < n; li++ {
		i := int(keys[li] - t.base)
		//mmjoin:allow(perfgate) present is sized ⌈len(payloads)/64⌉ at construction, so after the short-circuit domain test i>>6 is in range; prove cannot divide that invariant through the shift
		if uint(i) >= uint(len(pl)) || pres[i>>6]&(1<<uint(i&63)) == 0 {
			continue
		}
		bp[m&(BatchSize-1)] = pl[i]
		pp[m&(BatchSize-1)] = probePayloads[li]
		m++
	}
	out.N = m
}

// ---------------------------------------------------------------------
// CHT
// ---------------------------------------------------------------------
//
// The CHT is bulk-loaded through CHTBuilder (placement needs every
// claim of a region before any rank is known), so there is no
// BuildBatch; only the probe side is batched.

// LookupBatch looks up every key of the batch; equivalent to Lookup per
// key, marks included, and including the overflow-table fallback, which
// is resolved with scalar map lookups for the lanes that missed the
// bitmap.
//
// Round 0 is split in two passes so that neither of a probe's two
// dependent misses waits on another lane: the first loads every lane's
// home group and ranks its home bucket, the second compares the keys at
// the ranked array slots. On tables too large for the caches the first
// pass also prefetches the group pfd lanes ahead and each rank's array
// line as soon as it is known. Only lanes whose home bucket holds
// another key walk on, in the displacement rounds.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *CHT) LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	slots := s.slotBuf()
	lanes := s.laneBuf()
	ranks := s.curkBuf() // each lane's home rank (popcount ranks are uint32)
	checkSpan(len(payloads), n)
	checkSpan(len(found), n)
	payloads = payloads[:n]
	found = found[:n]
	groups := t.groups
	if len(groups) == 0 {
		clearBatchOutputs(payloads, found)
		return
	}
	array := t.array
	mask, spread := t.mask, t.spread
	gmask := uint64(len(groups) - 1)
	bucketCount := mask + 1
	pfd := t.pfDist()
	// Round 0, pass 1: rank every lane's home bucket; lanes whose home
	// is empty are misses.
	nc := 0
	for li := 0; li < n; li++ {
		if p := li + pfd; pfd > 0 && p < n {
			pf(unsafe.Pointer(&groups[(((h[p&(BatchSize-1)]<<spread)&mask)>>5)&gmask]))
		}
		pos := (h[li] << spread) & mask
		h[li] = pos
		slots[li] = pos
		payloads[li] = 0
		found[li] = false
		g := groups[(pos>>5)&gmask]
		off := uint(pos & 31)
		if g.bits&(1<<off) == 0 {
			continue
		}
		r := g.prefix + uint32(bits.OnesCount32(g.bits&((1<<off)-1)))
		if pfd > 0 && uint(r) < uint(len(array)) {
			pf(unsafe.Pointer(&array[r]))
		}
		ranks[li] = r
		lanes[nc&(BatchSize-1)] = int32(li)
		nc++
	}
	// Round 0, pass 2: compare the keys at the home ranks.
	nn := 0
	for a := 0; a < nc; a++ {
		li := int(lanes[a&(BatchSize-1)])
		if uint(li) >= uint(n) {
			continue
		}
		if r := int(ranks[li]); r < len(array) {
			if e := array[r]; e.Key == keys[li] {
				payloads[li] = e.Payload
				found[li] = true
				continue
			}
		}
		slots[li]++
		lanes[nn&(BatchSize-1)] = int32(li)
		nn++
	}
	// Displacement rounds: the surviving lanes walk on bucket by bucket.
	for nn > 0 {
		na := 0
		for a := 0; a < nn; a++ {
			li := int(lanes[a&(BatchSize-1)])
			if uint(li) >= uint(n) {
				continue
			}
			pos := slots[li]
			if pos >= bucketCount || pos-h[li] >= chtMaxDisplacement {
				continue
			}
			g := groups[(pos>>5)&gmask]
			off := uint(pos & 31)
			if g.bits&(1<<off) == 0 {
				continue
			}
			if r := uint(g.prefix) + uint(bits.OnesCount32(g.bits&((1<<off)-1))); r < uint(len(array)) {
				if e := array[r]; e.Key == keys[li] {
					payloads[li] = e.Payload
					found[li] = true
					continue
				}
			}
			slots[li] = pos + 1
			lanes[na&(BatchSize-1)] = int32(li)
			na++
		}
		nn = na
	}
	// Until the overflow pass below, found lanes are exactly the array
	// hits, and a hit lane's cursor stops on its bucket; see markSlots.
	if len(t.matched) != 0 {
		for li := 0; li < n; li++ {
			if found[li] {
				pos := slots[li]
				g := groups[(pos>>5)&gmask]
				off := uint(pos & 31)
				//mmjoin:allow(perfgate) setMark's inlined word index idx>>6 carries the popcount-rank invariant prove cannot see
				setMark(t.matched, int(g.prefix)+bits.OnesCount32(g.bits&((1<<off)-1)))
			}
		}
	}
	if len(t.overflow) > 0 {
		for li := 0; li < n; li++ {
			if found[li] {
				continue
			}
			if ps := t.overflow[keys[li]]; len(ps) > 0 {
				payloads[li] = ps[0]
				found[li] = true
				//mmjoin:allow(perfgate) markOverflow inlines setMark; the ovIdx map lookup bounds the mark index, not anything prove models
				t.markOverflow(keys[li])
			}
		}
	}
}

// ProbeJoinBatch is LookupBatch plus compactMatches: the matches of
// the batch land in out, which it resets.
//
//mmjoin:hotpath
//mmjoin:noescape
func (t *CHT) ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *BatchScratch, out *MatchBatch) {
	pays, found := s.hitBufs()
	t.LookupBatch(keys, s, pays[:], found[:])
	compactMatches(pays, found, probePayloads, len(keys), out)
}

// ---------------------------------------------------------------------
// SparseTable
// ---------------------------------------------------------------------

// BuildBatch inserts the batch (single-writer), equivalent to Insert in
// batch order. The per-group dense-slice shifting stays scalar; only
// the hash computation is batched.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *SparseTable) BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *BatchScratch) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	checkSpan(len(payloads), n)
	payloads = payloads[:n]
	for li := 0; li < n; li++ {
		pos := (h[li] * sparseBucketsPerTuple) & t.mask
		ok := false
		for probes := uint64(0); probes <= t.mask; probes++ {
			//mmjoin:allow(perfgate) the group index pos>>5 is bounded by mask/32, an invariant of the table's sizing that prove cannot divide through the shift
			g := &t.groups[pos>>5]
			off := uint(pos & 31)
			if g.bits&(1<<off) == 0 {
				idx := g.denseIndex(off)
				//mmjoin:allow(hotalloc,perfgate) growth path of the dense group slice: the amortized append and shift are the cold insert, not the probe loop
				g.dense = append(g.dense, tuple.Tuple{})
				//mmjoin:allow(perfgate) idx is the select rank of the bit within the group, in range by construction; prove cannot see the rank invariant
				copy(g.dense[idx+1:], g.dense[idx:])
				//mmjoin:allow(perfgate) same rank-derived index as the line above
				g.dense[idx] = tuple.Tuple{Key: keys[li], Payload: payloads[li]}
				g.bits |= 1 << off
				t.n++
				ok = true
				break
			}
			pos = (pos + 1) & t.mask
		}
		if !ok {
			//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes when the table is misused
			panic("hashtable: SparseTable full")
		}
	}
}

// LookupBatch looks up every key of the batch; equivalent to Lookup per
// key, marks included.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (t *SparseTable) LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool) {
	n := len(keys)
	checkBatch(n)
	h := s.hashesBuf()
	t.hash.Batch(h[:n], keys)
	slots := s.slotBuf()
	lanes := s.laneBuf()
	checkSpan(len(payloads), n)
	checkSpan(len(found), n)
	payloads = payloads[:n]
	found = found[:n]
	groups := t.groups
	if len(groups) == 0 {
		clearBatchOutputs(payloads, found)
		return
	}
	mask := t.mask
	for li := 0; li < n; li++ {
		slots[li] = (h[li] * sparseBucketsPerTuple) & mask
		lanes[li] = int32(li)
		payloads[li] = 0
		found[li] = false
	}
	nn := n
	for round := uint64(0); nn > 0 && round <= mask; round++ {
		na := 0
		for a := 0; a < nn; a++ {
			li := int(lanes[a&(BatchSize-1)])
			if uint(li) >= uint(n) {
				continue
			}
			pos := slots[li]
			g := &groups[(pos>>5)&uint64(len(groups)-1)]
			off := uint(pos & 31)
			if g.bits&(1<<off) == 0 {
				continue
			}
			//mmjoin:allow(perfgate) the dense index is the select rank of the bit within the group, in range by construction; prove cannot see the rank invariant
			if e := g.dense[g.denseIndex(off)]; e.Key == keys[li] {
				payloads[li] = e.Payload
				found[li] = true
				continue
			}
			slots[li] = (pos + 1) & mask
			lanes[na&(BatchSize-1)] = int32(li)
			na++
		}
		nn = na
	}
	// A hit lane's cursor stops on the bucket it hit; see markSlots.
	if len(t.matched) != 0 {
		for li := 0; li < n; li++ {
			if found[li] {
				pos := slots[li]
				gi := (pos >> 5) & uint64(len(groups)-1)
				//mmjoin:allow(perfgate) len(t.bases) == len(groups) by construction; prove cannot relate the two lengths through gi
				setMark(t.matched, int(t.bases[gi])+groups[gi].denseIndex(uint(pos&31)))
			}
		}
	}
}

// ProbeJoinBatch is LookupBatch plus compactMatches: the matches of
// the batch land in out, which it resets.
//
//mmjoin:hotpath
//mmjoin:noescape
func (t *SparseTable) ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *BatchScratch, out *MatchBatch) {
	pays, found := s.hitBufs()
	t.LookupBatch(keys, s, pays[:], found[:])
	compactMatches(pays, found, probePayloads, len(keys), out)
}
