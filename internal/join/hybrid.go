package join

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/radix"
	"mmjoin/internal/spill"
	"mmjoin/internal/tuple"
)

// HYBRID is the memory-budgeted spilling hybrid hash join — the
// robustness path the paper's thirteen in-memory algorithms lack. It
// radix-partitions both inputs, keeps a greedy prefix of partitions
// whose build tables fit Options.MemoryBudget memory-resident, and
// spills the rest to checksummed temp files (internal/spill). Spilled
// co-partitions are read back one at a time and joined recursively:
// a partition whose build side fits the budget joins directly; one
// whose *probe* side fits instead joins with the roles reversed; an
// over-budget partition re-partitions on the next slice of key bits,
// and at the recursion floor a budget-respecting block nested-loop
// pass guarantees termination even when every tuple shares one key.
//
// The budget is a model, like the NUMA traffic accounting: one
// resident build tuple is charged hybridTupleFootprint bytes (the
// tuple plus its multimap head/next slots). See DESIGN.md §13.

func init() {
	registerAblation(Spec{
		Name:  "HYBRID",
		Class: Partition,
		Description: "Memory-budgeted hybrid hash join: over-budget radix partitions " +
			"spill to checksummed temp files, then recurse with dynamic partition bits, " +
			"build/probe role reversal and a block nested-loop floor",
		Paper: "Shapiro [grace/hybrid]; robustness trade-offs after PAPERS.md",
		New:   func() Algorithm { return &hybridJoin{} },
	})
}

const (
	// hybridTupleFootprint is the modeled resident cost of one build
	// tuple: the 8-byte tuple plus two 4-byte multimap slots (head share
	// + next link).
	hybridTupleFootprint = tuple.Bytes + 8
	// hybridDefaultMaxDepth bounds recursive re-partitioning before the
	// block nested-loop floor takes over (Options.MaxSpillDepth
	// overrides).
	hybridDefaultMaxDepth = 4
	// hybridMaxBits caps the level-0 partition fan-out.
	hybridMaxBits = 12
)

// hybridFootprint models the bytes needed to keep an n-tuple build
// side memory-resident.
func hybridFootprint(n int) int64 { return int64(n) * hybridTupleFootprint }

type hybridJoin struct{}

func (j *hybridJoin) Name() string        { return "HYBRID" }
func (j *hybridJoin) Class() Class        { return Partition }
func (j *hybridJoin) Description() string { return describe("HYBRID") }

func (j *hybridJoin) Run(build, probe tuple.Relation, opts *Options) (*Result, error) {
	//mmjoin:allow(ctxflow) Run is the documented context-free compatibility wrapper over RunContext
	return j.RunContext(context.Background(), build, probe, opts)
}

// hybridState carries the per-execution policy shared by all workers.
type hybridState struct {
	kind      Kind
	budget    int64
	maxDepth  int
	arena     *exec.Arena
	reversals atomic.Int64
}

func (j *hybridJoin) RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	res := &Result{
		Algorithm:   "HYBRID",
		Threads:     o.Threads,
		InputTuples: int64(len(build) + len(probe)),
	}
	pre := sink{materialize: o.Materialize}
	build, probe = splitKindInputs(&o, build, probe, &pre)
	pool := newPool(ctx, &o, res.Algorithm)
	arena := pool.Arena()

	st := &hybridState{kind: o.Kind, budget: o.MemoryBudget, maxDepth: o.MaxSpillDepth, arena: arena}
	if st.maxDepth <= 0 {
		st.maxDepth = hybridDefaultMaxDepth
	}
	bits := hybridBits(&o, len(build))
	res.Bits = bits

	start := time.Now()
	partR, err := radix.PartitionGlobalExec(pool, "partition(R)", build, bits, true)
	if err != nil {
		return nil, err
	}
	partS, err := radix.PartitionGlobalExec(pool, "partition(S)", probe, bits, true)
	if err != nil {
		partR.Release(arena)
		return nil, err
	}

	// Greedy resident set in partition order: partitions whose modeled
	// build tables fit the remaining budget stay in memory, the rest
	// spill both sides to disk. Budget 0 (unlimited) keeps everything —
	// HYBRID degenerates to a plain one-pass radix join.
	parts := partR.Parts()
	resident := make([]int, 0, parts)
	var spilled []int
	if st.budget > 0 && hybridFootprint(len(build)) > st.budget {
		remaining := st.budget
		for p := 0; p < parts; p++ {
			if f := hybridFootprint(partR.PartLen(p)); f <= remaining {
				resident = append(resident, p)
				remaining -= f
			} else {
				spilled = append(spilled, p)
			}
		}
	} else {
		for p := 0; p < parts; p++ {
			resident = append(resident, p)
		}
	}
	res.MaxTaskShare = maxTaskShare(parts, parts, partS.PartLen)

	var mgr *spill.Manager
	if len(spilled) > 0 {
		mgr = spill.NewManager(o.SpillDir, arena, o.SpillInjector)
	}
	released := false
	releaseParts := func() {
		if !released {
			partR.Release(arena)
			partS.Release(arena)
			released = true
		}
	}
	fail := func(err error) (*Result, error) {
		releaseParts()
		if mgr != nil {
			// Best effort: the primary error wins; leftover files and the
			// spill dir are removed regardless.
			_ = mgr.Cleanup()
		}
		return nil, err
	}

	var spillWritten atomic.Int64
	if len(spilled) > 0 {
		err := pool.RunQueueErr("spill(write)", exec.NewRange(len(spilled)), func(w *exec.Worker, i int) error {
			p := spilled[i]
			for _, side := range [2]struct {
				tag string
				rel tuple.Relation
			}{{"R", partR.Part(p)}, {"S", partS.Part(p)}} {
				wr, err := mgr.Create(spillName(p, side.tag))
				if err != nil {
					return err
				}
				werr := wr.Write(side.rel)
				if cerr := wr.Close(); werr == nil {
					werr = cerr
				}
				w.AddBytes(int64(len(side.rel))*tuple.Bytes + wr.Bytes())
				spillWritten.Add(wr.Bytes())
				if werr != nil {
					return werr
				}
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
		pool.Counter("spill.write.bytes", float64(spillWritten.Load()))
	}
	res.BuildOrPartition = time.Since(start)

	joinStart := time.Now()
	sinks := make([]sink, o.Threads)
	for i := range sinks {
		sinks[i].materialize = o.Materialize
	}
	hws := make([]hybridWorker, o.Threads)

	if err := pool.RunQueue("join(resident)", exec.NewRange(len(resident)), func(w *exec.Worker, i int) {
		p := resident[i]
		hws[w.ID].joinPart(w, st, partR.Part(p), partS.Part(p), bits, false, &sinks[w.ID])
	}); err != nil {
		return fail(err)
	}
	// The partition buffers are only needed by the resident joins and
	// the spill writers; the spilled co-partitions live on disk now.
	releaseParts()

	if len(spilled) > 0 {
		var spillRead atomic.Int64
		err := pool.RunQueueErr("join(spilled)", exec.NewRange(len(spilled)), func(w *exec.Worker, i int) error {
			p := spilled[i]
			r, rb, err := mgr.ReadAll(spillName(p, "R"))
			if err != nil {
				return err
			}
			s, sb, err := mgr.ReadAll(spillName(p, "S"))
			if err != nil {
				mgr.Release(r)
				return err
			}
			w.AddBytes(rb + sb)
			spillRead.Add(rb + sb)
			hws[w.ID].joinRec(w, st, r, s, bits, 1, &sinks[w.ID])
			mgr.Release(r)
			mgr.Release(s)
			if err := mgr.Remove(spillName(p, "R")); err != nil {
				return err
			}
			return mgr.Remove(spillName(p, "S"))
		})
		if err != nil {
			return fail(err)
		}
		pool.Counter("spill.read.bytes", float64(spillRead.Load()))
		if live := mgr.Live(); live != 0 {
			return fail(fmt.Errorf("join: HYBRID leaked %d spill files", live))
		}
		if err := mgr.Cleanup(); err != nil {
			return fail(err)
		}
	}
	res.ProbeOrJoin = time.Since(joinStart)
	res.Total = time.Since(start)

	mergeSinks(res, sinks)
	mergePre(res, &pre)
	res.SpilledPartitions = len(spilled)
	res.SpilledBytes = spillWritten.Load()
	res.Exec = pool.Stats()
	return res, nil
}

// spillName is the per-partition file naming scheme: zero-padded so
// directory listings sort in partition order.
func spillName(p int, side string) string { return fmt.Sprintf("p%05d.%s", p, side) }

// hybridBits picks the level-0 partition fan-out: the explicit setting
// wins; otherwise Equation (1) for a chained table, raised until an
// average partition fits the budget with 2x slack so the greedy
// resident set has work to keep.
func hybridBits(o *Options, buildLen int) uint {
	b := o.RadixBits
	if b == 0 {
		b = radix.PredictBits(buildLen, radix.LoadFactorFor("chained"), o.Threads, o.Geometry)
		if o.MemoryBudget > 0 {
			for b < hybridMaxBits && hybridFootprint(buildLen)>>b > o.MemoryBudget/2 {
				b++
			}
		}
	}
	if b < 1 {
		b = 1
	}
	if b > hybridMaxBits {
		b = hybridMaxBits
	}
	return b
}

// hybridSubBits sizes one recursion level's re-partitioning: enough
// bits that an average sub-partition fits the budget with 2x slack,
// clamped to the key bits still unconsumed above shift.
func hybridSubBits(buildLen int, budget int64, shift uint) uint {
	b := uint(1)
	for b < 8 && hybridFootprint(buildLen)>>b > budget/2 {
		b++
	}
	if left := 31 - shift; b > left {
		b = left
	}
	if b < 1 {
		b = 1
	}
	return b
}

// hybridWorker is one worker's reusable kernel scratch: the chained
// multimap arrays and the match-flag buffers grow to the largest
// partition the worker has joined.
type hybridWorker struct {
	heads []int32
	next  []int32
	bmark []bool // build-side match flags (outer padding)
	smark []bool // probe-side match flags (reversed/BNL outcome tracking)
}

// bmarks returns the build-side match flags cleared to length n,
// reusing the worker-lifetime buffer; smarks is its probe-side twin.
// The flag arrays were the last per-partition allocation in the hybrid
// kernels — perfgate's escape report on joinPart flushed them out. Both
// stay out of line so the growth allocation never lands inside a
// caller's //mmjoin:noescape region.
//
//go:noinline
func (hw *hybridWorker) bmarks(n int) []bool {
	if cap(hw.bmark) < n {
		hw.bmark = make([]bool, n)
	}
	m := hw.bmark[:n]
	clear(m)
	return m
}

//go:noinline
func (hw *hybridWorker) smarks(n int) []bool {
	if cap(hw.smark) < n {
		hw.smark = make([]bool, n)
	}
	m := hw.smark[:n]
	clear(m)
	return m
}

// multimap (re)initializes the chained multimap for n build tuples and
// returns (heads, next, mask). heads is sized to the next power of two
// ≥ n so chains stay short at ~1 expected entry. It stays out of line
// so its amortized growth allocations never land inside a caller's
// //mmjoin:noescape region.
//
//go:noinline
func (hw *hybridWorker) multimap(n int) ([]int32, []int32, uint32) {
	size := 16
	for size < n {
		size <<= 1
	}
	if cap(hw.heads) < size {
		hw.heads = make([]int32, size)
	}
	heads := hw.heads[:size]
	for i := range heads {
		heads[i] = -1
	}
	if cap(hw.next) < n {
		hw.next = make([]int32, n)
	}
	return heads, hw.next[:n], uint32(size - 1)
}

// hybridHash spreads a partition-shifted key over the multimap's
// buckets (Fibonacci multiply, folded so the masked low bits mix).
func hybridHash(k tuple.Key) uint32 {
	h := k * 2654435761
	return h ^ h>>16
}

// emitsPairs reports whether the kind materializes <build, probe> rows
// for matches (semi/anti only test existence).
func emitsPairs(k Kind) bool {
	return k == Inner || k == LeftOuter || k == RightOuter || k == FullOuter
}

// joinRec joins one co-partition whose keys agree on the low `shift`
// bits, recursing while the build side busts the budget:
//
//  1. fits (or unlimited) → direct multimap join;
//  2. probe side fits and is smaller → role-reversed multimap join;
//  3. recursion budget left → re-partition both sides on the next
//     slice of key bits and recurse per sub-partition;
//  4. floor → block nested-loop with budget-sized build blocks.
//
// The policy depends only on (budget, |r|, |s|, depth), so the same
// case takes the same path under every schedule and kernel flavor.
func (hw *hybridWorker) joinRec(w *exec.Worker, st *hybridState, r, s tuple.Relation, shift uint, depth int, snk *sink) {
	kind := st.kind
	if len(r) == 0 {
		if kind.padsProbe() {
			for _, tp := range s {
				snk.emit(tuple.NullPayload, tp.Payload)
			}
		}
		w.AddBytes(int64(len(s)) * tuple.Bytes)
		return
	}
	if len(s) == 0 {
		if kind.padsBuild() {
			for _, tp := range r {
				snk.emit(tp.Payload, tuple.NullPayload)
			}
		}
		w.AddBytes(int64(len(r)) * tuple.Bytes)
		return
	}
	if st.budget <= 0 || hybridFootprint(len(r)) <= st.budget {
		hw.joinPart(w, st, r, s, shift, false, snk)
		return
	}
	if hybridFootprint(len(s)) <= st.budget && len(s) < len(r) {
		st.reversals.Add(1)
		hw.joinPart(w, st, r, s, shift, true, snk)
		return
	}
	if depth >= st.maxDepth || shift >= 31 {
		hw.joinBNL(w, st, r, s, shift, snk)
		return
	}
	subBits := hybridSubBits(len(r), st.budget, shift)
	n := 1 << subBits
	rBuf, rFences := subPartition(st.arena, r, shift, subBits)
	sBuf, sFences := subPartition(st.arena, s, shift, subBits)
	w.AddBytes(3 * int64(len(r)+len(s)) * tuple.Bytes)
	for q := 0; q < n; q++ {
		hw.joinRec(w, st,
			rBuf[rFences[q]:rFences[q+1]],
			sBuf[sFences[q]:sFences[q+1]],
			shift+subBits, depth+1, snk)
	}
	st.arena.PutTuples(rBuf)
	st.arena.PutTuples(sBuf)
}

// subPartition scatters src into 1<<bits buckets keyed by the key bits
// [shift, shift+bits), preserving the original key values (the shift
// accumulates instead — no key rewriting anywhere in the hybrid path).
// The tuple buffer comes from the arena; the caller releases it after
// recursing.
func subPartition(a *exec.Arena, src tuple.Relation, shift, bits uint) (tuple.Relation, []int) {
	n := 1 << bits
	fences := make([]int, n+1)
	mask := tuple.Key(n - 1)
	for _, tp := range src {
		fences[(tp.Key>>shift)&mask+1]++
	}
	for q := 0; q < n; q++ {
		fences[q+1] += fences[q]
	}
	buf := a.Tuples(len(src))
	cursor := make([]int, n)
	copy(cursor, fences[:n])
	for _, tp := range src {
		q := (tp.Key >> shift) & mask
		buf[cursor[q]] = tp
		cursor[q]++
	}
	return buf, fences
}

// joinPart joins one co-partition with a chained multimap over the
// build side. Unlike the Table 2 kernels (first-match probes over
// unique build keys), the multimap walks every matching entry, so it
// stays correct when the roles are reversed and the built side (then
// the probe relation S) carries duplicate keys. reversed=true builds
// over s and streams r — the role reversal for spilled partitions
// whose probe side is the one that fits the budget.
//
// One scalar kernel serves both Options.ScalarKernels flavors: with
// the inputs on disk either way, batching lookups buys nothing here,
// and sharing the code keeps the oracle's batch-vs-scalar byte parity
// trivially exact.
//
// The multimap walks index through int32 chain links, whose bounds live
// in the multimap's construction, not anywhere the prove pass can see —
// so these kernels claim //mmjoin:noescape (nothing allocates per
// partition) but not //mmjoin:bce.
//
//mmjoin:hotpath
//mmjoin:noescape
func (hw *hybridWorker) joinPart(w *exec.Worker, st *hybridState, r, s tuple.Relation, shift uint, reversed bool, snk *sink) {
	if reversed {
		hw.joinPartReversed(w, st.kind, r, s, shift, snk)
		return
	}
	kind := st.kind
	heads, next, mask := hw.multimap(len(r))
	for i, tp := range r {
		h := hybridHash(tp.Key>>shift) & mask
		next[i] = heads[h]
		heads[h] = int32(i)
	}
	w.AddBytes(int64(len(r)) * hybridTupleFootprint)

	if !emitsPairs(kind) {
		// Semi/anti: existence tests only, first match ends the walk.
		for _, tp := range s {
			pk := tp.Key >> shift
			found := false
			for idx := heads[hybridHash(pk)&mask]; idx >= 0; idx = next[idx] {
				if r[idx].Key>>shift == pk {
					found = true
					break
				}
			}
			if found == (kind == LeftSemi) {
				snk.emit(tuple.NullPayload, tp.Payload)
			}
		}
		w.AddBytes(int64(len(s)) * hybridTupleFootprint)
		return
	}

	var rMatched []bool
	if kind.padsBuild() {
		rMatched = hw.bmarks(len(r))
	}
	for _, tp := range s {
		pk := tp.Key >> shift
		any := false
		for idx := heads[hybridHash(pk)&mask]; idx >= 0; idx = next[idx] {
			if r[idx].Key>>shift != pk {
				continue
			}
			any = true
			snk.emit(r[idx].Payload, tp.Payload)
			if rMatched != nil {
				rMatched[idx] = true
			}
		}
		if !any && kind.padsProbe() {
			snk.emit(tuple.NullPayload, tp.Payload)
		}
	}
	w.AddBytes(int64(len(s)) * hybridTupleFootprint)
	if rMatched != nil {
		for i, m := range rMatched {
			if !m {
				snk.emit(r[i].Payload, tuple.NullPayload)
			}
		}
		w.AddBytes(int64(len(r)) * tuple.Bytes)
	}
}

// joinPartReversed is joinPart with the multimap built over the probe
// relation s and the build relation r streamed against it. Matches
// still emit <r payload, s payload>; the per-s-tuple outcomes the kind
// needs (matched for semi, unmatched for outer/anti padding) are
// tracked in a bitmap and emitted in a post-pass, since one s entry
// can be hit by any number of streamed r tuples.
//
//mmjoin:hotpath
//mmjoin:noescape
func (hw *hybridWorker) joinPartReversed(w *exec.Worker, kind Kind, r, s tuple.Relation, shift uint, snk *sink) {
	heads, next, mask := hw.multimap(len(s))
	for i, tp := range s {
		h := hybridHash(tp.Key>>shift) & mask
		next[i] = heads[h]
		heads[h] = int32(i)
	}
	w.AddBytes(int64(len(s)) * hybridTupleFootprint)

	var sMatched []bool
	if kind != Inner && kind != RightOuter {
		sMatched = hw.smarks(len(s))
	}
	pairs := emitsPairs(kind)
	for _, tp := range r {
		pk := tp.Key >> shift
		any := false
		for idx := heads[hybridHash(pk)&mask]; idx >= 0; idx = next[idx] {
			if s[idx].Key>>shift != pk {
				continue
			}
			any = true
			if sMatched != nil {
				sMatched[idx] = true
			}
			if pairs {
				snk.emit(tp.Payload, s[idx].Payload)
			}
		}
		if !any && kind.padsBuild() {
			snk.emit(tp.Payload, tuple.NullPayload)
		}
	}
	w.AddBytes(int64(len(r)) * hybridTupleFootprint)

	switch kind {
	case LeftOuter, FullOuter, LeftAnti:
		for i, m := range sMatched {
			if !m {
				snk.emit(tuple.NullPayload, s[i].Payload)
			}
		}
		w.AddBytes(int64(len(s)) * tuple.Bytes)
	case LeftSemi:
		for i, m := range sMatched {
			if m {
				snk.emit(tuple.NullPayload, s[i].Payload)
			}
		}
		w.AddBytes(int64(len(s)) * tuple.Bytes)
	}
}

// joinBNL is the recursion floor: r is processed in build blocks of at
// most budget/hybridTupleFootprint tuples, each probed by the whole of
// s. Probe-side padding (outer/semi/anti) must see the outcome across
// *all* blocks, so per-s-tuple match flags accumulate over the block
// loop and pad in one final pass; build-side padding is per-block
// (each r tuple is built exactly once).
//
//mmjoin:hotpath
//mmjoin:noescape
func (hw *hybridWorker) joinBNL(w *exec.Worker, st *hybridState, r, s tuple.Relation, shift uint, snk *sink) {
	kind := st.kind
	block := int(st.budget / hybridTupleFootprint)
	if block < 1 {
		block = 1
	}
	var sMatched []bool
	if kind != Inner && kind != RightOuter {
		sMatched = hw.smarks(len(s))
	}
	pairs := emitsPairs(kind)
	for lo := 0; lo < len(r); lo += block {
		hi := min(lo+block, len(r))
		blk := r[lo:hi]
		heads, next, mask := hw.multimap(len(blk))
		for i, tp := range blk {
			h := hybridHash(tp.Key>>shift) & mask
			next[i] = heads[h]
			heads[h] = int32(i)
		}
		var bMatched []bool
		if kind.padsBuild() {
			bMatched = hw.bmarks(len(blk))
		}
		for si, tp := range s {
			pk := tp.Key >> shift
			any := false
			for idx := heads[hybridHash(pk)&mask]; idx >= 0; idx = next[idx] {
				if blk[idx].Key>>shift != pk {
					continue
				}
				any = true
				if bMatched != nil {
					bMatched[idx] = true
				}
				if pairs {
					snk.emit(blk[idx].Payload, tp.Payload)
				} else if bMatched == nil {
					// Semi/anti existence is settled for this block.
					break
				}
			}
			if any && sMatched != nil {
				sMatched[si] = true
			}
		}
		if bMatched != nil {
			for i, m := range bMatched {
				if !m {
					snk.emit(blk[i].Payload, tuple.NullPayload)
				}
			}
		}
		w.AddBytes(int64(len(blk)+len(s)) * hybridTupleFootprint)
	}
	switch kind {
	case LeftOuter, FullOuter, LeftAnti:
		for i, m := range sMatched {
			if !m {
				snk.emit(tuple.NullPayload, s[i].Payload)
			}
		}
	case LeftSemi:
		for i, m := range sMatched {
			if m {
				snk.emit(tuple.NullPayload, s[i].Payload)
			}
		}
	}
}
