package join

import (
	"mmjoin/internal/exec"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// Batch-at-a-time drivers: the glue between the join algorithms and the
// hashtable batch kernels. Each worker owns one batchState — a cursor
// over partition fragments, SoA staging buffers, the kernels' scratch
// arrays and the match output buffer — so the batched path allocates
// nothing per task or per morsel, exactly like the scalar path it
// replaces. Options.ScalarKernels switches back to the tuple-at-a-time
// loops (the ablbatch ablation).

// batchJoinTable is the slice of the batch-kernel API the radix-join
// driver needs. ChainedTable, LinearTable, RobinHoodTable, ArrayTable
// and SparseTable implement it; the dynamic dispatch costs one indirect
// call per 256-tuple batch, while the kernels behind it stay
// monomorphized per table kind.
type batchJoinTable interface {
	BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *hashtable.BatchScratch)
	ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *hashtable.BatchScratch, out *hashtable.MatchBatch)
}

// batchProbeTable is the probe-only subset (CHT has no BuildBatch — it
// only builds through its bulk-loading builder).
type batchProbeTable interface {
	ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *hashtable.BatchScratch, out *hashtable.MatchBatch)
}

// batchState is one worker's reusable batch plumbing. The zero value is
// ready; buffers are allocated on first use and live for the worker's
// lifetime.
type batchState struct {
	cursor  radix.BatchCursor
	scratch hashtable.BatchScratch
	out     hashtable.MatchBatch
	keys    []tuple.Key
	pays    []tuple.Payload
	// Lookup output arrays for the non-inner kind paths, which probe via
	// LookupBatch instead of ProbeJoinBatch (see kind.go). Nil until a
	// kind path first needs them.
	lookPays  []tuple.Payload
	lookFound []bool
}

// buffers returns the BatchSize-sized SoA staging arrays, allocating
// them on first use. It stays out of line so its one-time allocation
// never lands inside a caller's //mmjoin:noescape region.
//
//mmjoin:hotpath
//go:noinline
func (bs *batchState) buffers() ([]tuple.Key, []tuple.Payload) {
	if bs.keys == nil {
		bs.keys = make([]tuple.Key, hashtable.BatchSize)
	}
	if bs.pays == nil {
		bs.pays = make([]tuple.Payload, hashtable.BatchSize)
	}
	return bs.keys, bs.pays
}

// gatherShifted stages one contiguous tuple run into the SoA buffers,
// shifting keys right by shift (0 for the global-table joins, the radix
// bit count inside a partition). len(src) must not exceed the staging
// buffers' length.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func gatherShifted(keys []tuple.Key, payloads []tuple.Payload, src []tuple.Tuple, shift uint) {
	if len(keys) < len(src) || len(payloads) < len(src) {
		//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on driver misuse
		panic("join: staging buffers shorter than the gathered run")
	}
	keys = keys[:len(src)]
	payloads = payloads[:len(src)]
	for i := range src {
		keys[i] = src[i].Key >> shift
		payloads[i] = src[i].Payload
	}
}

// buildFrom streams the fragments through BuildBatch, charging the
// worker per batch so span attribution sees bytes as they move.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (bs *batchState) buildFrom(w *exec.Worker, ht batchJoinTable, frags []tuple.Relation, bits uint, op int64) {
	keys, pays := bs.buffers()
	bs.cursor.Reset(frags)
	for {
		// Next never returns more than len(keys); the extra comparisons
		// restate that for the prove pass.
		n := bs.cursor.Next(keys, pays, bits)
		if n <= 0 || n > len(keys) || n > len(pays) {
			return
		}
		ht.BuildBatch(keys[:n], pays[:n], &bs.scratch)
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// probeInto streams the fragments through the ProbeJoinBatch
// kernel and hands each compacted match buffer to the sink.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (bs *batchState) probeInto(w *exec.Worker, ht batchProbeTable, frags []tuple.Relation, bits uint, op int64, s *sink) {
	keys, pays := bs.buffers()
	bs.cursor.Reset(frags)
	for {
		// Next never returns more than len(keys); the extra comparisons
		// restate that for the prove pass.
		n := bs.cursor.Next(keys, pays, bits)
		if n <= 0 || n > len(keys) || n > len(pays) {
			return
		}
		ht.ProbeJoinBatch(keys[:n], pays[:n], &bs.scratch, &bs.out)
		if m := bs.out.N; m > 0 && m <= hashtable.BatchSize {
			s.emitBatch(bs.out.Build[:m], bs.out.Probe[:m])
		}
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// probeRun is probeInto for a single contiguous run (the morsel loops of
// the no-partitioning joins and the split probe ranges of the skew-aware
// schedule), bypassing the fragment cursor.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (bs *batchState) probeRun(w *exec.Worker, ht batchProbeTable, run []tuple.Tuple, shift uint, op int64, s *sink) {
	keys, pays := bs.buffers()
	for lo := 0; ; lo += hashtable.BatchSize {
		if uint(lo) >= uint(len(run)) {
			return
		}
		rest := run[lo:]
		n := hashtable.BatchSize
		if n > len(rest) {
			n = len(rest)
		}
		if n <= 0 || n > len(keys) {
			return
		}
		bk := keys[:n]
		if n > len(pays) {
			return
		}
		bp := pays[:n]
		gatherShifted(bk, bp, rest[:n], shift)
		ht.ProbeJoinBatch(bk, bp, &bs.scratch, &bs.out)
		if m := bs.out.N; m > 0 && m <= hashtable.BatchSize {
			s.emitBatch(bs.out.Build[:m], bs.out.Probe[:m])
		}
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// batchConcurrentBuildTable is the concurrent-build subset the
// no-partitioning joins use to fill one shared global table from all
// workers at once.
type batchConcurrentBuildTable interface {
	BuildBatchConcurrent(keys []tuple.Key, payloads []tuple.Payload, s *hashtable.BatchScratch)
	InsertConcurrent(tp tuple.Tuple)
}

// buildRunConcurrent streams one contiguous run into a concurrently
// built global table (the no-partitioning joins' build morsels, keys
// unshifted).
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (bs *batchState) buildRunConcurrent(w *exec.Worker, ht batchConcurrentBuildTable, run []tuple.Tuple, op int64) {
	keys, pays := bs.buffers()
	for lo := 0; ; lo += hashtable.BatchSize {
		if uint(lo) >= uint(len(run)) {
			return
		}
		rest := run[lo:]
		n := hashtable.BatchSize
		if n > len(rest) {
			n = len(rest)
		}
		if n <= 0 || n > len(keys) {
			return
		}
		bk := keys[:n]
		if n > len(pays) {
			return
		}
		bp := pays[:n]
		gatherShifted(bk, bp, rest[:n], 0)
		ht.BuildBatchConcurrent(bk, bp, &bs.scratch)
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// joinTaskBatch is the batched joinTask: build a per-co-partition table
// over the build fragments with BuildBatch, then probe with the
// kernel. Semantics match joinTask exactly (same shifted keys, same
// first-match lookup), only the loop structure differs.
//
//mmjoin:hotpath
//mmjoin:noescape
func (j *radixJoin) joinTaskBatch(w *exec.Worker, wk *workerState, s *sink, bits uint, buildFrags, probeFrags []tuple.Relation, buildLen, probeLen int, op int64) {
	if buildLen == 0 {
		// Scalar accounting charges the streamed probe side even when
		// there is nothing to build; keep the totals identical.
		w.AddBytes(int64(probeLen) * (tuple.Bytes + op))
		return
	}
	var ht batchJoinTable
	switch wk.kind {
	case chainedKind:
		ht = wk.chainedFor(buildLen)
	case linearKind:
		ht = wk.linearFor(buildLen)
	case arrayKind:
		wk.array.Reset()
		ht = wk.array
	}
	bs := &wk.batch
	bs.buildFrom(w, ht, buildFrags, bits, op)
	bs.probeInto(w, ht, probeFrags, bits, op, s)
}

// probeSharedBatch is the batched probeShared: one split probe range of
// an oversized partition against its prebuilt shared table.
//
//mmjoin:hotpath
//mmjoin:noescape
func (j *radixJoin) probeSharedBatch(w *exec.Worker, st *sharedTable, bs *batchState, s *sink, bits uint, probe []tuple.Tuple, op int64) {
	var ht batchProbeTable
	switch j.table {
	case chainedKind:
		ht = st.chained
	case linearKind:
		ht = st.linear
	case arrayKind:
		ht = st.array
	}
	bs.probeRun(w, ht, probe, bits, op, s)
}
