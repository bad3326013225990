package join

import (
	"mmjoin/internal/exec"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// The pipeline's two halves, shared by the radix and no-partitioning
// joins (HYBRID keeps its own n:m multimap). build loads fragments into
// a single-writer table: a co-partition's, or a split partition's
// prebuilt one. probe probes fragments against any table: a
// co-partition, one split probe range, or one morsel of a
// no-partitioning join. Both take a fragment list and a key shift and
// check the kernel flavor once: the batch kernels by default, or under
// Options.ScalarKernels the tuple-at-a-time loops (the ablbatch
// ablation, and the oracle's reference flavor). Each worker owns one
// batchState — a cursor over the fragments, SoA staging buffers, the
// kernels' scratch arrays and the match output buffer — so the halves
// allocate nothing per task or per morsel, and the batch kernels cost
// one indirect call per 256-tuple batch.

// batchState is one worker's reusable batch plumbing. The zero value is
// ready; buffers are allocated on first use and live for the worker's
// lifetime.
type batchState struct {
	cursor  radix.BatchCursor
	scratch hashtable.BatchScratch
	out     hashtable.MatchBatch
	keys    []tuple.Key
	pays    []tuple.Payload
	// Lookup output arrays for the non-inner kinds, which probe via
	// LookupBatch instead of ProbeJoinBatch. Nil until first needed.
	lookPays  []tuple.Payload
	lookFound []bool
	// one is the fragment list of a single contiguous run (a morsel).
	one [1]tuple.Relation
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

// lookupBufs returns the batch lookup output arrays, allocated on first
// use like the staging buffers.
//
//go:noinline
func (bs *batchState) lookupBufs() ([]tuple.Payload, []bool) {
	if bs.lookPays == nil {
		bs.lookPays = make([]tuple.Payload, hashtable.BatchSize)
	}
	if bs.lookFound == nil {
		bs.lookFound = make([]bool, hashtable.BatchSize)
	}
	return bs.lookPays, bs.lookFound
}

// run returns the one-fragment list over a contiguous run.
func (bs *batchState) run(r []tuple.Tuple) []tuple.Relation {
	bs.one[0] = r
	return bs.one[:]
}

// build is the build half: it loads the fragments, keys shifted right
// by shift, into ht — BuildBatch per staged batch, or one Insert per
// tuple under ScalarKernels. Both flavors charge the same bytes: the
// streamed tuple plus the design's modeled table operation, op.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (bs *batchState) build(w *exec.Worker, ht partTable, frags []tuple.Relation, shift uint, op int64, o *Options) {
	if o.ScalarKernels {
		n := 0
		for _, frag := range frags {
			for _, tp := range frag {
				ht.Insert(tuple.Tuple{Key: tp.Key >> shift, Payload: tp.Payload})
			}
			n += len(frag)
		}
		w.AddBytes(int64(n) * (tuple.Bytes + op))
		return
	}
	keys, pays := bs.buffers()
	bs.cursor.Reset(frags)
	for {
		// Next never returns more than len(keys); the extra comparisons
		// restate that for the prove pass.
		n := bs.cursor.Next(keys, pays, shift)
		if n <= 0 || n > len(keys) || n > len(pays) {
			return
		}
		ht.BuildBatch(keys[:n], pays[:n], &bs.scratch)
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// probe is the probe half: it probes the fragments, keys shifted right
// by shift, against ht with first-match lookups and emits into s per
// Options.Kind — ProbeJoinBatch for inner joins, LookupBatch plus the
// kind's lane rules for the others, and one Lookup per tuple under
// ScalarKernels. Lookups mark the build entries of a table that tracks
// matches. Both flavors charge the same bytes. The table is only read
// (match marks aside, which are idempotent), so workers may share it.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (bs *batchState) probe(w *exec.Worker, ht joinTable, frags []tuple.Relation, shift uint, op int64, o *Options, s *sink) {
	if o.ScalarKernels {
		w.AddBytes(int64(probeScalar(ht, frags, shift, o.Kind, s)) * (tuple.Bytes + op))
		return
	}
	keys, pays := bs.buffers()
	inner := o.Kind == Inner
	var buildPays []tuple.Payload
	var found []bool
	if !inner {
		buildPays, found = bs.lookupBufs()
	}
	bs.cursor.Reset(frags)
	for {
		n := bs.cursor.Next(keys, pays, shift)
		if n <= 0 || n > len(keys) || n > len(pays) {
			return
		}
		if inner {
			ht.ProbeJoinBatch(keys[:n], pays[:n], &bs.scratch, &bs.out)
			if m := bs.out.N; m > 0 && m <= hashtable.BatchSize {
				s.emitBatch(bs.out.Build[:m], bs.out.Probe[:m])
			}
		} else {
			ht.LookupBatch(keys[:n], &bs.scratch, buildPays, found)
			emitKindLanes(o.Kind, s, pays, buildPays, found, n)
		}
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// probeScalar is the probe half's scalar flavor: one Lookup per tuple.
// It returns the number of tuples probed.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func probeScalar(ht joinTable, frags []tuple.Relation, shift uint, kind Kind, s *sink) int {
	n := 0
	for _, frag := range frags {
		for _, tp := range frag {
			bp, ok := ht.Lookup(tp.Key >> shift)
			emitLane(kind, s, bp, ok, tp.Payload)
		}
		n += len(frag)
	}
	return n
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
	bs.cursor.Reset(bs.run(run))
	for {
		n := bs.cursor.Next(keys, pays, 0)
		if n <= 0 || n > len(keys) || n > len(pays) {
			return
		}
		ht.BuildBatchConcurrent(keys[:n], pays[:n], &bs.scratch)
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}
