package join

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/mway"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

func init() {
	register(Spec{
		Name:        "MWAY",
		Class:       SortMerge,
		Description: "Multi-way sort merge join",
		Paper:       "Balkesen et al. [4]",
		New:         func() Algorithm { return &mwayJoin{} },
	})
}

// mwayJoin is the m-way sort-merge join of Balkesen et al.: a single
// radix-partitioning pass with software write-combine buffers creates
// one co-partition pair per thread; each thread then sorts its
// partitions (mway.Sort, a radix sort standing in for the original's
// SIMD merge sort) and joins them with a merge step.
// Like the original implementation, it only accepts a power-of-two
// thread count — the constraint that capped the paper's comparisons at
// 32 threads (Section 4).
type mwayJoin struct{}

func (j *mwayJoin) Name() string        { return "MWAY" }
func (j *mwayJoin) Class() Class        { return SortMerge }
func (j *mwayJoin) Description() string { return describe("MWAY") }

func (j *mwayJoin) Run(build, probe tuple.Relation, opts *Options) (*Result, error) {
	//mmjoin:allow(ctxflow) Run is the documented context-free compatibility wrapper over RunContext
	return j.RunContext(context.Background(), build, probe, opts)
}

func (j *mwayJoin) RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	if o.Threads&(o.Threads-1) != 0 {
		return nil, fmt.Errorf("join: MWAY requires a power-of-two thread count, got %d", o.Threads)
	}
	res := &Result{
		Algorithm:   "MWAY",
		Threads:     o.Threads,
		InputTuples: int64(len(build) + len(probe)),
	}
	pre := sink{materialize: o.Materialize}
	build, probe = splitKindInputs(&o, build, probe, &pre)
	partBits := uint(bits.TrailingZeros(uint(o.Threads)))
	res.Bits = partBits
	pool := newPool(ctx, &o, res.Algorithm)
	arena := pool.Arena()
	sinks := make([]sink, o.Threads)
	for i := range sinks {
		sinks[i].materialize = o.Materialize
	}

	start := time.Now()
	// Phase 1a: partition both inputs into one co-partition per thread
	// (single pass, few partitions, SWWCB — Section 3.3).
	pr, err := radix.PartitionGlobalExec(pool, "partition(R)", build, partBits, true)
	if err != nil {
		return nil, err
	}
	ps, err := radix.PartitionGlobalExec(pool, "partition(S)", probe, partBits, true)
	if err != nil {
		pr.Release(arena)
		return nil, err
	}
	release := func() {
		pr.Release(arena)
		ps.Release(arena)
	}

	// Phase 1b: each thread sorts its co-partition pair.
	sortedR := make([]tuple.Relation, o.Threads)
	sortedS := make([]tuple.Relation, o.Threads)
	err = pool.Run("sort", func(w *exec.Worker) {
		sortedR[w.ID] = mway.Sort(pr.Part(w.ID))
		w.AddBytes(mway.SortPassBytes(sortedR[w.ID]))
		w.AddAllocs(1) // ping-pong scratch
		if w.Cancelled() {
			return
		}
		sortedS[w.ID] = mway.Sort(ps.Part(w.ID))
		w.AddBytes(mway.SortPassBytes(sortedS[w.ID]))
		w.AddAllocs(1)
	})
	if err != nil {
		release()
		return nil, err
	}
	sortDone := time.Now()

	// Phase 2: merge join each sorted co-partition pair.
	err = pool.Run("merge-join", func(w *exec.Worker) {
		s := &sinks[w.ID]
		if o.Kind != Inner {
			// Co-partitioning sends equal keys to the same pair, so a
			// tuple unmatched within its co-partition is unmatched
			// globally — the merge's gap events emit the padding
			// directly. Both kernel flavors share this event-driven
			// merge; its traversal (and byte charge) matches the inner
			// kernels'.
			mergeJoinKind(o.Kind, sortedR[w.ID], sortedS[w.ID], s, nil)
		} else if o.ScalarKernels {
			mway.MergeJoin(sortedR[w.ID], sortedS[w.ID], s.emit)
		} else {
			mway.MergeJoinBatched(sortedR[w.ID], sortedS[w.ID], s.emitBatch)
		}
		w.AddBytes(int64(len(sortedR[w.ID])+len(sortedS[w.ID])) * tuple.Bytes)
	})
	if err != nil {
		release()
		return nil, err
	}
	end := time.Now()

	res.BuildOrPartition = sortDone.Sub(start)
	res.ProbeOrJoin = end.Sub(sortDone)
	res.Total = end.Sub(start)
	mergeSinks(res, sinks)
	mergePre(res, &pre)

	if o.Traffic != nil {
		accountGlobalPartitionTraffic(&o, len(build), 1)
		accountGlobalPartitionTraffic(&o, len(probe), 1)
		// Each co-partition's sort passes, as mway.SortPassBytes
		// counts them, plus the merge join's final pass, over the
		// partition's home range.
		accountSortAndMergeTraffic(&o, pr, sortedR)
		accountSortAndMergeTraffic(&o, ps, sortedS)
	}
	res.Exec = pool.Stats()
	release()
	return res, nil
}
