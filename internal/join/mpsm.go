package join

import (
	"context"
	"sort"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/mway"
	"mmjoin/internal/tuple"
)

func init() {
	registerAblation(Spec{
		Name:  "MPSM",
		Class: SortMerge,
		Description: "Massively parallel sort-merge join (range-partitioned build side, " +
			"locally sorted probe runs, no inter-thread synchronization in the join phase)",
		Paper: "Albutiu et al. [3]",
		New:   func() Algorithm { return &mpsmJoin{} },
	})
}

// mpsmJoin implements the P-MPSM join of Albutiu, Kemper and Neumann
// (PVLDB 2012) — the second sort-based baseline the paper wanted to use
// but could not ("the authors did not make their code available",
// Section 1 fn. 1). The structure follows the published description:
//
//  1. the build relation R is range-partitioned by key so that worker w
//     owns one contiguous key range, which it sorts;
//  2. the probe relation S is never moved across workers: each worker
//     sorts only its own chunk, producing T independent sorted runs —
//     MPSM's "carefully tuned memory access pattern" that avoids the
//     cross-socket shuffle;
//  3. each worker merge-joins its sorted R range against the relevant
//     key sub-range of every S run, located by binary search. No
//     synchronization is needed anywhere past the partition barrier.
//
// Like the original, the join phase reads every (NUMA-remote) S run
// sequentially — the same trade CPRL later made for hash joins.
type mpsmJoin struct{}

func (j *mpsmJoin) Name() string        { return "MPSM" }
func (j *mpsmJoin) Class() Class        { return SortMerge }
func (j *mpsmJoin) Description() string { return describe("MPSM") }

func (j *mpsmJoin) Run(build, probe tuple.Relation, opts *Options) (*Result, error) {
	//mmjoin:allow(ctxflow) Run is the documented context-free compatibility wrapper over RunContext
	return j.RunContext(context.Background(), build, probe, opts)
}

func (j *mpsmJoin) RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	res := &Result{
		Algorithm:   "MPSM",
		Threads:     o.Threads,
		InputTuples: int64(len(build) + len(probe)),
	}
	pre := sink{materialize: o.Materialize}
	build, probe = splitKindInputs(&o, build, probe, &pre)
	t := o.Threads
	pool := newPool(ctx, &o, res.Algorithm)
	sinks := make([]sink, t)
	for i := range sinks {
		sinks[i].materialize = o.Materialize
	}
	domain := o.Domain
	if domain == 0 {
		domain = maxKeyDomain(build)
	}
	if domain == 0 {
		domain = 1
	}

	start := time.Now()
	// Phase 1: range-partition R across workers. Dense keys make
	// equi-width ranges balanced; rangeOf is the splitter function.
	rangeOf := func(k tuple.Key) int {
		r := int(uint64(k) * uint64(t) / uint64(domain))
		if r >= t {
			r = t - 1
		}
		return r
	}
	rParts, err := rangePartition(pool, build, t, rangeOf)
	if err != nil {
		return nil, err
	}

	// Phase 2: sort each R range and each local S chunk, in parallel.
	sChunks := tuple.Chunks(len(probe), t)
	sRuns := make([]tuple.Relation, t)
	err = pool.Run("sort", func(w *exec.Worker) {
		rParts[w.ID] = mway.Sort(rParts[w.ID])
		w.AddBytes(mway.SortPassBytes(rParts[w.ID]))
		w.AddAllocs(1)
		if w.Cancelled() {
			return
		}
		// Sort a copy of the local S chunk: MPSM leaves S in place
		// conceptually; the copy stands in for the run storage.
		chunk := probe[sChunks[w.ID].Begin:sChunks[w.ID].End]
		run := make(tuple.Relation, len(chunk))
		copy(run, chunk)
		sRuns[w.ID] = mway.Sort(run)
		w.AddBytes(2*int64(len(chunk))*tuple.Bytes + mway.SortPassBytes(sRuns[w.ID]))
		w.AddAllocs(2) // run copy + ping-pong scratch
	})
	if err != nil {
		return nil, err
	}
	sortDone := time.Now()

	// Phase 3: worker w joins its R range against the matching
	// key sub-range of every S run.
	err = pool.Run("merge-join", func(w *exec.Worker) {
		s := &sinks[w.ID]
		r := rParts[w.ID]
		if o.Kind != Inner {
			// The non-inner kinds must see every S tuple exactly once
			// even where R is sparse or empty, so each worker takes the
			// S sub-ranges its range-splitter slice assigns it (the
			// same rangeOf that placed R) rather than the [min,max] of
			// its actual R keys. R-side padding is deferred through
			// rMatched until the range has merged against all T runs.
			var rMatched []bool
			if o.Kind.padsBuild() {
				rMatched = make([]bool, len(r))
			}
			for _, run := range sRuns {
				if w.Cancelled() {
					return
				}
				begin := sort.Search(len(run), func(i int) bool { return rangeOf(run[i].Key) >= w.ID })
				end := sort.Search(len(run), func(i int) bool { return rangeOf(run[i].Key) > w.ID })
				if begin < end {
					mergeJoinKind(o.Kind, r, run[begin:end], s, rMatched)
					w.AddBytes(int64(len(r)+end-begin) * tuple.Bytes)
				}
			}
			if o.Kind.padsBuild() {
				for i, m := range rMatched {
					if !m {
						s.emit(r[i].Payload, tuple.NullPayload)
					}
				}
				w.AddBytes(int64(len(r)) * tuple.Bytes)
			}
			return
		}
		if len(r) == 0 {
			return
		}
		lo, hi := r[0].Key, r[len(r)-1].Key
		for _, run := range sRuns {
			if w.Cancelled() {
				return
			}
			// Binary-search the run for the worker's key range.
			begin := sort.Search(len(run), func(i int) bool { return run[i].Key >= lo })
			end := sort.Search(len(run), func(i int) bool { return run[i].Key > hi })
			if begin < end {
				if o.ScalarKernels {
					mway.MergeJoin(r, run[begin:end], s.emit)
				} else {
					mway.MergeJoinBatched(r, run[begin:end], s.emitBatch)
				}
				w.AddBytes(int64(len(r)+end-begin) * tuple.Bytes)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	end := time.Now()

	res.BuildOrPartition = sortDone.Sub(start)
	res.ProbeOrJoin = end.Sub(sortDone)
	res.Total = end.Sub(start)
	mergeSinks(res, sinks)
	mergePre(res, &pre)
	res.Exec = pool.Stats()
	return res, nil
}

// rangePartition scatters rel into `ranges` buckets by rangeOf, using
// per-worker local histograms like the chunked radix partitioner. Both
// passes run as phases on the caller's pool.
func rangePartition(pool *exec.Pool, rel tuple.Relation, ranges int, rangeOf func(tuple.Key) int) ([]tuple.Relation, error) {
	threads := pool.Threads()
	chunks := tuple.Chunks(len(rel), threads)
	// Per-worker, per-range counts.
	counts := make([][]int, threads)
	err := pool.Run("range-histogram", func(w *exec.Worker) {
		c := make([]int, ranges)
		chunk := rel[chunks[w.ID].Begin:chunks[w.ID].End]
		w.Morsels(len(chunk), func(begin, end int) {
			for _, tp := range chunk[begin:end] {
				c[rangeOf(tp.Key)]++
			}
			w.AddBytes(int64(end-begin) * tuple.Bytes)
		})
		counts[w.ID] = c
	})
	if err != nil {
		return nil, err
	}
	// Allocate contiguous buckets and per-worker cursors.
	total := make([]int, ranges)
	for _, c := range counts {
		for r, n := range c {
			total[r] += n
		}
	}
	parts := make([]tuple.Relation, ranges)
	for r := range parts {
		parts[r] = make(tuple.Relation, total[r])
	}
	cursors := make([][]int, threads)
	running := make([]int, ranges)
	for w := 0; w < threads; w++ {
		cursors[w] = make([]int, ranges)
		for r := 0; r < ranges; r++ {
			cursors[w][r] = running[r]
			running[r] += counts[w][r]
		}
	}
	err = pool.Run("range-scatter", func(w *exec.Worker) {
		cur := cursors[w.ID]
		chunk := rel[chunks[w.ID].Begin:chunks[w.ID].End]
		w.Morsels(len(chunk), func(begin, end int) {
			for _, tp := range chunk[begin:end] {
				r := rangeOf(tp.Key)
				parts[r][cur[r]] = tp
				cur[r]++
			}
			w.AddBytes(2 * int64(end-begin) * tuple.Bytes)
		})
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}
