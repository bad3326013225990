package join

import (
	"math"
	"sort"
	"sync"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/tuple"
)

// The radix joins' join phase: one task list over the co-partitions,
// every task running joinPartition. Skew-aware task decomposition is an
// extension the paper points at but leaves unexploited (Appendix A: "We
// do not exploit the possibility to use multiple threads to process the
// join on the largest partitions in parallel", and lesson (3)'s caveat
// that partition-based joins suffer unbalanced loads under heavy skew).
// With Options.SplitSkewedTasks the radix joins detect oversized
// co-partitions, build their tables once up front, and let several
// workers probe disjoint ranges of the oversized probe side concurrently
// — removing the straggler task that otherwise dominates the makespan
// at Zipf 0.99.

// skewSplitFactor: a co-partition whose probe side exceeds this multiple
// of the average becomes a shared-table task split into probe ranges.
const skewSplitFactor = 4

type partTask struct {
	part int
	// split marks tasks probing a range of an oversized partition
	// against its prebuilt shared table.
	split   bool
	probeLo int // tuple range over the partition's probe fragments
	probeHi int
}

// planTasks lays out the join phase's tasks in scheduling order: one per
// partition of order, except that with split set a partition whose probe
// side exceeds skewSplitFactor times the average becomes split tasks
// over disjoint probe ranges. probeLens[p] is partition p's probe tuple
// count.
func planTasks(probeLens []int, order []int, threads int, split bool) []partTask {
	total := 0
	for _, n := range probeLens {
		total += n
	}
	avg, threshold := 1, math.MaxInt
	if split && total > 0 {
		avg = max(total/len(probeLens), 1)
		threshold = avg * skewSplitFactor
	}
	tasks := make([]partTask, 0, len(order))
	for _, p := range order {
		n := probeLens[p]
		if n <= threshold {
			tasks = append(tasks, partTask{part: p, probeHi: n})
			continue
		}
		// Split into ~threads ranges of at least avg tuples each.
		ranges := min(threads, n/avg)
		if ranges < 2 {
			ranges = 2
		}
		for _, ch := range tuple.Chunks(n, ranges) {
			tasks = append(tasks, partTask{part: p, split: true, probeLo: ch.Begin, probeHi: ch.End})
		}
	}
	return tasks
}

// joinPhase is one radix join's join phase: its co-partitions, the task
// list over them, the prebuilt tables of split partitions and the
// workers' reusable state.
type joinPhase struct {
	o             *Options
	design        TableDesign
	bits          uint
	op            int64 // the design's modeled per-tuple table traffic
	domainPerPart int
	tasks         []partTask
	// buildFrags and probeFrags append partition p's fragments to dst,
	// so a worker reuses one slice header per side instead of
	// allocating a fragment list per co-partition.
	buildFrags, probeFrags func(dst []tuple.Relation, p int) []tuple.Relation
	buildLen               func(p int) int

	states []*workerState
	// split lists the split partitions in ascending order; shared holds
	// each one's prebuilt table.
	split  []int
	shared map[int]partTable
}

// workerState holds one worker's reusable join table, so that thousands
// of co-partition tasks do not allocate thousands of tables.
type workerState struct {
	table partTable
	fits  int // the most build tuples table holds
	batch batchState
	// buildScratch and probeScratch are the reused fragment lists; after
	// a few tasks they reach the chunk count and stop growing.
	buildScratch []tuple.Relation
	probeScratch []tuple.Relation
}

// run runs the join phase on pool: a "skew-prebuild" phase when tasks
// split, then one "join" phase that pops the tasks off a LIFO stack (in
// reverse of their order) and runs joinPartition for each. Both run on
// the caller's pool, so cancellation propagates and the phases show up
// in the execution stats. All table storage goes back to the arena on
// every exit.
func (ph *joinPhase) run(pool *exec.Pool, sinks []sink) error {
	ph.states = make([]*workerState, pool.Threads())
	defer ph.release()
	if err := ph.prebuild(pool); err != nil {
		return err
	}
	err := pool.RunQueue("join", exec.NewLIFO(exec.SequentialOrder(len(ph.tasks))), func(w *exec.Worker, ti int) {
		ph.joinPartition(w, ph.state(w), ph.tasks[ti], &sinks[w.ID])
	})
	if err == nil && ph.o.Kind.padsBuild() {
		// Unmatched post-pass over the shared tables, once per split
		// partition, in partition order so the materialized output is
		// deterministic. The per-task tables already padded theirs.
		for _, p := range ph.split {
			emitUnmatchedBuild(nil, ph.shared[p], &sinks[0])
		}
	}
	return err
}

// prebuild builds every split partition's shared table through the
// build half, one partition per task.
func (ph *joinPhase) prebuild(pool *exec.Pool) error {
	for i, t := range ph.tasks {
		if t.split && (i == 0 || ph.tasks[i-1].part != t.part) {
			ph.split = append(ph.split, t.part)
		}
	}
	if len(ph.split) == 0 {
		return nil
	}
	sort.Ints(ph.split)
	ph.shared = make(map[int]partTable, len(ph.split))
	var mu sync.Mutex
	return pool.RunQueue("skew-prebuild", exec.NewRange(len(ph.split)), func(w *exec.Worker, i int) {
		p := ph.split[i]
		wk := ph.state(w)
		ht, _ := ph.newTable(ph.buildLen(p))
		wk.buildScratch = ph.buildFrags(wk.buildScratch[:0], p)
		wk.batch.build(w, ht, wk.buildScratch, ph.bits, ph.op, ph.o)
		if ph.o.Kind.padsBuild() {
			// Marks are set atomically by the concurrent range probes;
			// the unmatched post-pass runs once after the join phase.
			ht.EnableMatchTracking()
		}
		w.AddAllocs(1) // the shared table
		mu.Lock()
		ph.shared[p] = ht
		mu.Unlock()
	})
}

// joinPartition is the join step of every task: get the table for the
// design, run the build half, turn on match tracking if the kind pads
// the build side, run the probe half, then run the unmatched post-pass.
// A split task's table is its partition's prebuilt shared one, so it
// probes its range only and leaves the post-pass to the end of the
// phase, after every range has marked its matches.
//
// Keys inside partition p all share their low `bits` bits, so the
// per-partition tables index on the remaining high bits (k >> bits),
// exactly like the radix-join implementations of Balkesen et al. —
// hashing the raw key into a table smaller than 2^bits slots would send
// the whole partition to one slot. Shifted equality is full equality
// within a partition, so lookups stay exact. For the PR* variants there
// is a single fragment per side; CPR* reads one per chunk.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (ph *joinPhase) joinPartition(w *exec.Worker, wk *workerState, t partTask, s *sink) {
	o := ph.o
	var ht partTable
	var probeFrags []tuple.Relation
	if t.split {
		ht = ph.shared[t.part]
		wk.probeScratch = ph.probeFrags(wk.probeScratch[:0], t.part)
		probeFrags = cutFrags(wk.probeScratch, t.probeLo, t.probeHi)
	} else {
		n := ph.buildLen(t.part)
		if n == 0 && !o.Kind.padsProbe() {
			// Nothing can match and nothing pads: charge the probe side
			// as streamed, as a probe of an empty table would.
			w.AddBytes(int64(t.probeHi) * (tuple.Bytes + ph.op))
			return
		}
		ht = ph.tableFor(wk, n)
		wk.buildScratch = ph.buildFrags(wk.buildScratch[:0], t.part)
		wk.batch.build(w, ht, wk.buildScratch, ph.bits, ph.op, o)
		if o.Kind.padsBuild() {
			ht.EnableMatchTracking()
		}
		wk.probeScratch = ph.probeFrags(wk.probeScratch[:0], t.part)
		probeFrags = wk.probeScratch
	}
	wk.batch.probe(w, ht, probeFrags, ph.bits, ph.op, o, s)
	if !t.split && o.Kind.padsBuild() {
		emitUnmatchedBuild(w, ht, s)
	}
}

// state returns worker w's state, creating it on the worker's first task.
func (ph *joinPhase) state(w *exec.Worker) *workerState {
	wk := ph.states[w.ID]
	if wk == nil {
		wk = &workerState{}
		ph.states[w.ID] = wk
		w.AddAllocs(1)
	}
	return wk
}

// tableFor returns wk's table reset for a co-partition of n build
// tuples, replacing it with a larger one when n does not fit.
func (ph *joinPhase) tableFor(wk *workerState, n int) partTable {
	if wk.table != nil && n <= wk.fits {
		wk.table.Reset()
		return wk.table
	}
	if wk.table != nil {
		wk.table.Free()
	}
	wk.table, wk.fits = ph.newTable(n)
	return wk.table
}

// newTable makes an empty table of the join's design for n build tuples
// and reports how many it holds at most: the linear table keeps a load
// factor of at most 1/2, the array covers the partition's whole key
// domain.
func (ph *joinPhase) newTable(n int) (partTable, int) {
	switch ph.design {
	case DesignChained:
		return hashtable.NewChainedTable(n, ph.o.Hash, ph.o.Arena), n
	case DesignLinear:
		t := hashtable.NewLinearTable(n, 0, ph.o.Hash, ph.o.Arena)
		return t, t.Slots() / 2
	default:
		return hashtable.NewArrayTable(0, ph.domainPerPart, ph.o.Arena), math.MaxInt
	}
}

// release returns the workers' tables and the shared tables to the
// arena. With an arena-backed (possibly off-heap) run the storage is
// invisible to the GC, so an unfreed table is a real leak, not garbage.
func (ph *joinPhase) release() {
	for _, wk := range ph.states {
		if wk != nil && wk.table != nil {
			wk.table.Free()
		}
	}
	for _, ht := range ph.shared {
		ht.Free()
	}
}

// cutFrags cuts the tuple range [lo, hi) of the fragments' concatenation
// out of the fragment list, in place: fragments outside the range go,
// the two at its ends are trimmed. Split tasks probe their range this
// way, straight off the partition's fragments. It runs once per task and
// stays out of line, so its bounds checks stay out of joinPartition's
// //mmjoin:bce region.
//
//go:noinline
func cutFrags(frags []tuple.Relation, lo, hi int) []tuple.Relation {
	n, off := 0, 0
	for _, f := range frags {
		if flo, fhi := max(lo-off, 0), min(hi-off, len(f)); flo < fhi {
			frags[n] = f[flo:fhi]
			n++
		}
		off += len(f)
	}
	return frags[:n]
}
