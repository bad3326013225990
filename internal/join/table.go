package join

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/tuple"
)

// The no-partitioning pipeline: buildGlobal builds one global table of
// a given design, probeGlobal probes it. The fused joins (NOP, NOPA,
// NOPC, CHTJ; see nop.go) run both halves on one pool with per-query
// match tracking. The join service (internal/server) caches ready
// build-side tables keyed by relation fingerprint, so the build phase
// of a hot relation is paid once and every later query runs
// probe-only: BuildTable runs the build half into a BuiltTable that
// outlives one execution, ProbeTable runs the probe half against it.
// Table storage is drawn from Options.Arena (possibly off-heap) and
// returned through the tables' existing Free paths exactly once, at
// Release.

// TableDesign selects which of the six hash-table designs backs a
// cached build table. The designs are exactly the structures the Table
// 2 algorithms build (Section 5): a cached probe against DesignLinear
// is NOP's probe phase, DesignArray is NOPA's, DesignCHT is CHTJ's.
type TableDesign int

const (
	// DesignChained is the bucket-chaining table (PRB's design).
	DesignChained TableDesign = iota
	// DesignLinear is the linear-probing table (NOP/PRO's design).
	DesignLinear
	// DesignRobinHood is linear probing with Robin Hood displacement.
	DesignRobinHood
	// DesignArray is the key-indexed array (NOPA/PRA's design); builds
	// allocate Domain slots, so it suits dense key domains only.
	DesignArray
	// DesignCHT is the concise hash table (CHTJ's design).
	DesignCHT
	// DesignSparse is the dynamically growing sparse bitmap table. It is
	// heap-only: the per-group dense slices cannot live in an arena.
	DesignSparse
)

// String returns the design's wire name (accepted by ParseTableDesign).
func (d TableDesign) String() string {
	switch d {
	case DesignChained:
		return "chained"
	case DesignLinear:
		return "linear"
	case DesignRobinHood:
		return "robinhood"
	case DesignArray:
		return "array"
	case DesignCHT:
		return "cht"
	case DesignSparse:
		return "sparse"
	}
	return fmt.Sprintf("TableDesign(%d)", int(d))
}

// ParseTableDesign maps a wire name back to its design.
func ParseTableDesign(s string) (TableDesign, error) {
	for _, d := range TableDesigns() {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("join: unknown table design %q", s)
}

// TableDesigns returns all six designs in declaration order.
func TableDesigns() []TableDesign {
	return []TableDesign{DesignChained, DesignLinear, DesignRobinHood,
		DesignArray, DesignCHT, DesignSparse}
}

// joinTable is the table contract of the probe half: scalar and
// batched first-match lookups (which mark build entries once
// EnableMatchTracking was called), the batched inner probe, the
// unmatched post-pass and the storage footprint. All six designs
// implement it.
type joinTable interface {
	Lookup(k tuple.Key) (tuple.Payload, bool)
	LookupBatch(keys []tuple.Key, s *hashtable.BatchScratch, payloads []tuple.Payload, found []bool)
	ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *hashtable.BatchScratch, out *hashtable.MatchBatch)
	EnableMatchTracking()
	ForEachUnmatched(fn func(tuple.Key, tuple.Payload))
	Len() int
	SizeBytes() int64
}

// partTable is a joinTable the build half loads single-writer and a
// worker reuses from one co-partition to the next: the chained, linear
// and array designs of the radix joins.
type partTable interface {
	joinTable
	Insert(tp tuple.Tuple)
	BuildBatch(keys []tuple.Key, payloads []tuple.Payload, s *hashtable.BatchScratch)
	Reset()
	Free()
}

// BuiltTable is one ready build-side hash table whose lifetime is
// decoupled from any single query: the server's build cache holds one
// per (relation fingerprint, design) and probes borrow it read-only.
// The owner must call Release exactly once when the table is dropped
// (for arena-backed designs that is what returns the slot arrays to the
// arena); Release while probes are still running is the
// use-after-free the cache's refcount pinning exists to prevent.
type BuiltTable struct {
	design   TableDesign
	table    joinTable
	free     func()
	bytes    int64
	buildLen int
	buildDur time.Duration
	released atomic.Bool
}

// Design returns the table's design.
func (bt *BuiltTable) Design() TableDesign { return bt.design }

// SizeBytes returns the table's actual storage footprint — the
// cache's LRU-by-bytes currency. (Admission control uses the modeled
// 16 B/build-tuple figure instead; see Options.MemoryBudget.)
func (bt *BuiltTable) SizeBytes() int64 { return bt.bytes }

// BuildLen returns the build-relation cardinality the table holds.
func (bt *BuiltTable) BuildLen() int { return bt.buildLen }

// BuildTime returns how long the build phase took.
func (bt *BuiltTable) BuildTime() time.Duration { return bt.buildDur }

// Released reports whether Release has run.
func (bt *BuiltTable) Released() bool { return bt.released.Load() }

// Release frees the table's storage through the design's existing Free
// path (a no-op for the heap-only sparse design, which the collector
// reclaims). Exactly-once: a second Release panics, because the first
// already returned arena storage that may since have been reissued.
func (bt *BuiltTable) Release() {
	if bt.released.Swap(true) {
		panic("join: BuiltTable.Release called twice")
	}
	bt.free()
}

// tableOpBytes is the modeled per-tuple table traffic of each design,
// one insert or one probe, for both pipelines (see
// internal/hashtable/bytes.go for the coefficients' rationale).
func tableOpBytes(d TableDesign) int64 {
	switch d {
	case DesignChained:
		return hashtable.ChainedOpBytes
	case DesignLinear, DesignRobinHood:
		return hashtable.LinearOpBytes
	case DesignArray:
		return hashtable.ArrayOpBytes
	default: // CHT and the CHT-shaped sparse table: bitmap line + dense line.
		return hashtable.CHTOpBytes
	}
}

// BuildTable runs the build phase of a no-partitioning join in
// isolation: buildGlobal on a pool of its own, the same build half the
// fused NOP, NOPA, NOPC and CHTJ run.
//
// The inputs carry the same contract as the fused joins: cached tables
// serve inner joins over null-free keys (Options.NullableKeys is
// rejected — null padding is per-query state that cannot live in a
// shared table), and the build keys must be unique, because every
// probe is a first-match lookup: a duplicate key's other entries are
// never returned.
//
// On success the caller owns the returned BuiltTable and must Release
// it; on error (including cancellation) all storage has already been
// returned to the arena.
func BuildTable(ctx context.Context, build tuple.Relation, design TableDesign, opts *Options) (*BuiltTable, error) {
	o := opts.normalize()
	if o.Kind != Inner {
		return nil, fmt.Errorf("join: cached tables serve inner joins only, not %v", o.Kind)
	}
	if o.NullableKeys {
		return nil, fmt.Errorf("join: cached tables do not support nullable keys")
	}
	pool := newPool(ctx, &o, "BUILD("+design.String()+")")
	start := time.Now()
	table, free, err := buildGlobal(pool, build, design, &o)
	if err != nil {
		return nil, err
	}
	return &BuiltTable{
		design:   design,
		table:    table,
		free:     free,
		bytes:    table.SizeBytes(),
		buildLen: len(build),
		buildDur: time.Since(start),
	}, nil
}

// buildGlobal is the build half of every no-partitioning join: a
// morsel-driven parallel build of one global table of the given design
// over the build relation, on pool. Chained, linear and array designs
// build concurrently from all workers (latched, CAS and atomic
// protocols respectively); the CHT bulk-loads disjoint bitmap regions
// per worker (CHTJ's classify-then-bulkload); Robin Hood and sparse are
// single-writer structures, so one worker inserts while the pool keeps
// cancellation responsive at morsel boundaries.
//
// Every design's table is constructed inside its first phase, in the
// first morsel or task a worker starts (the others wait in a
// sync.Once): zeroing a fresh table and faulting in its pages are build
// work, and outside a phase, or outside a worker's span, they would
// escape the phase walls and the per-worker trace. A worker with no
// morsel constructs after its empty walk, so an empty build still
// yields a table.
//
// On success the caller owns the table and must call free exactly
// once; on error the storage has already been freed.
func buildGlobal(pool *exec.Pool, build tuple.Relation, design TableDesign, o *Options) (joinTable, func(), error) {
	buildChunks := tuple.Chunks(len(build), o.Threads)
	bstates := make([]batchState, o.Threads)
	op := tableOpBytes(design)

	// table and free are set by the design's constructor, which runs
	// inside a phase; free stays nil if cancellation came first.
	var table joinTable
	var free func()

	// concurrentBuild drives the shared-global-table protocol (all
	// workers insert their chunks at once).
	concurrentBuild := func(newTable func() batchConcurrentBuildTable) error {
		var once sync.Once
		var ht batchConcurrentBuildTable
		construct := func() { ht = newTable() }
		return pool.Run("build", func(w *exec.Worker) {
			c := buildChunks[w.ID]
			bs := &bstates[w.ID]
			w.Morsels(c.Len(), func(begin, end int) {
				once.Do(construct)
				run := build[c.Begin+begin : c.Begin+end]
				if o.ScalarKernels {
					for _, tp := range run {
						ht.InsertConcurrent(tp)
					}
					w.AddBytes(int64(end-begin) * (tuple.Bytes + op))
				} else {
					bs.buildRunConcurrent(w, ht, run, op)
				}
			})
			if c.Len() == 0 {
				once.Do(construct)
			}
		})
	}
	// singleWriterBuild keeps single-writer structures on one worker
	// while morsel boundaries keep the build cancellable.
	singleWriterBuild := func(newInsert func() func(tuple.Tuple)) error {
		return pool.Run("build", func(w *exec.Worker) {
			if w.ID != 0 {
				return
			}
			var insert func(tuple.Tuple)
			w.Morsels(len(build), func(begin, end int) {
				if insert == nil {
					insert = newInsert()
				}
				for _, tp := range build[begin:end] {
					insert(tp)
				}
				w.AddBytes(int64(end-begin) * (tuple.Bytes + op))
			})
			if len(build) == 0 {
				newInsert()
			}
		})
	}

	var err error
	switch design {
	case DesignChained:
		var t *hashtable.ChainedTable
		err = concurrentBuild(func() batchConcurrentBuildTable {
			t = hashtable.NewChainedTable(len(build), o.Hash, o.Arena)
			t.PrepareConcurrent()
			table, free = t, t.Free
			return t
		})
		if t != nil {
			t.FinishConcurrentBuild()
		}
	case DesignLinear:
		err = concurrentBuild(func() batchConcurrentBuildTable {
			t := hashtable.NewLinearTable(len(build), 0, o.Hash, o.Arena)
			table, free = t, t.Free
			return t
		})
	case DesignArray:
		var t *hashtable.ArrayTable
		err = concurrentBuild(func() batchConcurrentBuildTable {
			domain := o.Domain
			if domain == 0 {
				domain = maxKeyDomain(build)
			}
			t = hashtable.NewArrayTable(0, domain, o.Arena)
			table, free = t, t.Free
			return t
		})
		if t != nil {
			t.FinishConcurrentBuild()
		}
	case DesignRobinHood:
		err = singleWriterBuild(func() func(tuple.Tuple) {
			t := hashtable.NewRobinHoodTable(len(build), 0, o.Hash, o.Arena)
			table, free = t, t.Free
			return t.Insert
		})
	case DesignSparse:
		err = singleWriterBuild(func() func(tuple.Tuple) {
			t := hashtable.NewSparseTable(len(build), o.Hash)
			table, free = t, func() {} // heap-only: the collector reclaims it
			return t.Insert
		})
	case DesignCHT:
		table, free, err = bulkloadCHT(pool, build, buildChunks, o)
	default:
		return nil, nil, fmt.Errorf("join: unknown table design %d", int(design))
	}
	if err != nil {
		if free != nil {
			free()
		}
		return nil, nil, err
	}
	return table, free, nil
}

// bulkloadCHT is buildGlobal's CHT leg. With several regions a
// "classify" phase first groups every morsel of the build side by
// target bitmap region, in place in one buffer (count, then scatter);
// with one the input is loaded as it is. Then two "bulkload" phases run
// the builder's passes per region: claim every region's buckets (the
// first claim allocates the table), then scatter every region into the
// dense array. The returned free releases the table, also on error.
func bulkloadCHT(pool *exec.Pool, build tuple.Relation, buildChunks []tuple.Chunk, o *Options) (joinTable, func(), error) {
	b := hashtable.NewCHTBuilder(len(build), o.Threads, o.Hash, o.Arena)
	regions := b.Regions()
	// The bulkload pulls region tasks in FIFO order (Exec.Queue).
	pool.SetQueueStrategy("fifo")

	// parts[w][r] lists the slices of region r's tuples in worker w's
	// classified morsels.
	parts := [][][][]tuple.Tuple{{{build}}}
	if regions > 1 {
		// A heap buffer, not an arena one: parked in an off-heap arena
		// between builds it would stay resident.
		buf := make([]tuple.Tuple, len(build))
		parts = make([][][][]tuple.Tuple, len(buildChunks))
		err := pool.Run("classify", func(w *exec.Worker) {
			c := buildChunks[w.ID]
			parts[w.ID] = make([][][]tuple.Tuple, regions)
			next := make([]int, regions+1) // per-region write cursors
			w.Morsels(c.Len(), func(begin, end int) {
				lo, run := c.Begin+begin, build[c.Begin+begin:c.Begin+end]
				clear(next)
				for _, tp := range run {
					next[b.RegionOf(tp.Key)+1]++
				}
				next[0] = lo
				for r := 1; r < regions; r++ {
					next[r] += next[r-1]
				}
				for _, tp := range run {
					r := b.RegionOf(tp.Key)
					buf[next[r]] = tp
					next[r]++
				}
				for r, hi := range next[:regions] {
					parts[w.ID][r] = append(parts[w.ID][r], buf[lo:hi])
					lo = hi
				}
				// count read, then scatter read + write of the morsel
				w.AddBytes(3 * int64(end-begin) * tuple.Bytes)
			})
			w.AddAllocs(1) // region cursors and slice lists
		})
		if err != nil {
			return nil, b.Free, err
		}
	}
	lens := make([]int64, regions)
	err := pool.RunQueue("bulkload", exec.NewRange(regions), func(w *exec.Worker, r int) {
		var segs [][]tuple.Tuple
		for _, p := range parts {
			segs = append(segs, p[r]...)
		}
		lens[r] = int64(b.LoadRegion(r, segs...))
		// tuple read + claimed bitmap line
		w.AddBytes(lens[r] * (tuple.Bytes + tuple.CacheLineBytes))
		w.AddAllocs(1) // displacement array
	})
	if err == nil {
		err = pool.RunQueue("bulkload", exec.NewRange(regions), func(w *exec.Worker, r int) {
			b.ScatterRegion(r)
			// tuple read + bitmap line + dense-array line
			w.AddBytes(lens[r] * (tuple.Bytes + hashtable.CHTOpBytes))
		})
	}
	if err != nil {
		return nil, b.Free, err
	}
	// The table's own Free, not the builder's: a bound b.Free would keep
	// the builder, and with it the classified input, alive as long as
	// the table.
	t := b.Finalize()
	return t, t.Free, nil
}

// ProbeTable runs the probe phase of a no-partitioning join against a
// previously built (possibly cached and shared) table: every worker
// probes its chunk of the probe relation read-only, so any number of
// concurrent ProbeTable calls may share one BuiltTable. The Result is
// shaped like the fused algorithms' with the build phase absent:
// Algorithm is "CACHED(<design>)", BuildOrPartition is zero and
// InputTuples counts only the probe side (the build side was not
// processed by this execution).
//
// Inner joins over null-free keys only, matching BuildTable's contract;
// other kinds must run a fused algorithm instead.
func ProbeTable(ctx context.Context, bt *BuiltTable, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	if o.Kind != Inner {
		return nil, fmt.Errorf("join: cached tables serve inner joins only, not %v", o.Kind)
	}
	if o.NullableKeys {
		return nil, fmt.Errorf("join: cached tables do not support nullable keys")
	}
	if bt.Released() {
		return nil, fmt.Errorf("join: probe against a released table")
	}

	res := &Result{
		Algorithm:   "CACHED(" + bt.design.String() + ")",
		Threads:     o.Threads,
		InputTuples: int64(len(probe)),
	}
	pool := newPool(ctx, &o, res.Algorithm)
	sinks := make([]sink, o.Threads)
	for i := range sinks {
		sinks[i].materialize = o.Materialize
	}
	start := time.Now()
	if err := probeGlobal(pool, bt.table, probe, tableOpBytes(bt.design), &o, sinks); err != nil {
		return nil, err
	}
	end := time.Now()

	res.ProbeOrJoin = end.Sub(start)
	res.Total = end.Sub(start)
	mergeSinks(res, sinks)
	res.Exec = pool.Stats()
	return res, nil
}

// probeGlobal is the probe phase of every no-partitioning join: one
// "probe" phase in which every worker runs the probe half over the
// morsels of its chunk of the probe relation, keys unshifted. op is the
// design's modeled per-probe traffic. Concurrent probeGlobal calls may
// share one table.
func probeGlobal(pool *exec.Pool, ht joinTable, probe tuple.Relation, op int64, o *Options, sinks []sink) error {
	probeChunks := tuple.Chunks(len(probe), o.Threads)
	bstates := make([]batchState, o.Threads)
	return pool.Run("probe", func(w *exec.Worker) {
		c := probeChunks[w.ID]
		bs := &bstates[w.ID]
		w.Morsels(c.Len(), func(begin, end int) {
			bs.probe(w, ht, bs.run(probe[c.Begin+begin:c.Begin+end]), 0, op, o, &sinks[w.ID])
		})
	})
}
