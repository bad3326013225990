package join

import (
	"context"
	"fmt"
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

// globalTable is the table contract of the no-partitioning pipeline:
// the kind probe paths (first-match lookups, match tracking, the
// unmatched post-pass), the batched inner probe and the storage
// footprint. All six designs implement it.
type globalTable interface {
	kindProbeTable
	SizeBytes() int64
	ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *hashtable.BatchScratch, out *hashtable.MatchBatch)
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
	table    globalTable
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

// tableOpBytes is the modeled per-probe traffic of each design (see
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
// On success the caller owns the table and must call free exactly
// once; on error the storage has already been freed.
func buildGlobal(pool *exec.Pool, build tuple.Relation, design TableDesign, o *Options) (globalTable, func(), error) {
	buildChunks := tuple.Chunks(len(build), o.Threads)
	bstates := make([]batchState, o.Threads)
	op := tableOpBytes(design)

	// concurrentBuild drives the shared-global-table protocol (all
	// workers insert their chunks at once).
	concurrentBuild := func(ht batchConcurrentBuildTable, scalarInsert func(tuple.Tuple)) error {
		return pool.Run("build", func(w *exec.Worker) {
			c := buildChunks[w.ID]
			bs := &bstates[w.ID]
			w.Morsels(c.Len(), func(begin, end int) {
				run := build[c.Begin+begin : c.Begin+end]
				if o.ScalarKernels {
					for _, tp := range run {
						scalarInsert(tp)
					}
					w.AddBytes(int64(end-begin) * (tuple.Bytes + op))
				} else {
					bs.buildRunConcurrent(w, ht, run, op)
				}
			})
		})
	}
	// singleWriterBuild keeps single-writer structures on one worker
	// while morsel boundaries keep the build cancellable.
	singleWriterBuild := func(insert func(tuple.Tuple)) error {
		return pool.Run("build", func(w *exec.Worker) {
			if w.ID != 0 {
				return
			}
			w.Morsels(len(build), func(begin, end int) {
				for _, tp := range build[begin:end] {
					insert(tp)
				}
				w.AddBytes(int64(end-begin) * (tuple.Bytes + op))
			})
		})
	}

	var table globalTable
	var free func()
	var err error
	switch design {
	case DesignChained:
		t := hashtable.NewChainedTableArena(len(build), o.Hash, o.Arena)
		t.PrepareConcurrent()
		err = concurrentBuild(t, t.InsertConcurrent)
		t.FinishConcurrentBuild()
		table, free = t, t.Free
	case DesignLinear:
		t := hashtable.NewLinearTableArena(len(build), o.Hash, o.Arena)
		err = concurrentBuild(t, t.InsertConcurrent)
		table, free = t, t.Free
	case DesignArray:
		domain := o.Domain
		if domain == 0 {
			domain = maxKeyDomain(build)
		}
		t := hashtable.NewArrayTableArena(0, domain, o.Arena)
		err = concurrentBuild(t, t.InsertConcurrent)
		t.FinishConcurrentBuild()
		table, free = t, t.Free
	case DesignRobinHood:
		t := hashtable.NewRobinHoodTableArena(len(build), 0, o.Hash, o.Arena)
		err = singleWriterBuild(t.Insert)
		table, free = t, t.Free
	case DesignSparse:
		t := hashtable.NewSparseTable(len(build), o.Hash)
		err = singleWriterBuild(t.Insert)
		table, free = t, func() {} // heap-only: the collector reclaims it
	case DesignCHT:
		table, free, err = buildCHT(pool, build, buildChunks, o)
	default:
		return nil, nil, fmt.Errorf("join: unknown table design %d", int(design))
	}
	if err != nil {
		free()
		return nil, nil, err
	}
	return table, free, nil
}

// buildCHT is buildGlobal's CHT leg: the build side is partitioned by
// target bitmap region, then each region is bulk-loaded by one worker
// without synchronization. On error the returned free releases the
// partly loaded table.
func buildCHT(pool *exec.Pool, build tuple.Relation, buildChunks []tuple.Chunk, o *Options) (globalTable, func(), error) {
	// Spread the hash over the 8n bitmap buckets: multiplying by the
	// buckets-per-tuple factor maps a hash that is uniform over n table
	// slots to one uniform over the bitmap, and keeps the identity hash
	// collision-free for dense keys.
	userHash := o.Hash
	spread := func(k tuple.Key) uint64 { return userHash(k) * 8 }
	builder := hashtable.NewCHTBuilderArena(len(build), o.Threads, spread, o.Arena)
	regions := builder.Regions()
	// The bulkload pulls region tasks in FIFO order (Exec.Queue).
	pool.SetQueueStrategy("fifo")

	// Step 1: each worker classifies its chunk into per-(worker,
	// region) lists.
	perWorker := make([][][]tuple.Tuple, o.Threads)
	err := pool.Run("classify", func(w *exec.Worker) {
		lists := make([][]tuple.Tuple, regions)
		c := buildChunks[w.ID]
		w.Morsels(c.Len(), func(begin, end int) {
			for _, tp := range build[c.Begin+begin : c.Begin+end] {
				r := builder.RegionOf(tp.Key)
				lists[r] = append(lists[r], tp)
			}
			w.AddBytes(2 * int64(end-begin) * tuple.Bytes) // read chunk + append to lists
		})
		perWorker[w.ID] = lists
		w.AddAllocs(1) // per-region list set
	})
	if err != nil {
		return nil, builder.Free, err
	}
	// Step 2: each region is bulk-loaded by one worker, pulling region
	// tasks from a queue.
	err = pool.RunQueue("bulkload", exec.NewRange(regions), func(w *exec.Worker, r int) {
		var merged []tuple.Tuple
		for _, lists := range perWorker {
			merged = append(merged, lists[r]...)
		}
		builder.LoadRegion(r, merged)
		// merge copy + bulk-load write of the region's tuples
		w.AddBytes(int64(len(merged)) * (2*tuple.Bytes + hashtable.CHTOpBytes))
		w.AddAllocs(1) // merged scratch
	})
	if err != nil {
		return nil, builder.Free, err
	}
	cht := builder.Finalize()
	return cht, cht.Free, nil
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

// probeGlobal is the probe half of every no-partitioning join: one
// "probe" phase in which every worker probes its chunk of the probe
// relation against ht with first-match lookups and emits into its sink
// per Options.Kind, through the batch kernels or, under ScalarKernels,
// tuple at a time. op is the design's modeled per-probe traffic; both
// flavors charge the same bytes. The table is only read (match marks
// aside, which are idempotent), so concurrent probeGlobal calls may
// share one table.
func probeGlobal(pool *exec.Pool, ht globalTable, probe tuple.Relation, op int64, o *Options, sinks []sink) error {
	probeChunks := tuple.Chunks(len(probe), o.Threads)
	bstates := make([]batchState, o.Threads)
	return pool.Run("probe", func(w *exec.Worker) {
		s := &sinks[w.ID]
		c := probeChunks[w.ID]
		bs := &bstates[w.ID]
		w.Morsels(c.Len(), func(begin, end int) {
			run := probe[c.Begin+begin : c.Begin+end]
			switch {
			case !o.ScalarKernels && o.Kind == Inner:
				bs.probeRun(w, ht, run, 0, op, s)
				return
			case !o.ScalarKernels:
				bs.probeKindRun(w, o.Kind, ht, run, 0, op, s)
				return
			case o.Kind == Inner:
				for _, tp := range run {
					if p, ok := ht.Lookup(tp.Key); ok {
						s.emit(p, tp.Payload)
					}
				}
			default:
				probeRunKind(o.Kind, ht, run, 0, s)
			}
			w.AddBytes(int64(end-begin) * (tuple.Bytes + op))
		})
	})
}
