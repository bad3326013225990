package join

import (
	"context"
	"time"

	"mmjoin/internal/tuple"
)

func init() {
	register(Spec{
		Name:        "NOP",
		Class:       NoPartition,
		Description: "No-partitioning hash join (lock-free linear probing, CAS inserts)",
		Paper:       "Lang et al. [14]",
		New: func() Algorithm {
			return &globalJoin{name: "NOP", design: DesignLinear}
		},
	})
	register(Spec{
		Name:        "NOPA",
		Class:       NoPartition,
		Description: "Same as NOP except using an array as the hash table",
		Paper:       "this",
		New: func() Algorithm {
			return &globalJoin{name: "NOPA", design: DesignArray}
		},
	})
	register(Spec{
		Name:        "CHTJ",
		Class:       NoPartition,
		Description: "Concise hash table join",
		Paper:       "Barber et al. [17]",
		New: func() Algorithm {
			return &globalJoin{name: "CHTJ", design: DesignCHT}
		},
	})
}

// globalJoin is a no-partitioning hash join: all threads build one
// global hash table over their chunks of the build relation
// (buildGlobal), then all threads probe their chunks of the probe
// relation against it (probeGlobal). The algorithms differ only in the
// table design:
//
//   - NOP (DesignLinear) is the join of Lang et al.: lock-free CAS
//     inserts into one linear-probing table in an interleaved
//     allocation.
//   - NOPA (DesignArray) swaps the linear-probing table for a
//     key-indexed array (Section 5.2).
//   - CHTJ (DesignCHT) is the concise-hash-table join of Barber et al.:
//     the build side is radix-partitioned by bitmap region so that each
//     thread bulk-loads one disjoint region of a single global CHT
//     without synchronization (Section 3.2). The paper classifies it as
//     a no-partitioning join because the partitioning only parallelizes
//     the bulkload; the join itself runs against one global structure.
//   - NOPC (DesignChained, an ablation) is the join in its 2011
//     Blanas-style form: one global chained table built concurrently
//     under per-bucket latches. Section 1 of the paper traces the
//     NOP-vs-PRB contradictions between studies to exactly this
//     difference (linked lists + latches vs lock-free linear probing),
//     so having both makes the contradiction reproducible.
//
// The build side must hold unique keys (the paper's primary-key
// workloads): every probe is a first-match lookup.
type globalJoin struct {
	name   string
	design TableDesign
}

func (j *globalJoin) Name() string        { return j.name }
func (j *globalJoin) Class() Class        { return NoPartition }
func (j *globalJoin) Description() string { return describe(j.name) }

func (j *globalJoin) Run(build, probe tuple.Relation, opts *Options) (*Result, error) {
	//mmjoin:allow(ctxflow) Run is the documented context-free compatibility wrapper over RunContext
	return j.RunContext(context.Background(), build, probe, opts)
}

func (j *globalJoin) RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	res := &Result{
		Algorithm:   j.name,
		Threads:     o.Threads,
		InputTuples: int64(len(build) + len(probe)),
	}
	pre := sink{materialize: o.Materialize}
	build, probe = splitKindInputs(&o, build, probe, &pre)
	if j.design == DesignArray && o.Domain == 0 {
		// Input preparation, like the null prelude: NOPA's timed build
		// starts from a known key domain.
		o.Domain = maxKeyDomain(build)
	}
	pool := newPool(ctx, &o, res.Algorithm)
	sinks := make([]sink, o.Threads)
	for i := range sinks {
		sinks[i].materialize = o.Materialize
	}

	start := time.Now()
	ht, free, err := buildGlobal(pool, build, j.design, &o)
	if err != nil {
		return nil, err
	}
	defer free()
	if o.Kind.padsBuild() {
		ht.EnableMatchTracking()
	}
	buildDone := time.Now()

	if err := probeGlobal(pool, ht, probe, tableOpBytes(j.design), &o, sinks); err != nil {
		return nil, err
	}
	if o.Kind.padsBuild() {
		// Right/full-outer post-pass: pad the build entries no probe
		// matched. Single-threaded — the walk is one streaming read of
		// the table, shared by the scalar and batched flavors.
		emitUnmatchedBuild(nil, ht, &sinks[0])
	}
	end := time.Now()

	res.BuildOrPartition = buildDone.Sub(start)
	res.ProbeOrJoin = end.Sub(buildDone)
	res.Total = end.Sub(start)
	mergeSinks(res, sinks)
	mergePre(res, &pre)

	if o.Traffic != nil {
		lines := 1
		if j.design == DesignCHT {
			// CHT probes cost two dependent random accesses (bitmap
			// group, then dense array) — the 2x cache-miss factor of
			// Table 4.
			lines = 2
		}
		accountNoPartitionTraffic(&o, len(build), len(probe), lines)
	}
	res.Exec = pool.Stats()
	return res, nil
}
