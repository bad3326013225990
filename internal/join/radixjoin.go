package join

import (
	"context"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

func init() {
	register(Spec{
		Name:        "PRB",
		Class:       Partition,
		Description: "Basic two-pass parallel radix join without software managed buffer and non-temporal streaming",
		Paper:       "Balkesen et al. [5]",
		New: func() Algorithm {
			return &radixJoin{name: "PRB", twoPass: true, table: DesignChained}
		},
	})
	register(Spec{
		Name:        "PRO",
		Class:       Partition,
		Description: "One-pass parallel radix join with software managed buffer and non-temporal streaming",
		Paper:       "Balkesen et al. [5]",
		New: func() Algorithm {
			return &radixJoin{name: "PRO", swwcb: true, table: DesignChained}
		},
	})
	register(Spec{
		Name:        "PRL",
		Class:       Partition,
		Description: "Same as PRO except using linear probing hashing instead of bucket chaining",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRL", swwcb: true, table: DesignLinear}
		},
	})
	register(Spec{
		Name:        "PRA",
		Class:       Partition,
		Description: "Same as PRO except using arrays as hash tables",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRA", swwcb: true, table: DesignArray}
		},
	})
	register(Spec{
		Name:        "CPRL",
		Class:       Partition,
		Description: "Chunked parallel radix join with software managed buffer and non-temporal streaming",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "CPRL", swwcb: true, chunked: true, table: DesignLinear}
		},
	})
	register(Spec{
		Name:        "CPRA",
		Class:       Partition,
		Description: "Same as CPRL except using arrays as hash tables",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "CPRA", swwcb: true, chunked: true, table: DesignArray}
		},
	})
	register(Spec{
		Name:        "PROiS",
		Class:       Partition,
		Description: "PRO with improved scheduling",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PROiS", swwcb: true, table: DesignChained, improvedSched: true}
		},
	})
	register(Spec{
		Name:        "PRLiS",
		Class:       Partition,
		Description: "Same as PROiS except using linear probing hashing instead of bucket chaining",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRLiS", swwcb: true, table: DesignLinear, improvedSched: true}
		},
	})
	register(Spec{
		Name:        "PRAiS",
		Class:       Partition,
		Description: "PRA with improved scheduling",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRAiS", swwcb: true, table: DesignArray, improvedSched: true}
		},
	})
}

// radixJoin is the shared driver of all PR*- and CPR*-joins: partition
// both inputs by the low radix bits of the key, then join each
// co-partition independently with a per-task table. The flags select the
// Table 2 variant.
type radixJoin struct {
	name string
	// twoPass partitions in two radix passes without SWWCB (PRB).
	twoPass bool
	// swwcb scatters through software write-combine buffers (PRO+).
	swwcb bool
	// chunked uses local-histogram chunked partitioning (CPR*).
	chunked bool
	// improvedSched inserts join tasks round-robin over NUMA nodes
	// (the iS variants of Section 6.2).
	improvedSched bool
	// table is the per-co-partition table design (Section 5.2: chained
	// vs linear probing vs array).
	table TableDesign
}

func (j *radixJoin) Name() string { return j.name }
func (j *radixJoin) Class() Class { return Partition }

func (j *radixJoin) Description() string { return describe(j.name) }

// prbTotalBits is PRB's fixed two-pass budget: 7 bits per pass
// (Section 7.2: "In each of the two radix passes PRB partitions along
// 7 bits = 128 partitions").
const prbTotalBits = 14

// pickBits resolves the radix bit count for this run.
func (j *radixJoin) pickBits(o *Options, buildLen, domain int) uint {
	if o.RadixBits != 0 {
		return o.RadixBits
	}
	if j.twoPass {
		return prbTotalBits
	}
	bits := radix.PredictBits(buildLen, radix.LoadFactorFor(j.table.String()), o.Threads, o.Geometry)
	if j.table == DesignArray && o.AdaptBitsToDomain && domain > buildLen {
		// Appendix C remedy: partition finer so the per-partition array
		// (4 bytes per domain slot) keeps fitting the cache.
		domBits := radix.PredictBits(domain, radix.LoadFactorFor("array"), o.Threads, o.Geometry)
		if domBits > bits {
			bits = domBits
		}
	}
	return bits
}

func (j *radixJoin) Run(build, probe tuple.Relation, opts *Options) (*Result, error) {
	//mmjoin:allow(ctxflow) Run is the documented context-free compatibility wrapper over RunContext
	return j.RunContext(context.Background(), build, probe, opts)
}

func (j *radixJoin) RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	res := &Result{
		Algorithm:   j.name,
		Threads:     o.Threads,
		InputTuples: int64(len(build) + len(probe)),
	}
	pre := sink{materialize: o.Materialize}
	build, probe = splitKindInputs(&o, build, probe, &pre)
	domain := o.Domain
	if j.table == DesignArray && domain == 0 {
		domain = maxKeyDomain(build)
	}
	bits := j.pickBits(&o, len(build), domain)
	res.Bits = bits
	parts := 1 << bits

	pool := newPool(ctx, &o, res.Algorithm)
	arena := pool.Arena()
	sinks := make([]sink, o.Threads)
	for i := range sinks {
		sinks[i].materialize = o.Materialize
	}

	start := time.Now()
	// Partition phase.
	var (
		prG, psG *radix.Partitioned
		prC, psC *radix.ChunkedPartitioned
		err      error
	)
	release := func() {
		if prG != nil {
			prG.Release(arena)
		}
		if psG != nil {
			psG.Release(arena)
		}
		if prC != nil {
			prC.Release(arena)
		}
		if psC != nil {
			psC.Release(arena)
		}
	}
	partition := func() error {
		switch {
		case j.chunked:
			if prC, err = radix.PartitionChunkedExec(pool, "partition(R)", build, bits, j.swwcb); err != nil {
				return err
			}
			psC, err = radix.PartitionChunkedExec(pool, "partition(S)", probe, bits, j.swwcb)
			return err
		case j.twoPass || o.ForceTwoPass:
			b1 := bits / 2
			b2 := bits - b1
			if prG, err = radix.PartitionTwoPassExec(pool, "partition(R)", build, b1, b2, j.swwcb); err != nil {
				return err
			}
			psG, err = radix.PartitionTwoPassExec(pool, "partition(S)", probe, b1, b2, j.swwcb)
			return err
		default:
			if prG, err = radix.PartitionGlobalExec(pool, "partition(R)", build, bits, j.swwcb); err != nil {
				return err
			}
			psG, err = radix.PartitionGlobalExec(pool, "partition(S)", probe, bits, j.swwcb)
			return err
		}
	}
	if err := partition(); err != nil {
		release()
		return nil, err
	}
	partitionDone := time.Now()

	// Join phase: co-partitions are inserted into a task queue —
	// ascending (the original LIFO stack) or round-robin over the NUMA
	// nodes holding the build partitions (iS).
	order := exec.SequentialOrder(parts)
	if j.improvedSched {
		nodeOf := j.partitionNode(&o, prG, prC, len(build))
		order = exec.RoundRobinOrder(parts, o.Topology.Nodes, nodeOf)
		pool.SetQueueStrategy("lifo(round-robin)")
	} else {
		pool.SetQueueStrategy("lifo(sequential)")
	}
	probeLens := make([]int, parts)
	for p := range probeLens {
		if j.chunked {
			probeLens[p] = psC.PartLen(p)
		} else {
			probeLens[p] = psG.PartLen(p)
		}
	}
	tasks := planTasks(probeLens, order, o.Threads, o.SplitSkewedTasks)
	ph := &joinPhase{
		o:             &o,
		design:        j.table,
		bits:          bits,
		op:            tableOpBytes(j.table),
		domainPerPart: (domain >> bits) + 1,
		tasks:         tasks,
		buildFrags: func(dst []tuple.Relation, p int) []tuple.Relation {
			if j.chunked {
				return prC.AppendFragments(dst, p)
			}
			return append(dst, prG.Part(p))
		},
		probeFrags: func(dst []tuple.Relation, p int) []tuple.Relation {
			if j.chunked {
				return psC.AppendFragments(dst, p)
			}
			return append(dst, psG.Part(p))
		},
		buildLen: func(p int) int {
			if j.chunked {
				return prC.PartLen(p)
			}
			return prG.PartLen(p)
		},
	}
	if err := ph.run(pool, sinks); err != nil {
		release()
		return nil, err
	}
	end := time.Now()

	res.BuildOrPartition = partitionDone.Sub(start)
	res.ProbeOrJoin = end.Sub(partitionDone)
	res.Total = end.Sub(start)
	mergeSinks(res, sinks)
	mergePre(res, &pre)
	res.MaxTaskShare = maxTaskShare(parts, len(tasks), func(i int) int {
		return tasks[i].probeHi - tasks[i].probeLo
	})

	if o.Traffic != nil {
		passes := 1
		if j.twoPass {
			passes = 2
		}
		if j.chunked {
			accountChunkedPartitionTraffic(&o, len(build))
			accountChunkedPartitionTraffic(&o, len(probe))
			accountChunkedJoinTraffic(&o, order, prC, psC)
		} else {
			accountGlobalPartitionTraffic(&o, len(build), passes)
			accountGlobalPartitionTraffic(&o, len(probe), passes)
			accountGlobalJoinTraffic(&o, order, prG, psG, len(build), len(probe))
		}
	}
	res.Exec = pool.Stats()
	release()
	return res, nil
}

// partitionNode maps a co-partition to the NUMA node holding its build
// data under the chunked allocation of the partition buffers.
func (j *radixJoin) partitionNode(o *Options, prG *radix.Partitioned, prC *radix.ChunkedPartitioned, buildLen int) func(int) int {
	region := numaRegionFor(o, buildLen)
	if j.chunked {
		// A chunked partition is spread over all chunks; its "home" is
		// where its first fragment lives. (iS is a no-op for CPR* —
		// Section 6.2 — but the mapping must still be defined.)
		return func(p int) int {
			if prC.PartLen(p) == 0 {
				return 0
			}
			for ci := range prC.Chunks {
				if prC.Fences[ci][p+1] > prC.Fences[ci][p] {
					return region.NodeAt(int64(prC.Fences[ci][p]) * tuple.Bytes)
				}
			}
			return 0
		}
	}
	return func(p int) int {
		if buildLen == 0 {
			return 0
		}
		off := int64(prG.Start(p)) * tuple.Bytes
		if off >= region.Size() {
			off = region.Size() - 1
		}
		return region.NodeAt(off)
	}
}
