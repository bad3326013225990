package join

import (
	"context"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/radix"
	"mmjoin/internal/sched"
	"mmjoin/internal/tuple"
)

// tableKind selects the per-co-partition join data structure
// (Section 5.2: chained vs linear probing vs array).
type tableKind int

const (
	chainedKind tableKind = iota
	linearKind
	arrayKind
)

func (k tableKind) String() string {
	switch k {
	case chainedKind:
		return "chained"
	case linearKind:
		return "linear"
	case arrayKind:
		return "array"
	}
	return "unknown"
}

func init() {
	register(Spec{
		Name:        "PRB",
		Class:       Partition,
		Description: "Basic two-pass parallel radix join without software managed buffer and non-temporal streaming",
		Paper:       "Balkesen et al. [5]",
		New: func() Algorithm {
			return &radixJoin{name: "PRB", twoPass: true, table: chainedKind}
		},
	})
	register(Spec{
		Name:        "PRO",
		Class:       Partition,
		Description: "One-pass parallel radix join with software managed buffer and non-temporal streaming",
		Paper:       "Balkesen et al. [5]",
		New: func() Algorithm {
			return &radixJoin{name: "PRO", swwcb: true, table: chainedKind}
		},
	})
	register(Spec{
		Name:        "PRL",
		Class:       Partition,
		Description: "Same as PRO except using linear probing hashing instead of bucket chaining",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRL", swwcb: true, table: linearKind}
		},
	})
	register(Spec{
		Name:        "PRA",
		Class:       Partition,
		Description: "Same as PRO except using arrays as hash tables",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRA", swwcb: true, table: arrayKind}
		},
	})
	register(Spec{
		Name:        "CPRL",
		Class:       Partition,
		Description: "Chunked parallel radix join with software managed buffer and non-temporal streaming",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "CPRL", swwcb: true, chunked: true, table: linearKind}
		},
	})
	register(Spec{
		Name:        "CPRA",
		Class:       Partition,
		Description: "Same as CPRL except using arrays as hash tables",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "CPRA", swwcb: true, chunked: true, table: arrayKind}
		},
	})
	register(Spec{
		Name:        "PROiS",
		Class:       Partition,
		Description: "PRO with improved scheduling",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PROiS", swwcb: true, table: chainedKind, improvedSched: true}
		},
	})
	register(Spec{
		Name:        "PRLiS",
		Class:       Partition,
		Description: "Same as PROiS except using linear probing hashing instead of bucket chaining",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRLiS", swwcb: true, table: linearKind, improvedSched: true}
		},
	})
	register(Spec{
		Name:        "PRAiS",
		Class:       Partition,
		Description: "PRA with improved scheduling",
		Paper:       "this",
		New: func() Algorithm {
			return &radixJoin{name: "PRAiS", swwcb: true, table: arrayKind, improvedSched: true}
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
	table         tableKind
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
	if j.table == arrayKind && o.AdaptBitsToDomain && domain > buildLen {
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
	if j.table == arrayKind && domain == 0 {
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
	order := sched.SequentialOrder(parts)
	if j.improvedSched {
		nodeOf := j.partitionNode(&o, prG, prC, len(build))
		order = sched.RoundRobinOrder(parts, o.Topology.Nodes, nodeOf)
		pool.SetQueueStrategy("lifo(round-robin)")
	} else {
		pool.SetQueueStrategy("lifo(sequential)")
	}
	domainPerPart := (domain >> bits) + 1
	// The fragment accessors append into caller-owned scratch so the
	// task loop reuses one slice header per worker instead of
	// allocating a fragment list per co-partition.
	buildFrags := func(dst []tuple.Relation, p int) []tuple.Relation {
		if j.chunked {
			return prC.AppendFragments(dst, p)
		}
		return append(dst, prG.Part(p))
	}
	probeFrags := func(dst []tuple.Relation, p int) []tuple.Relation {
		if j.chunked {
			return psC.AppendFragments(dst, p)
		}
		return append(dst, psG.Part(p))
	}
	buildLen := func(p int) int {
		if j.chunked {
			return prC.PartLen(p)
		}
		return prG.PartLen(p)
	}
	probeLen := func(p int) int {
		if j.chunked {
			return psC.PartLen(p)
		}
		return psG.PartLen(p)
	}
	if o.SplitSkewedTasks {
		err = j.runJoinPhaseSkewAware(pool, &o, bits, order, parts, buildFrags, probeFrags, buildLen, probeLen, domainPerPart, sinks)
	} else {
		states := make([]*workerState, o.Threads)
		op := j.opBytes()
		err = pool.RunQueue("join", sched.NewLIFO(order), func(w *exec.Worker, p int) {
			wk := states[w.ID]
			if wk == nil {
				wk = newWorkerState(j.table, o.Hash, domainPerPart, o.Arena)
				states[w.ID] = wk
				w.AddAllocs(1)
			}
			wk.buildScratch = buildFrags(wk.buildScratch[:0], p)
			wk.probeScratch = probeFrags(wk.probeScratch[:0], p)
			bl, pl := buildLen(p), probeLen(p)
			if o.Kind != Inner {
				j.joinTaskKind(w, wk, &sinks[w.ID], o.Kind, o.ScalarKernels, bits, wk.buildScratch, wk.probeScratch, bl, pl, op)
			} else if o.ScalarKernels {
				j.joinTask(wk, &sinks[w.ID], bits, wk.buildScratch, wk.probeScratch, bl)
				// Stream both sides once, plus one table operation per tuple.
				w.AddBytes(int64(bl+pl) * (tuple.Bytes + op))
			} else {
				j.joinTaskBatch(w, wk, &sinks[w.ID], bits, wk.buildScratch, wk.probeScratch, bl, pl, op)
			}
		})
		freeWorkerStates(states)
	}
	if err != nil {
		release()
		return nil, err
	}
	end := time.Now()

	res.BuildOrPartition = partitionDone.Sub(start)
	res.ProbeOrJoin = end.Sub(partitionDone)
	res.Total = end.Sub(start)
	mergeSinks(res, sinks)
	mergePre(res, &pre)
	res.MaxTaskShare = maxTaskShare(parts, probeLen)

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

// opBytes is the modeled per-tuple table traffic of the join's table
// kind (see hashtable.OpBytes), used to attribute join-phase bytes.
func (j *radixJoin) opBytes() int64 {
	switch j.table {
	case linearKind:
		return hashtable.LinearOpBytes
	case arrayKind:
		return hashtable.ArrayOpBytes
	default:
		return hashtable.ChainedOpBytes
	}
}

// workerState holds one worker's reusable join table so that thousands
// of co-partition tasks do not allocate thousands of tables.
type workerState struct {
	kind          tableKind
	hash          func(tuple.Key) uint64
	a             *exec.Arena // backs the tables' storage; nil = plain heap
	chained       *hashtable.ChainedTable
	chainedCap    int
	linear        *hashtable.LinearTable
	array         *hashtable.ArrayTable
	domainPerPart int
	// batch is the worker's batch-kernel plumbing (cursor, scratch,
	// staging and match buffers), reused across all its tasks.
	batch batchState
	// buildScratch and probeScratch are reused fragment-header slices
	// for the task loop's buildFrags/probeFrags gathering; after a few
	// tasks they reach the chunk count and stop growing.
	buildScratch []tuple.Relation
	probeScratch []tuple.Relation
}

func newWorkerState(kind tableKind, hash func(tuple.Key) uint64, domainPerPart int, a *exec.Arena) *workerState {
	wk := &workerState{kind: kind, hash: hash, domainPerPart: domainPerPart, a: a}
	if kind == arrayKind {
		wk.array = hashtable.NewArrayTableArena(0, domainPerPart, a)
	}
	return wk
}

// free returns the worker's cached table storage to the arena. The join
// phase calls it on success and error exits alike — with an arena-backed
// (possibly off-heap) run the storage is invisible to the GC, so an
// unfreed table is a real leak, not garbage.
func (wk *workerState) free() {
	if wk.chained != nil {
		wk.chained.Free()
		wk.chained = nil
		wk.chainedCap = 0
	}
	if wk.linear != nil {
		wk.linear.Free()
		wk.linear = nil
	}
	if wk.array != nil {
		wk.array.Free()
		wk.array = nil
	}
}

func freeWorkerStates(states []*workerState) {
	for _, wk := range states {
		if wk != nil {
			wk.free()
		}
	}
}

// chainedFor returns a chained table sized for n tuples, reusing the
// cached one when possible.
func (wk *workerState) chainedFor(n int) *hashtable.ChainedTable {
	if wk.chained == nil || n > wk.chainedCap {
		if wk.chained != nil {
			wk.chained.Free()
		}
		wk.chained = hashtable.NewChainedTableArena(n, wk.hash, wk.a)
		wk.chainedCap = n
	} else {
		wk.chained.Reset()
	}
	return wk.chained
}

// linearFor returns a linear-probing table with capacity for n tuples.
func (wk *workerState) linearFor(n int) *hashtable.LinearTable {
	if wk.linear == nil || n*2 > wk.linear.Slots() {
		if wk.linear != nil {
			wk.linear.Free()
		}
		wk.linear = hashtable.NewLinearTableArena(n, wk.hash, wk.a)
	} else {
		wk.linear.Reset()
	}
	return wk.linear
}

// joinTask joins one co-partition: build a table over the build
// fragments, probe the probe fragments. Reading the (possibly
// NUMA-remote) fragments sequentially while loading them into a local
// table is exactly the CPRL join step of Section 6.1; for the PR*
// variants there is a single fragment per side.
//
// Keys inside partition p all share their low `bits` bits, so the
// per-partition tables index on the remaining high bits (k >> bits),
// exactly like the radix-join implementations of Balkesen et al. —
// hashing the raw key into a table smaller than 2^bits slots would send
// the whole partition to one slot. Shifted equality is full equality
// within a partition, so lookups stay exact.
//
//mmjoin:hotpath
func (j *radixJoin) joinTask(wk *workerState, s *sink, bits uint, buildFrags, probeFrags []tuple.Relation, buildLen int) {
	if buildLen == 0 {
		return
	}
	switch wk.kind {
	case chainedKind:
		ht := wk.chainedFor(buildLen)
		for _, frag := range buildFrags {
			for _, tp := range frag {
				ht.Insert(tuple.Tuple{Key: tp.Key >> bits, Payload: tp.Payload})
			}
		}
		for _, frag := range probeFrags {
			for _, tp := range frag {
				if p, ok := ht.Lookup(tp.Key >> bits); ok {
					s.emit(p, tp.Payload)
				}
			}
		}
	case linearKind:
		ht := wk.linearFor(buildLen)
		for _, frag := range buildFrags {
			for _, tp := range frag {
				ht.Insert(tuple.Tuple{Key: tp.Key >> bits, Payload: tp.Payload})
			}
		}
		for _, frag := range probeFrags {
			for _, tp := range frag {
				if p, ok := ht.Lookup(tp.Key >> bits); ok {
					s.emit(p, tp.Payload)
				}
			}
		}
	case arrayKind:
		at := wk.array
		at.Reset()
		for _, frag := range buildFrags {
			for _, tp := range frag {
				at.Insert(tuple.Tuple{Key: tp.Key >> bits, Payload: tp.Payload})
			}
		}
		for _, frag := range probeFrags {
			for _, tp := range frag {
				if p, ok := at.Lookup(tp.Key >> bits); ok {
					s.emit(p, tp.Payload)
				}
			}
		}
	}
}
