// Package join implements the thirteen main-memory equi-join algorithms
// compared by Schuh, Chen and Dittrich, "An Experimental Comparison of
// Thirteen Relational Equi-Joins in Main Memory" (SIGMOD 2016), behind a
// single Algorithm interface:
//
//	partition-based:  PRB, PRO, PRL, PRA, PROiS, PRLiS, PRAiS, CPRL, CPRA
//	no-partitioning:  NOP, NOPA, CHTJ
//	sort-merge:       MWAY
//
// Every algorithm reports the paper's two-phase time split ("build or
// partition" vs "probe or join", Table 3) and can account the NUMA
// traffic its memory access pattern would generate on the paper's
// four-socket machine (see internal/numa and DESIGN.md for the
// simulation contract).
package join

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/numa"
	"mmjoin/internal/radix"
	"mmjoin/internal/spill"
	"mmjoin/internal/trace"
	"mmjoin/internal/tuple"
)

// Class is the taxonomy of Section 3.
type Class string

const (
	// Partition marks partition-based hash joins.
	Partition Class = "partition-based"
	// NoPartition marks no-partitioning hash joins.
	NoPartition Class = "no-partitioning"
	// SortMerge marks sort-merge joins.
	SortMerge Class = "sort-merge"
)

// Options configures one join execution.
type Options struct {
	// Threads is the worker count; 0 means 1.
	Threads int
	// RadixBits is the total radix bits for partition-based joins.
	// 0 selects Equation (1) via radix.PredictBits (except PRB, which
	// keeps its fixed 7+7 two-pass split from Balkesen et al.).
	RadixBits uint
	// Hash selects the hash function; the zero value is identity, the
	// paper's default (Section 7.1).
	Hash hashfn.Hash
	// Domain is the key-domain size for the array joins (keys are in
	// [0, Domain)). 0 derives it from the maximum build key.
	Domain int
	// Materialize collects the matched payload pairs in Result.Pairs
	// instead of only counting.
	Materialize bool
	// Topology is the modeled NUMA machine; the zero value means the
	// paper's four-socket topology.
	Topology numa.Topology
	// Traffic, when non-nil, receives the NUMA byte-traffic the join's
	// access pattern generates under the modeled topology.
	Traffic *numa.Traffic
	// AdaptBitsToDomain grows the radix bit count with the key domain
	// so per-partition arrays keep fitting in cache — the dashed-line
	// remedy of Appendix C (array joins only).
	AdaptBitsToDomain bool
	// ForceTwoPass makes the one-pass radix joins partition in two
	// passes (bits split evenly) while keeping their other
	// optimizations — the pass-count ablation of Figure 2.
	ForceTwoPass bool
	// SplitSkewedTasks enables skew-aware task decomposition in the
	// radix joins: oversized co-partitions are probed by several
	// workers against a shared prebuilt table. An extension the paper
	// notes but does not exploit (Appendix A).
	SplitSkewedTasks bool
	// Geometry is the cache geometry for Equation (1); zero value means
	// the paper machine.
	Geometry radix.CacheGeometry
	// Arena recycles partition buffers, histograms and scratch arrays
	// across repeated joins. nil means the process-wide exec.Shared
	// arena; tests needing isolated reuse accounting pass their own.
	// A non-nil arena additionally backs the join tables' storage
	// (bucket arrays, slot arrays, presence bitmaps), which the join
	// returns to the arena before finishing — the leak balance the
	// differential oracle asserts per case.
	Arena *exec.Arena
	// OffHeap places the join's recycled buffers and table storage in
	// GC-free off-heap arenas: mmap-backed regions (transparent huge
	// pages advised, explicit huge pages when the kernel grants them)
	// that the collector never scans, so multi-gigabyte build tables
	// stop inflating GC mark phases. Implied arena: when Arena is nil,
	// the process-wide exec.SharedOffHeap arena is used. A no-op (plain
	// heap fallback with identical results) on platforms without mmap
	// or when MMJOIN_OFFHEAP=off disables the allocator.
	OffHeap bool
	// PhaseHook, when non-nil, is invoked with each phase name as the
	// execution layer starts it — a tracing point, also used by the
	// cancellation tests to cancel at an exact phase boundary.
	PhaseHook func(phase string)
	// Tracer, when non-nil, records per-phase/per-worker/per-task spans
	// of the execution (with byte and allocation counters) and makes
	// the execution layer attach PhaseMetrics to Result.Exec. Nil
	// (trace.Disabled) keeps the hot loops on their untraced fast path.
	Tracer *trace.Tracer
	// Gate, when non-nil, makes the execution's workers acquire shared
	// CPU slots before running and yield them at morsel boundaries
	// whenever another execution is waiting (see exec.Gate). The join
	// service hands every query the same gate so concurrent queries
	// share cores fairly instead of oversubscribing Threads × queries
	// goroutines; nil (single-query harnesses) costs one nil check per
	// morsel.
	Gate *exec.Gate
	// Schedule, when non-nil, pins the execution to a deterministic
	// single-goroutine replay of one task interleaving (see
	// exec.SchedulePolicy). Used by the differential oracle to make a
	// join a pure function of (inputs, options, schedule seed); nil
	// keeps the default concurrent execution.
	Schedule exec.SchedulePolicy
	// ScalarKernels disables the batch-at-a-time probe/build kernels and
	// runs the original tuple-at-a-time loops instead — the scalar leg of
	// the ablbatch ablation (see EXPERIMENTS.md). The default (false) is
	// the batched path: hashes computed a batch at a time, bucket walks
	// interleaved across lanes, matches emitted through sink.emitBatch.
	ScalarKernels bool
	// Kind selects the join variant (inner, outer, semi, anti); the zero
	// value is the paper's inner equi-join and keeps its hot path
	// untouched. See kind.go for the variant contract.
	Kind Kind
	// NullableKeys declares that either input may contain null-keyed
	// tuples (tuple.NullKey). Null keys never match — not even each other
	// — and surface only as outer/anti padding. When unset, inputs are
	// trusted null-free and a stray NullKey is undefined behavior (it
	// would be treated as an ordinary key value).
	NullableKeys bool
	// MemoryBudget caps the modeled memory the build side may occupy at
	// once, in bytes (0 = unlimited). Only the budget-aware algorithms
	// honor it: HYBRID spills radix partitions that would bust the
	// budget to temp files and recurses per partition, and ADAPT falls
	// back to HYBRID whenever its estimate exceeds the budget. The
	// in-memory Table 2 algorithms ignore it. See DESIGN.md §13 for the
	// accounting rule (16 bytes per resident build tuple: the tuple
	// plus its multimap slots).
	MemoryBudget int64
	// SpillDir is the parent directory for HYBRID's spill files; empty
	// means the OS temp dir. Each execution creates (and removes) its
	// own subdirectory.
	SpillDir string
	// MaxSpillDepth bounds HYBRID's recursive re-partitioning of
	// over-budget spilled partitions; at the floor it switches to a
	// budget-respecting block nested-loop pass so skewed single-key
	// partitions terminate. 0 means the default depth (4).
	MaxSpillDepth int
	// SpillInjector, when non-nil, arms one deterministic spill-layer
	// fault (temp-file creation failure, short write, read corruption)
	// for the differential oracle's fault-injection checks.
	SpillInjector *spill.Injector
}

func (o *Options) normalize() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Threads < 1 {
		out.Threads = 1
	}
	if out.Topology.Nodes == 0 {
		out.Topology = numa.PaperTopology()
	}
	if out.Geometry.L2Bytes == 0 {
		out.Geometry = radix.PaperMachine()
	}
	if out.OffHeap && out.Arena == nil {
		out.Arena = exec.SharedOffHeap
	}
	return out
}

// Result is the outcome of one join execution.
type Result struct {
	// Algorithm is the algorithm name (Table 2 abbreviation).
	Algorithm string
	// Matches is the number of result tuples.
	Matches int64
	// Checksum is an order-independent checksum over the emitted payload
	// pairs; two correct algorithms agree on it for the same inputs.
	Checksum uint64
	// Pairs holds the materialized result when Options.Materialize.
	Pairs []tuple.Pair
	// BuildOrPartition and ProbeOrJoin are the paper's two-phase time
	// split (Table 3: "Build or Partition Phase", "Probe or Join
	// Phase").
	BuildOrPartition time.Duration
	ProbeOrJoin      time.Duration
	// Total is the end-to-end join time.
	Total time.Duration
	// Bits is the radix bit count actually used (partition joins).
	Bits uint
	// Threads echoes the worker count used.
	Threads int
	// InputTuples is |R|+|S|.
	InputTuples int64
	// MaxTaskShare is the probe-tuple share of the largest join-phase
	// task, in units of the balanced per-partition share (1.0 =
	// balanced; >> 1 marks the stragglers behind Appendix A's
	// "unbalanced loads between threads"). Under SplitSkewedTasks a
	// split partition's tasks are its probe ranges. Zero for
	// non-partitioned joins.
	MaxTaskShare float64
	// SpilledPartitions and SpilledBytes report HYBRID's memory
	// pressure response: how many radix partitions left memory and how
	// many bytes went through the spill writers. Zero for in-memory
	// runs.
	SpilledPartitions int
	SpilledBytes      int64
	// Picked is the delegate ADAPT selected at runtime (its own
	// Algorithm field stays "ADAPT"); empty for every other algorithm.
	Picked string
	// Exec is the execution layer's telemetry: per-phase wall times,
	// tasks executed per worker, morsel counts, and the join-phase
	// queue strategy. Populated by every algorithm.
	Exec *exec.Stats
}

// ThroughputMTuplesPerSec is the paper's input-based throughput metric,
// (|R|+|S|) / runtime, in million tuples per second.
func (r *Result) ThroughputMTuplesPerSec() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.InputTuples) / r.Total.Seconds() / 1e6
}

// Algorithm is one of the thirteen joins.
type Algorithm interface {
	// Name returns the Table 2 abbreviation, e.g. "CPRL".
	Name() string
	// Class returns the Section 3 taxonomy class.
	Class() Class
	// Description is the one-line summary from Table 2.
	Description() string
	// Run joins build ⋈ probe on the join keys and returns measurements.
	// It is RunContext with a background context.
	Run(build, probe tuple.Relation, opts *Options) (*Result, error)
	// RunContext is Run under a context: a cancelled or expired ctx
	// makes the join return promptly with ctx.Err(), with all worker
	// goroutines joined (none leak) and no partial Result. Cancellation
	// is observed at morsel and task-pop boundaries of the execution
	// layer (internal/exec), so the latency to return is one morsel of
	// work per worker.
	RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error)
}

// newPool builds the exec pool for one join execution from the
// normalized options; label names the execution's trace process track
// (the algorithm abbreviation).
func newPool(ctx context.Context, o *Options, label string) *exec.Pool {
	pool := exec.NewPool(ctx, o.Threads)
	pool.SetArena(o.Arena)
	pool.SetGate(o.Gate)
	pool.SetPhaseHook(o.PhaseHook)
	if o.Tracer != nil {
		pool.SetTracer(o.Tracer, label)
	}
	pool.SetSchedule(o.Schedule)
	return pool
}

// sink accumulates matches for one worker: counting always, pairs only
// when materializing. Keeping it concrete (not an interface) keeps the
// per-match cost to a couple of adds in the hot probe loops.
type sink struct {
	matches     int64
	checksum    uint64
	pairs       []tuple.Pair
	materialize bool
}

// emit records one match. It is called once per result tuple from
// every probe loop.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:inline
func (s *sink) emit(buildPayload, probePayload tuple.Payload) {
	s.matches++
	s.checksum += uint64(buildPayload)<<32 | uint64(probePayload)
	if s.materialize {
		//mmjoin:allow(hotalloc) materialization output grows amortized; the checksum-only path allocates nothing
		s.pairs = append(s.pairs, tuple.Pair{BuildPayload: buildPayload, ProbePayload: probePayload})
	}
}

// emitBatch records one batch of matches: lane i pairs buildPayloads[i]
// with probePayloads[i]. It is the batched counterpart of emit — the
// ProbeJoinBatch kernels and the batched merge join hand their
// compacted match buffers here, so the per-match bookkeeping runs as a
// tight sum loop instead of a call per tuple.
//
//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func (s *sink) emitBatch(buildPayloads, probePayloads []tuple.Payload) {
	if len(probePayloads) < len(buildPayloads) {
		//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on kernel misuse
		panic("join: emitBatch lane buffers disagree")
	}
	probePayloads = probePayloads[:len(buildPayloads)]
	var sum uint64
	for i, bp := range buildPayloads {
		sum += uint64(bp)<<32 | uint64(probePayloads[i])
	}
	s.matches += int64(len(buildPayloads))
	s.checksum += sum
	if s.materialize {
		for i, bp := range buildPayloads {
			//mmjoin:allow(hotalloc) materialization output grows amortized; the checksum-only path allocates nothing
			s.pairs = append(s.pairs, tuple.Pair{BuildPayload: bp, ProbePayload: probePayloads[i]})
		}
	}
}

// mergeSinks folds per-worker sinks into a result.
func mergeSinks(res *Result, sinks []sink) {
	for i := range sinks {
		res.Matches += sinks[i].matches
		res.Checksum += sinks[i].checksum
		res.Pairs = append(res.Pairs, sinks[i].pairs...)
	}
}

// maxKeyDomain returns max key + 1 over the relation (0 for empty).
// tuple.NullKey is skipped: it is a reserved sentinel, not a domain
// value, and counting it would balloon the array joins' tables.
func maxKeyDomain(rel tuple.Relation) int {
	var m tuple.Key
	seen := false
	for _, tp := range rel {
		if tp.Key == tuple.NullKey {
			continue
		}
		if !seen || tp.Key > m {
			m = tp.Key
			seen = true
		}
	}
	if !seen {
		return 0
	}
	return int(m) + 1
}

// Spec describes one algorithm for the Table 2 registry.
type Spec struct {
	Name        string
	Class       Class
	Description string
	// Paper cites where the algorithm was introduced, "this" for the
	// paper's own contributions (Table 2's Paper column).
	Paper string
	New   func() Algorithm
}

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// Algorithms returns the specs of all registered algorithms in Table 2
// order.
func Algorithms() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		return table2Order(out[i].Name) < table2Order(out[j].Name)
	})
	return out
}

// table2Order gives the row order of Table 2.
func table2Order(name string) int {
	order := []string{"PRB", "NOP", "CHTJ", "MWAY", "NOPA", "PRO", "PRL", "PRA",
		"CPRL", "CPRA", "PROiS", "PRLiS", "PRAiS"}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// New returns a fresh instance of the named algorithm.
func New(name string) (Algorithm, error) {
	for _, s := range registry {
		if s.Name == name {
			return s.New(), nil
		}
	}
	return nil, fmt.Errorf("join: unknown algorithm %q", name)
}

// MustNew is New for static names in examples and benchmarks.
func MustNew(name string) Algorithm {
	a, err := New(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names returns all registered algorithm names in Table 2 order.
func Names() []string {
	specs := Algorithms()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// maxTaskShare computes the largest of n join-phase tasks' probe share
// relative to a balanced split of the probe side over parts partitions.
// taskLen(i) is task i's probe tuple count; the tasks cover the probe
// side exactly once.
func maxTaskShare(parts, n int, taskLen func(i int) int) float64 {
	if parts == 0 {
		return 0
	}
	total, largest := 0, 0
	for i := 0; i < n; i++ {
		l := taskLen(i)
		total += l
		largest = max(largest, l)
	}
	if total == 0 {
		return 0
	}
	return float64(largest) / (float64(total) / float64(parts))
}
