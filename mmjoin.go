// Package mmjoin is a Go reproduction of "An Experimental Comparison of
// Thirteen Relational Equi-Joins in Main Memory" (Schuh, Chen, Dittrich;
// SIGMOD 2016): the thirteen join algorithms of the study behind one
// interface, the workload generators of its evaluation, and the
// practitioner guideline of its Section 9 as a decision procedure.
//
// The root package is a facade over the implementation packages:
//
//	internal/join       the thirteen algorithms (the core contribution)
//	internal/exec       shared execution layer: cancellable morsel pool,
//	                    task orders (LIFO, NUMA round-robin), buffer
//	                    arena, per-phase stats and span tracing
//	internal/trace      span recorder, phase metrics, Perfetto export
//	internal/hashtable  chained / linear-probing / CHT / array tables
//	internal/radix      parallel radix partitioning (global, two-pass, chunked)
//	internal/mway       sort-merge machinery
//	internal/datagen    PK/FK workloads, Zipf skew, sparse domains
//	internal/tpch       the TPC-H Q19 column-store study
//	internal/memsim     cache/TLB trace simulator (page-size experiments)
//	internal/numasim    NUMA machine simulator (bandwidth/scheduling/scaling)
//	internal/bench      one experiment per table and figure of the paper
//
// Quick use:
//
//	w, _ := mmjoin.Generate(mmjoin.WorkloadConfig{BuildSize: 1 << 20, ProbeSize: 10 << 20})
//	res, _ := mmjoin.MustNew("CPRA").Run(w.Build, w.Probe, &mmjoin.Options{Threads: 8, Domain: w.Domain})
//	fmt.Println(res.ThroughputMTuplesPerSec())
package mmjoin

import (
	"mmjoin/internal/bench"
	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/tuple"
)

// Core relational types.
type (
	// Tuple is the 8-byte <Key, Payload> pair all algorithms join on.
	Tuple = tuple.Tuple
	// Relation is a flat in-memory relation.
	Relation = tuple.Relation
	// Pair is one materialized join match.
	Pair = tuple.Pair
)

// Join API.
type (
	// Algorithm is one of the thirteen joins of Table 2.
	Algorithm = join.Algorithm
	// Options configures a join execution.
	Options = join.Options
	// Result carries matches, checksums and the two-phase time split.
	Result = join.Result
	// Spec describes an algorithm in the Table 2 registry.
	Spec = join.Spec
	// Class is the Section 3 taxonomy (partition-based,
	// no-partitioning, sort-merge).
	Class = join.Class
)

// Taxonomy constants.
const (
	Partition   = join.Partition
	NoPartition = join.NoPartition
	SortMerge   = join.SortMerge
)

// Kind selects the join variant on Options.Kind. The streamed probe
// relation S is the join's LEFT side, the built relation R its RIGHT
// side; padding rows carry NullPayload in the missing slot (DESIGN.md
// §12).
type Kind = join.Kind

// The six join kinds every algorithm supports.
const (
	Inner      = join.Inner
	LeftOuter  = join.LeftOuter
	RightOuter = join.RightOuter
	FullOuter  = join.FullOuter
	LeftSemi   = join.LeftSemi
	LeftAnti   = join.LeftAnti
)

// NULL-key sentinels: with Options.NullableKeys set, a tuple whose Key
// is NullKey joins with nothing (not even another NULL), and padding
// rows carry NullPayload on their missing side.
const (
	NullKey     = tuple.NullKey
	NullPayload = tuple.NullPayload
)

// Kinds lists the six join kinds in declaration order.
func Kinds() []Kind { return join.Kinds() }

// ParseKind resolves a kind name ("inner", "left-outer", "right-outer",
// "full-outer", "left-semi", "left-anti").
func ParseKind(s string) (Kind, error) { return join.ParseKind(s) }

// Execution telemetry: every Result carries the per-phase record of the
// execution layer on Result.Exec.
type (
	// ExecStats is the execution telemetry of one join run (worker
	// count, queue strategy, per-phase wall time and task counts).
	ExecStats = exec.Stats
	// PhaseStat is one phase's entry in ExecStats.
	PhaseStat = exec.PhaseStat
	// Arena recycles partition buffers and scratch arrays across
	// repeated joins; pass one via Options.Arena for isolated reuse.
	Arena = exec.Arena
)

// NewArena returns an empty private buffer arena.
func NewArena() *Arena { return exec.NewArena() }

// New returns a fresh instance of the named algorithm (Table 2
// abbreviations: PRB, NOP, CHTJ, MWAY, NOPA, PRO, PRL, PRA, CPRL, CPRA,
// PROiS, PRLiS, PRAiS).
func New(name string) (Algorithm, error) { return join.New(name) }

// MustNew is New but panics on unknown names; for static configuration.
func MustNew(name string) Algorithm { return join.MustNew(name) }

// NewAny is New extended to every registered algorithm, including the
// ablations and the budget-aware extensions (HYBRID, ADAPT) —
// everything Recommend can name. Use it to instantiate a
// Recommendation's Algorithm field.
func NewAny(name string) (Algorithm, error) { return join.NewAny(name) }

// Algorithms lists all thirteen algorithms in Table 2 order.
func Algorithms() []Spec { return join.Algorithms() }

// Names lists the algorithm names in Table 2 order.
func Names() []string { return join.Names() }

// Advisor: the Section 9 lessons as a decision procedure.
type (
	// WorkloadProfile describes a join workload for Recommend.
	WorkloadProfile = join.WorkloadProfile
	// Recommendation is the advisor's verdict with its rationale.
	Recommendation = join.Recommendation
)

// Recommend picks an algorithm and radix-bit setting for a workload,
// following the paper's "lessons learned".
func Recommend(w WorkloadProfile) Recommendation { return join.Recommend(w) }

// Workload generation.
type (
	// WorkloadConfig describes a PK/FK workload (sizes, skew, holes).
	WorkloadConfig = datagen.Config
	// Workload is a generated pair of join relations.
	Workload = datagen.Workload
)

// Generate produces a deterministic workload in the paper's setup.
func Generate(c WorkloadConfig) (*Workload, error) { return datagen.Generate(c) }

// Experiment harness: regenerate any table or figure of the paper
// programmatically (cmd/joinbench is a thin wrapper over these).
type (
	// Experiment is one regenerable table or figure.
	Experiment = bench.Experiment
	// ExperimentConfig scales and seeds an experiment run.
	ExperimentConfig = bench.Config
	// Report is a regenerated table or figure with the paper's
	// expected shape attached.
	Report = bench.Report
)

// Experiments lists every regenerable table and figure plus the
// ablation and extension studies.
func Experiments() []Experiment { return bench.Experiments() }

// RunExperiment regenerates one table or figure by id (fig1..fig19,
// tab3, tab4, abl*).
func RunExperiment(id string, cfg ExperimentConfig) (*Report, error) {
	return bench.Run(id, cfg)
}
