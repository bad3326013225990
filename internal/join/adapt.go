package join

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mmjoin/internal/exec"
	"mmjoin/internal/tuple"
)

// ADAPT is the runtime adaptive driver: instead of trusting the caller
// to pick an algorithm, it samples the first morsel of each input,
// estimates the workload profile the advisor reasons over (cardinality,
// key density, domain size, probe skew, duplication), and delegates to
// the advisor's pick — falling back to the spilling HYBRID join
// whenever the estimated build footprint busts Options.MemoryBudget.
// The sampling pass is inline, single-threaded and deterministic (a
// pure function of the input prefixes), so an ADAPT run stays exactly
// replayable under the oracle's seeded schedules and adds no pool
// phases of its own: the recorded phases are the delegate's.

// Adaptive classifies the runtime picker, which has no fixed strategy
// of its own.
const Adaptive Class = "adaptive"

func init() {
	registerAblation(Spec{
		Name:  "ADAPT",
		Class: Adaptive,
		Description: "Runtime adaptive driver: samples the first morsels, feeds the " +
			"Section 9 advisor, and delegates — to HYBRID when the estimate busts the memory budget",
		Paper: "this; first-morsel statistics after the MPSM range splitters",
		New:   func() Algorithm { return &adaptiveJoin{} },
	})
}

// adaptSampleTuples is the per-side sample size: one morsel, the same
// granularity the MPSM range splitters are computed from.
const adaptSampleTuples = exec.MorselTuples

type adaptiveJoin struct{}

func (j *adaptiveJoin) Name() string        { return "ADAPT" }
func (j *adaptiveJoin) Class() Class        { return Adaptive }
func (j *adaptiveJoin) Description() string { return describe("ADAPT") }

func (j *adaptiveJoin) Run(build, probe tuple.Relation, opts *Options) (*Result, error) {
	//mmjoin:allow(ctxflow) Run is the documented context-free compatibility wrapper over RunContext
	return j.RunContext(context.Background(), build, probe, opts)
}

func (j *adaptiveJoin) RunContext(ctx context.Context, build, probe tuple.Relation, opts *Options) (*Result, error) {
	o := opts.normalize()
	prof := SampleProfile(build, probe, o.Threads, o.MemoryBudget)
	rec := Recommend(prof)
	sub := o
	if sub.RadixBits == 0 {
		sub.RadixBits = rec.RadixBits
	}
	delegate, err := NewAny(rec.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("join: ADAPT picked unregistered algorithm %q: %w", rec.Algorithm, err)
	}
	res, err := delegate.RunContext(ctx, build, probe, &sub)
	if err != nil {
		return nil, err
	}
	res.Picked = rec.Algorithm
	res.Algorithm = "ADAPT"
	return res, nil
}

// SampleProfile estimates a WorkloadProfile from the first morsel of
// each input — the runtime statistics ADAPT feeds the advisor. The
// cardinalities and budget are exact (they are metadata, not data);
// density, domain size, skew and duplication are estimated from the
// sampled prefix. Deterministic: a pure function of the inputs.
func SampleProfile(build, probe tuple.Relation, threads int, budget int64) WorkloadProfile {
	prof := WorkloadProfile{
		BuildTuples:  len(build),
		ProbeTuples:  len(probe),
		Threads:      threads,
		MemoryBudget: budget,
	}
	bn := min(len(build), adaptSampleTuples)
	seen := make(map[tuple.Key]struct{}, bn)
	var maxKey tuple.Key
	valid := 0
	for _, tp := range build[:bn] {
		if tp.Key == tuple.NullKey {
			continue
		}
		valid++
		seen[tp.Key] = struct{}{}
		if tp.Key > maxKey {
			maxKey = tp.Key
		}
	}
	// Dense = no duplicate key in the sample (the workloads' build sides
	// are key columns). The domain estimate extrapolates the sample
	// maximum: for m uniform draws over [0, D), E[max] ≈ D·m/(m+1).
	prof.KeysDense = valid > 0 && len(seen) == valid
	if valid > 0 {
		est := (uint64(maxKey) + 1) * uint64(valid+1) / uint64(valid)
		prof.DomainSize = int(est)
	}

	pn := min(len(probe), adaptSampleTuples)
	freq := make(map[tuple.Key]int, pn)
	pvalid := 0
	for _, tp := range probe[:pn] {
		if tp.Key == tuple.NullKey {
			continue
		}
		pvalid++
		freq[tp.Key]++
	}
	if len(freq) > 0 {
		prof.DupFactor = float64(pvalid) / float64(len(freq))
		prof.ZipfSkew = estimateZipf(freq, pvalid)
	}
	return prof
}

// estimateZipf fits a Zipf exponent to the sampled probe-key frequency
// spectrum: for frequencies f(r) ∝ r^-θ the log-log rank/frequency
// plot is a line of slope -θ, so an ordinary least-squares fit over
// the statistically stable head ranks recovers θ. Sparse spectra (no
// rank reaches a stable count — the uniform case at sample size) read
// as no skew.
func estimateZipf(freq map[tuple.Key]int, n int) float64 {
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// Only ranks observed ≥5 times carry a usable frequency estimate;
	// fewer than 8 such ranks is too little line to fit.
	k := 0
	for k < len(counts) && k < 64 && counts[k] >= 5 {
		k++
	}
	if k < 8 {
		return 0
	}
	// Flatness guard: under a uniform distribution the head counts are
	// pure Poisson noise around the mean multiplicity, and fitting a
	// line through noise reads as mild skew. Real Zipf heads tower over
	// the mean; a top rank within 10x of it is indistinguishable from
	// uniform at this sample size.
	if float64(counts[0]) < 10*float64(n)/float64(len(counts)) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for r := 0; r < k; r++ {
		x := math.Log(float64(r + 1))
		y := math.Log(float64(counts[r]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := float64(k)*sxx - sx*sx
	if den <= 0 {
		return 0
	}
	theta := -(float64(k)*sxy - sx*sy) / den
	return max(0, min(theta, 1.2))
}
