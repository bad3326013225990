package join

import (
	"fmt"

	"mmjoin/internal/radix"
)

// WorkloadProfile describes a join workload for the advisor.
type WorkloadProfile struct {
	// BuildTuples is |R|, the smaller (key) relation.
	BuildTuples int
	// ProbeTuples is |S|.
	ProbeTuples int
	// ZipfSkew is the probe-side skew factor (0 = uniform).
	ZipfSkew float64
	// KeysDense marks build keys as unique auto-increment style
	// integers; DomainSize is the key universe (0 means |R|).
	KeysDense  bool
	DomainSize int
	// Threads available for the join.
	Threads int
	// DupFactor is the mean probe multiplicity per distinct probe key
	// (1 = all-distinct probes). Informational; reported by the runtime
	// sampler and echoed in rationales, it does not flip any pick yet.
	DupFactor float64
	// MemoryBudget caps the bytes the build side may occupy at once
	// (0 = unlimited). A budget below the modeled build footprint
	// overrides every in-memory lesson: only HYBRID can honor it.
	MemoryBudget int64
}

// Recommendation is the advisor's verdict.
type Recommendation struct {
	// Algorithm is the Table 2 name to use.
	Algorithm string
	// RadixBits is the Equation (1) setting for partition-based picks
	// (0 for no-partitioning picks).
	RadixBits uint
	// Rationale cites the lessons of Section 9 that led here.
	Rationale []string
}

// Recommend encodes the paper's practitioner guideline (Section 9,
// "Lessons Learned") as a decision procedure:
//
//	(1) don't use CPR* on small inputs — below ~8M build tuples the
//	    chunking and threading overheads dominate and NOP* wins;
//	(3) if in doubt, use a partition-based algorithm for large joins —
//	    except under heavy probe skew (Zipf > 0.9), where the
//	    no-partitioning family catches up;
//	(6) set the radix bits by Equation (1);
//	(7) use the simplest structure that fits: arrays for dense keys.
func Recommend(w WorkloadProfile) Recommendation {
	const smallInputTuples = 8 << 20 // lesson (1): ~8M tuples
	var rec Recommendation
	dense := w.KeysDense && (w.DomainSize == 0 || w.DomainSize <= 4*w.BuildTuples)

	// The budget check outranks every in-memory lesson: the Section 9
	// guidance assumes the build-side table fits in memory, and no
	// Table 2 algorithm degrades gracefully when it does not.
	if w.MemoryBudget > 0 && hybridFootprint(w.BuildTuples) > w.MemoryBudget {
		rec.Algorithm = "HYBRID"
		rec.Rationale = append(rec.Rationale,
			fmt.Sprintf("budget: the modeled build footprint (%d B at 16 B/tuple) exceeds the %d B memory budget; only the spilling hybrid hash join stays within it",
				hybridFootprint(w.BuildTuples), w.MemoryBudget))
		return rec
	}

	switch {
	case w.BuildTuples < smallInputTuples:
		if dense {
			rec.Algorithm = "NOPA"
			rec.Rationale = append(rec.Rationale,
				"lesson (7): dense keys make the array join the simplest and fastest structure")
		} else {
			rec.Algorithm = "NOP"
		}
		rec.Rationale = append(rec.Rationale,
			"lesson (1): below ~8M build tuples partitioning overheads dominate; the NOP* family wins, especially once the build side fits the LLC")
	case w.ZipfSkew > 0.9:
		if dense {
			rec.Algorithm = "NOPA"
			rec.Rationale = append(rec.Rationale,
				"lesson (7): dense keys make the array join the simplest and fastest structure")
		} else {
			rec.Algorithm = "NOP"
		}
		rec.Rationale = append(rec.Rationale,
			"lesson (3): no-partitioning algorithms overtake partition-based ones only for Zipf factors > 0.9 — caches absorb the hot keys and partition sizes stay balanced")
	default:
		if dense {
			rec.Algorithm = "CPRA"
			rec.Rationale = append(rec.Rationale,
				"lesson (7): array join over dense keys outperforms non-array variants by up to 44%")
		} else {
			rec.Algorithm = "CPRL"
		}
		rec.Rationale = append(rec.Rationale,
			"lesson (3): partition-based algorithms win at scale",
			"lesson (8): chunked partitioning eliminates remote writes (up to 26% faster) and NUMA-aware scheduling avoids controller hotspots")
		threads := w.Threads
		if threads < 1 {
			threads = 1
		}
		rec.RadixBits = radix.PredictBits(w.BuildTuples,
			radix.LoadFactorFor(designForAlgo(rec.Algorithm)), threads, radix.PaperMachine())
		rec.Rationale = append(rec.Rationale,
			fmt.Sprintf("lesson (6): Equation (1) picks %d radix bits for this input", rec.RadixBits))
	}
	rec.Rationale = append(rec.Rationale,
		"lesson (4): allocate the join's memory with huge pages",
		"lesson (5): keep software write-combine buffers enabled for any partitioning pass")
	return rec
}

func designForAlgo(name string) string {
	switch name {
	case "CPRA", "PRA", "PRAiS", "NOPA":
		return "array"
	case "CPRL", "PRL", "PRLiS", "NOP":
		return "linear"
	default:
		return "chained"
	}
}
