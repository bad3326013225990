package bench

import (
	"testing"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/join"
	"mmjoin/internal/mway"
)

// Shape-regression tests: the paper's headline claims, asserted as
// code so a refactor that silently breaks a reproduced result fails CI.
// (The TLB and NUMA shapes are asserted in internal/memsim and
// internal/numasim respectively; these cover the measured-wall-clock
// shapes.)

func shapeWorkload(t *testing.T, build, probe int, zipf float64) *datagen.Workload {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{BuildSize: build, ProbeSize: probe, Zipf: zipf, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func run(t *testing.T, name string, w *datagen.Workload) *join.Result {
	t.Helper()
	res, err := runJoinRepeat(Config{}, name, w, join.Options{Threads: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Lesson (7): the array join beats the hash-table join on dense keys —
// NOPA > NOP on the canonical workload.
func TestShapeArrayBeatsHashTable(t *testing.T) {
	w := shapeWorkload(t, 1<<18, 10<<18, 0)
	nop := run(t, "NOP", w)
	nopa := run(t, "NOPA", w)
	if nopa.Total >= nop.Total {
		t.Fatalf("NOPA (%v) not faster than NOP (%v) on dense keys", nopa.Total, nop.Total)
	}
}

// Lesson (1) / Figure 10: NOP wins on small inputs; the partition-based
// joins catch up as the global table outgrows the caches. We assert the
// *trend*: NOP's advantage over CPRA shrinks (or flips) from 64k to 4M
// build tuples. Each of the four timings is a min-of-6, with CPRA and
// NOP runs interleaved so a slow stretch of the host hits both.
func TestShapeNOPAdvantageShrinksWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	ratio := func(w *datagen.Workload) float64 {
		t.Helper()
		var best [2]time.Duration
		for i := 0; i < 6; i++ {
			for k, name := range []string{"CPRA", "NOP"} {
				res, err := runJoinRepeat(Config{}, name, w, join.Options{Threads: 8}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 || res.Total < best[k] {
					best[k] = res.Total
				}
			}
		}
		return float64(best[0]) / float64(best[1])
	}
	ratioSmall := ratio(shapeWorkload(t, 1<<16, 10<<16, 0))
	ratioLarge := ratio(shapeWorkload(t, 1<<22, 10<<22, 0))
	t.Logf("CPRA/NOP time ratio: %.2f at 2^16, %.2f at 2^22", ratioSmall, ratioLarge)
	// ratio = CPRA time / NOP time; it must improve (drop) with size.
	if ratioLarge >= ratioSmall {
		t.Fatalf("CPRA/NOP time ratio did not improve with size: %.2f -> %.2f", ratioSmall, ratioLarge)
	}
}

// Figure 2: one-pass partitioning beats two-pass at the same bit count.
func TestShapeOnePassBeatsTwoPass(t *testing.T) {
	w := shapeWorkload(t, 1<<18, 10<<18, 0)
	// min-of-6 plus a bounded retry: the margin narrowed when the arena
	// started recycling the two-pass intermediate buffer (~2% at this
	// scale), so a single comparison still flips under scheduler noise
	// on loaded or single-core hosts. The shape claim is about the
	// ordering holding at all, not about any one sample, so only fail
	// when one-pass loses three comparisons in a row.
	for attempt := 0; ; attempt++ {
		one, err := runJoinRepeat(Config{}, "PRO", w, join.Options{Threads: 8, RadixBits: 8}, 6)
		if err != nil {
			t.Fatal(err)
		}
		two, err := runJoinRepeat(Config{}, "PRO", w, join.Options{Threads: 8, RadixBits: 8, ForceTwoPass: true}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if one.Total < two.Total {
			return
		}
		if attempt == 2 {
			t.Fatalf("one-pass (%v) not faster than two-pass (%v) in %d attempts", one.Total, two.Total, attempt+1)
		}
		t.Logf("attempt %d: one-pass (%v) not faster than two-pass (%v); retrying", attempt+1, one.Total, two.Total)
	}
}

// Section 3.3 (ablorder): the second sort-merge join over an already
// sorted probe side costs a small fraction of the first.
func TestShapeInterestingOrders(t *testing.T) {
	w := shapeWorkload(t, 1<<16, 1<<19, 0)
	start := time.Now()
	sortedS := mway.Sort(append(w.Probe[:0:0], w.Probe...))
	sortedR := mway.Sort(append(w.Build[:0:0], w.Build...))
	var n1 int64
	mway.MergeJoin(sortedR, sortedS, func(a, b uint32) { n1++ })
	first := time.Since(start)

	start = time.Now()
	var n2 int64
	mway.MergeJoin(sortedR, sortedS, func(a, b uint32) { n2++ })
	second := time.Since(start)
	if n1 != n2 {
		t.Fatalf("joins disagree: %d vs %d", n1, n2)
	}
	if second*2 >= first {
		t.Fatalf("order reuse saved too little: first %v, second %v", first, second)
	}
}

// Appendix A: heavy probe skew unbalances the partition-based joins'
// tasks. On one core the imbalance cannot cost wall time (the total
// work is unchanged — that cost only exists with real parallel
// stragglers, asserted on the machine simulator in the ablskew
// experiment and internal/numasim tests), so this asserts the two
// measurable halves: the imbalance metric itself, and that the
// no-partitioning join's task structure is untouched by skew.
func TestShapeSkewUnbalancesPartitionTasks(t *testing.T) {
	uniform := shapeWorkload(t, 1<<18, 10<<18, 0)
	skewed := shapeWorkload(t, 1<<18, 10<<18, 0.99)
	u, err := runJoinRepeat(Config{}, "CPRL", uniform, join.Options{Threads: 8, RadixBits: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runJoinRepeat(Config{}, "CPRL", skewed, join.Options{Threads: 8, RadixBits: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxTaskShare < 4*u.MaxTaskShare {
		t.Fatalf("zipf 0.99 imbalance %.1fx not far above uniform %.1fx",
			s.MaxTaskShare, u.MaxTaskShare)
	}
	n, err := runJoinRepeat(Config{}, "NOP", skewed, join.Options{Threads: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.MaxTaskShare != 0 {
		t.Fatalf("NOP reports partitioned-task imbalance %.1f", n.MaxTaskShare)
	}
}
