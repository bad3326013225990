package join

import (
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
)

func TestPlanSkewSplitUniform(t *testing.T) {
	probeLens := []int{10, 10, 10, 10}
	tasks := planTasks(probeLens, []int{0, 1, 2, 3}, 4, true)
	if len(tasks) != 4 {
		t.Fatalf("uniform workload split into %d tasks", len(tasks))
	}
	for _, task := range tasks {
		if task.split {
			t.Fatal("uniform partition was split")
		}
	}
}

func TestPlanSkewSplitOversized(t *testing.T) {
	// One partition holds 91% of the probe side.
	probeLens := []int{1000, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	tasks := planTasks(probeLens, exec.SequentialOrder(10), 8, true)
	splitTasks := 0
	covered := 0
	for _, task := range tasks {
		if task.part == 0 {
			if !task.split {
				t.Fatal("oversized partition not split")
			}
			splitTasks++
			covered += task.probeHi - task.probeLo
		}
	}
	if splitTasks < 2 {
		t.Fatalf("oversized partition produced only %d tasks", splitTasks)
	}
	if covered != 1000 {
		t.Fatalf("split tasks cover %d probe tuples, want 1000", covered)
	}
}

func TestPlanSkewSplitEmpty(t *testing.T) {
	tasks := planTasks([]int{0, 0}, []int{0, 1}, 4, true)
	if len(tasks) != 2 {
		t.Fatalf("len = %d", len(tasks))
	}
}

// TestSkewSplitCorrectness runs every kind in both kernel flavors over
// heavy skew, where oversized partitions are split into probe ranges
// against prebuilt shared tables. The results must equal the
// reference's, each phase must charge the same bytes in both flavors,
// and a skew-prebuild phase must have run, so splits really happened.
func TestSkewSplitCorrectness(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 1 << 16, Zipf: 0.99, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	missProbe(w, 7)
	for _, kind := range Kinds() {
		ref, err := (Reference{}).Run(w.Build, w.Probe, &Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"PRO", "PRL", "PRA", "CPRL", "CPRA", "PROiS", "PRAiS"} {
			var phases [2][]exec.PhaseStat
			for i, scalar := range []bool{false, true} {
				res, err := MustNew(name).Run(w.Build, w.Probe, &Options{
					Threads: 8, Domain: w.Domain, SplitSkewedTasks: true, RadixBits: 6,
					Kind: kind, ScalarKernels: scalar,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
					t.Errorf("%s %s (scalar=%v) with skew splitting: %d matches (checksum ok=%v), want %d",
						name, kind, scalar, res.Matches, res.Checksum == ref.Checksum, ref.Matches)
				}
				if res.Exec.Phase("skew-prebuild") == nil {
					t.Errorf("%s %s (scalar=%v): no skew-prebuild phase, nothing was split", name, kind, scalar)
				}
				phases[i] = res.Exec.Phases
			}
			if len(phases[0]) != len(phases[1]) {
				t.Fatalf("%s %s: %d batch phases, %d scalar", name, kind, len(phases[0]), len(phases[1]))
			}
			for i, b := range phases[0] {
				if sc := phases[1][i]; b.Name != sc.Name || b.Bytes != sc.Bytes {
					t.Errorf("%s %s phase %d: batch %s charged %d bytes, scalar %s %d",
						name, kind, i, b.Name, b.Bytes, sc.Name, sc.Bytes)
				}
			}
		}
	}
}

// TestMaxTaskShareCountsSplitRanges: a split partition's tasks are its
// probe ranges, so splitting shrinks the reported straggler share, and
// a run in which nothing splits reports the share of the plain run.
func TestMaxTaskShareCountsSplitRanges(t *testing.T) {
	share := func(zipf float64, split bool) (float64, bool) {
		t.Helper()
		w, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 1 << 16, Zipf: zipf, Seed: 24})
		if err != nil {
			t.Fatal(err)
		}
		res, err := MustNew("CPRL").Run(w.Build, w.Probe, &Options{
			Threads: 8, Domain: w.Domain, SplitSkewedTasks: split, RadixBits: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxTaskShare, res.Exec.Phase("skew-prebuild") != nil
	}
	plain, _ := share(0.99, false)
	split, didSplit := share(0.99, true)
	t.Logf("Zipf 0.99 CPRL: MaxTaskShare %.2f unsplit, %.2f split", plain, split)
	if !didSplit || split >= plain {
		t.Errorf("Zipf 0.99: share %.2f with the split (split ran: %v), %.2f without; want smaller",
			split, didSplit, plain)
	}
	plain, _ = share(0, false)
	split, didSplit = share(0, true)
	if didSplit || split != plain {
		t.Errorf("uniform: share %.2f with the split (split ran: %v), %.2f without; want equal and no split",
			split, didSplit, plain)
	}
}

func TestSkewSplitCorrectnessUniform(t *testing.T) {
	// No partition qualifies for splitting: the path must degrade to
	// the plain join.
	w, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 1 << 14, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := (Reference{}).Run(w.Build, w.Probe, &Options{})
	res, err := MustNew("CPRL").Run(w.Build, w.Probe, &Options{
		Threads: 4, Domain: w.Domain, SplitSkewedTasks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
		t.Fatalf("uniform + splitting changed the result")
	}
}

func TestSkewSplitMaterialized(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 512, ProbeSize: 1 << 13, Zipf: 0.9, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	refOpts := Options{Materialize: true}
	ref, _ := (Reference{}).Run(w.Build, w.Probe, &refOpts)
	res, err := MustNew("PRL").Run(w.Build, w.Probe, &Options{
		Threads: 8, Domain: w.Domain, SplitSkewedTasks: true, Materialize: true, RadixBits: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(ref.Pairs) {
		t.Fatalf("materialized %d pairs, want %d", len(res.Pairs), len(ref.Pairs))
	}
}
