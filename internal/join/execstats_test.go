package join

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/trace"
)

// TestAllAlgorithmsPopulateExecStats asserts every Table 2 algorithm
// reports per-phase execution stats on Result.Exec: a worker count, at
// least one phase split across a partition/build and a join/probe side,
// and a positive task count in each recorded phase.
func TestAllAlgorithmsPopulateExecStats(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 14, ProbeSize: 1 << 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Algorithms() {
		res, err := spec.New().Run(w.Build, w.Probe, &Options{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		s := res.Exec
		if s == nil {
			t.Fatalf("%s: Result.Exec not populated", spec.Name)
		}
		if s.Workers != 4 {
			t.Fatalf("%s: workers = %d, want 4", spec.Name, s.Workers)
		}
		if len(s.Phases) < 2 {
			t.Fatalf("%s: %d phases recorded, want >= 2 (partition/build and join/probe)", spec.Name, len(s.Phases))
		}
		for _, p := range s.Phases {
			if p.Tasks <= 0 {
				t.Fatalf("%s: phase %q recorded no tasks", spec.Name, p.Name)
			}
			if len(p.TasksPerWorker) != 4 {
				t.Fatalf("%s: phase %q has %d per-worker entries", spec.Name, p.Name, len(p.TasksPerWorker))
			}
			sum := 0
			for _, n := range p.TasksPerWorker {
				sum += n
			}
			if sum != p.Tasks {
				t.Fatalf("%s: phase %q per-worker sum %d != tasks %d", spec.Name, p.Name, sum, p.Tasks)
			}
		}
	}
}

// TestQueueStrategyRecorded checks the join-phase scheduling strategy
// lands in the stats for the queue-driven algorithms.
func TestQueueStrategyRecorded(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 14, ProbeSize: 1 << 15, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"PRO":   "lifo(sequential)",
		"PROiS": "lifo(round-robin)",
		"CHTJ":  "fifo",
	} {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(w.Build, w.Probe, &Options{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Exec.Queue != want {
			t.Fatalf("%s: queue strategy %q, want %q", name, res.Exec.Queue, want)
		}
	}
}

// measureAllocs runs fn once and returns the bytes allocated by it, with
// the GC parked so the measurement is not disturbed mid-run.
func measureAllocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmRunAllocatesLess is the arena's contract: a second join over
// the same shapes reuses the partition buffers, histograms and scratch
// arrays pooled by the first, so it allocates measurably less.
func TestWarmRunAllocatesLess(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 16, ProbeSize: 1 << 19, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("PRO")
	if err != nil {
		t.Fatal(err)
	}
	// A private arena isolates the test from other tests' pooled
	// buffers; Materialize=false keeps the result sinks out of the
	// comparison.
	opts := &Options{Threads: 4, Arena: exec.NewArena()}
	run := func() {
		if _, err := a.RunContext(context.Background(), w.Build, w.Probe, opts); err != nil {
			t.Fatal(err)
		}
	}
	cold := measureAllocs(run)
	warm := measureAllocs(run)
	// The partition buffers alone are 2(|R|+|S|) tuples ≈ 2x the input;
	// recycling them must cut total allocations well below the cold
	// run. 3/4 is a loose bound — the observed ratio is near 1/10.
	if warm*4 >= cold*3 {
		t.Fatalf("warm run allocated %d bytes, cold %d — arena reuse not visible", warm, cold)
	}
}

// TestWarmTracedRunReusesArena extends the warm-run contract to the
// tracing-enabled path: with a Tracer attached, two back-to-back runs
// over the same shapes must still recycle the arena buffers — and the
// tracer's own span storage — so the warm run allocates a fraction of
// the cold one. Tracer.Reset keeps the span slices' capacity, so
// steady-state tracing adds no per-run growth.
func TestWarmTracedRunReusesArena(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 16, ProbeSize: 1 << 19, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("PRO")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	opts := &Options{Threads: 4, Arena: exec.NewArena(), Tracer: tr}
	run := func() {
		tr.Reset()
		if _, err := a.RunContext(context.Background(), w.Build, w.Probe, opts); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans()) == 0 {
			t.Fatal("tracer recorded no spans; the traced path was not exercised")
		}
	}
	cold := measureAllocs(run)
	warm := measureAllocs(run)
	if warm*4 >= cold*3 {
		t.Fatalf("traced warm run allocated %d bytes, cold %d — arena reuse not visible under tracing", warm, cold)
	}
}

// BenchmarkPROWarmArena demonstrates the allocs/op reduction from the
// arena across repeated joins (the b.ReportAllocs numbers are the
// reviewable artifact).
func BenchmarkPROWarmArena(b *testing.B) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 15, ProbeSize: 1 << 17, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	a, _ := New("PRO")
	b.Run("shared-arena", func(b *testing.B) {
		opts := &Options{Threads: 4, Arena: exec.NewArena()}
		// Prime the arena so every measured iteration is warm.
		if _, err := a.Run(w.Build, w.Probe, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Run(w.Build, w.Probe, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh arena per iteration means nothing to recycle —
			// the cold-path baseline.
			opts := &Options{Threads: 4, Arena: exec.NewArena()}
			if _, err := a.Run(w.Build, w.Probe, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
