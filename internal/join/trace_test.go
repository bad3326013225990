package join

import (
	"bytes"
	"encoding/json"
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/trace"
)

// TestTracerCoversEveryPhaseAllAlgorithms is the tracing layer's
// integration contract: for every algorithm (the thirteen plus the
// ablation joins), every phase that appears in Result.Exec must have at
// least one span on the shared tracer, the driver track must carry a
// whole-phase span, and the exported trace_event JSON must be valid.
func TestTracerCoversEveryPhaseAllAlgorithms(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 14, ProbeSize: 1 << 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	algos := append(Names(), "MPSM", "NOPC")
	tr := trace.New()
	for _, name := range algos {
		var a Algorithm
		a, err = NewAny(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(w.Build, w.Probe, &Options{Threads: 4, Tracer: tr, Domain: w.Domain})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPhases(t, name, tr, res)
	}
	// REF lives outside both registries but shares the pool machinery.
	res, err := (Reference{}).Run(w.Build, w.Probe, &Options{Tracer: tr, Domain: w.Domain})
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, "REF", tr, res)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("combined trace is not valid JSON")
	}
}

func checkPhases(t *testing.T, name string, tr *trace.Tracer, res *Result) {
	t.Helper()
	spans := tr.Spans()
	perPhase := map[string]int{}
	wholePhase := map[string]bool{}
	for _, sp := range spans {
		perPhase[sp.Name]++
		if sp.Task == -1 {
			wholePhase[sp.Name] = true
		}
	}
	if len(res.Exec.Phases) == 0 {
		t.Fatalf("%s: no phases recorded", name)
	}
	for _, ph := range res.Exec.Phases {
		if perPhase[ph.Name] == 0 {
			t.Errorf("%s: phase %q has no spans", name, ph.Name)
		}
		if !wholePhase[ph.Name] {
			t.Errorf("%s: phase %q has no whole-phase driver span", name, ph.Name)
		}
		if ph.Metrics == nil {
			t.Errorf("%s: phase %q missing metrics with tracer attached", name, ph.Name)
		}
	}
}

// TestTracerAttributesBytes spot-checks the byte counters: a radix join
// must report at least one full pass over each side in its partition
// phases and the streamed tuples in its join phase.
func TestTracerAttributesBytes(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 15, ProbeSize: 1 << 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustNew("PRO").Run(w.Build, w.Probe, &Options{Threads: 4, Tracer: trace.New(), Domain: w.Domain})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"partition(R)/histogram", "partition(S)/scatter", "join"} {
		st := res.Exec.Phase(phase)
		if st == nil {
			t.Fatalf("missing phase %q", phase)
		}
		if st.Bytes <= 0 {
			t.Errorf("phase %q reported no bytes", phase)
		}
	}
	// The histogram pass reads each build tuple exactly once.
	if got, want := res.Exec.Phase("partition(R)/histogram").Bytes, int64(len(w.Build)*8); got != want {
		t.Errorf("partition(R)/histogram bytes = %d, want %d", got, want)
	}
}

// TestTracerOffLeavesResultClean locks the off-path behaviour: no
// tracer means no Metrics on any phase (the JSON stays at its PR 1
// shape) while byte counters still accumulate.
func TestTracerOffLeavesResultClean(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 14, ProbeSize: 1 << 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustNew("PRO").Run(w.Build, w.Probe, &Options{Threads: 2, Domain: w.Domain})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range res.Exec.Phases {
		if ph.Metrics != nil {
			t.Fatalf("phase %q has metrics without a tracer", ph.Name)
		}
	}
	if res.Exec.Phase("join").Bytes == 0 {
		t.Fatal("byte counters must accumulate even with tracing off")
	}
}

// BenchmarkPROTracing quantifies the tracing overhead against the
// BenchmarkPROWarmArena-class baseline: "off" must stay within noise of
// a build without the tracing layer (the only added cost is one nil
// check per task), "on" shows the cost of per-task spans.
func BenchmarkPROTracing(b *testing.B) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 15, ProbeSize: 1 << 17, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	a := MustNew("PRO")
	run := func(b *testing.B, opts *Options) {
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
	}
	b.Run("off", func(b *testing.B) {
		run(b, &Options{Threads: 4, Arena: exec.NewArena(), Tracer: trace.Disabled})
	})
	b.Run("on", func(b *testing.B) {
		run(b, &Options{Threads: 4, Arena: exec.NewArena(), Tracer: trace.New()})
	})
}
