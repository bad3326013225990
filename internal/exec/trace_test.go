package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mmjoin/internal/trace"
)

func TestTracerRecordsSpansPerPhase(t *testing.T) {
	tr := trace.New()
	pool := NewPool(context.Background(), 2)
	pool.SetTracer(tr, "test-pool")

	_ = pool.Run("chunk", func(w *Worker) {
		w.Morsels(MorselTuples*2, func(begin, end int) {
			w.AddBytes(int64(end - begin))
		})
	})
	_ = pool.RunQueue("queue", NewRange(5), func(w *Worker, task int) {
		w.AddBytes(100)
		w.AddAllocs(1)
	})
	_ = pool.Run("fork", func(w *Worker) {}) // uncounted fork/join chunk

	spans := tr.Spans()
	perPhase := map[string]int{}
	driverPhases := map[string]bool{}
	for _, sp := range spans {
		perPhase[sp.Name]++
	}
	// Every phase in Stats must have at least one span, and a driver
	// whole-phase span (the acceptance criterion of the tracing layer).
	for _, ph := range pool.Stats().Phases {
		if perPhase[ph.Name] == 0 {
			t.Fatalf("phase %q has no spans", ph.Name)
		}
	}
	// Driver spans are the ones with Task == -1 carrying the full phase
	// byte totals.
	for _, sp := range spans {
		if sp.Task == -1 {
			driverPhases[sp.Name] = true
		}
	}
	for _, name := range []string{"chunk", "queue", "fork"} {
		if !driverPhases[name] {
			t.Fatalf("no whole-phase span for %q", name)
		}
	}
	// chunk: 4 morsel spans (2 workers were available but a single
	// worker may grab all morsels of its own range — each worker walks
	// its own Morsels call here, so 2 workers x 2 morsels) + driver.
	if got := perPhase["chunk"]; got != 4+1 {
		t.Fatalf("chunk spans = %d, want 5", got)
	}
	if got := perPhase["queue"]; got != 5+1 {
		t.Fatalf("queue spans = %d, want 6", got)
	}
}

func TestTracerPopulatesPhaseStatCounters(t *testing.T) {
	tr := trace.New()
	pool := NewPool(context.Background(), 2)
	pool.SetTracer(tr, "counters")
	_ = pool.RunQueue("join", NewRange(8), func(w *Worker, task int) {
		w.AddBytes(1024)
		w.AddAllocs(2)
	})
	st := pool.Stats().Phase("join")
	if st == nil {
		t.Fatal("missing phase stat")
	}
	if st.Bytes != 8*1024 {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, 8*1024)
	}
	if st.Allocs != 16 {
		t.Fatalf("Allocs = %d, want 16", st.Allocs)
	}
	m := st.Metrics
	if m == nil {
		t.Fatal("Metrics nil with tracer attached")
	}
	if m.TaskLatency.Count() != 8 {
		t.Fatalf("task latency count = %d, want 8", m.TaskLatency.Count())
	}
	if m.QueueWait.Count() != 8 {
		t.Fatalf("queue wait count = %d, want 8", m.QueueWait.Count())
	}
	if m.Occupancy < 0 || m.Occupancy > 1.0001 {
		t.Fatalf("occupancy = %v", m.Occupancy)
	}
	if m.TaskLatency.Count() > 0 && m.Imbalance < 1 {
		t.Fatalf("imbalance = %v, want >= 1", m.Imbalance)
	}
}

func TestCountersWithoutTracer(t *testing.T) {
	pool := NewPool(context.Background(), 1)
	pool.SetTracer(trace.Disabled, "ignored")
	_ = pool.Run("phase", func(w *Worker) {
		w.Morsels(MorselTuples, func(begin, end int) {
			w.AddBytes(int64(end - begin))
			w.AddAllocs(1)
		})
	})
	st := pool.Stats().Phase("phase")
	// Byte/alloc counters flow into PhaseStat even with tracing off...
	if st.Bytes != MorselTuples || st.Allocs != 1 {
		t.Fatalf("counters off-path: bytes=%d allocs=%d", st.Bytes, st.Allocs)
	}
	// ...but no histograms are built and no spans exist.
	if st.Metrics != nil {
		t.Fatal("Metrics set without a tracer")
	}
}

func TestPhaseStatJSONWithMetrics(t *testing.T) {
	tr := trace.New()
	pool := NewPool(context.Background(), 1)
	pool.SetTracer(tr, "json")
	_ = pool.RunQueue("probe", NewRange(3), func(w *Worker, task int) {
		w.AddBytes(64)
	})
	out, err := json.Marshal(pool.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Phases []map[string]json.RawMessage `json:"phases"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Phases) != 1 {
		t.Fatalf("phases = %d", len(doc.Phases))
	}
	for _, k := range []string{"name", "wall_ns", "tasks", "bytes", "metrics"} {
		if _, ok := doc.Phases[0][k]; !ok {
			t.Fatalf("phase JSON missing %q: %s", k, out)
		}
	}
	var m struct {
		TaskLatency json.RawMessage `json:"task_latency"`
		QueueWait   json.RawMessage `json:"queue_wait"`
		Occupancy   *float64        `json:"occupancy"`
		Imbalance   *float64        `json:"imbalance"`
	}
	if err := json.Unmarshal(doc.Phases[0]["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	if m.TaskLatency == nil || m.QueueWait == nil || m.Occupancy == nil || m.Imbalance == nil {
		t.Fatalf("metrics JSON incomplete: %s", doc.Phases[0]["metrics"])
	}
}

func TestTracedPoolExportsValidTraceEvents(t *testing.T) {
	tr := trace.New()
	pool := NewPool(context.Background(), 2)
	pool.SetTracer(tr, "PRO")
	_ = pool.Run("partition(R)/histogram", func(w *Worker) {
		w.Morsels(MorselTuples, func(begin, end int) {})
	})
	_ = pool.RunQueue("join", NewRange(4), func(w *Worker, task int) {})
	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid trace JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names[e.Name] = true
		}
	}
	for _, ph := range pool.Stats().Phases {
		if !names[ph.Name] {
			t.Fatalf("no trace event for phase %q", ph.Name)
		}
	}
}

// touchMorsel is minimal per-stride work, so the benchmark measures the
// loop machinery (the tracing on/off delta), not the payload.
func touchMorsel(sink *int64, begin, end int) { *sink += int64(end - begin) }

// BenchmarkMorselsTracingOff guards the zero-overhead claim: with
// tracing off the only cost of the tracing layer is one nil check per
// morsel.
func BenchmarkMorselsTracingOff(b *testing.B) {
	pool := NewPool(context.Background(), 1)
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pool.Run("bench", func(w *Worker) {
			w.Morsels(MorselTuples*64, func(begin, end int) {
				touchMorsel(&sink, begin, end)
			})
		})
	}
}

// BenchmarkMorselsTracingOn measures the same loop with a tracer
// attached (per-stride timestamping and span appends).
func BenchmarkMorselsTracingOn(b *testing.B) {
	pool := NewPool(context.Background(), 1)
	pool.SetTracer(trace.New(), "bench")
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pool.Run("bench", func(w *Worker) {
			w.Morsels(MorselTuples*64, func(begin, end int) {
				touchMorsel(&sink, begin, end)
			})
		})
	}
}

// TestTracingLeavesStatsUnchanged runs each task shape — fork/join
// chunks, Run with Morsels, the concurrent queue drain and the
// scheduled drain — once untraced and once traced, and requires the
// same task, byte and alloc counts from both: the tracer adds spans and
// metrics, never work. The traced run must record one span per task
// plus the driver's phase span, and a queue wait for queue tasks only.
func TestTracingLeavesStatsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads int
		sched   bool
		queue   bool
		run     func(p *Pool) error
	}{
		{name: "fork", threads: 3, run: func(p *Pool) error {
			return p.Run("phase", func(w *Worker) {
				w.AddBytes(int64(10 * (w.ID + 1)))
				w.AddAllocs(1)
			})
		}},
		{name: "morsels", threads: 3, run: func(p *Pool) error {
			return p.Run("phase", func(w *Worker) {
				// Worker 0 walks nothing, worker 2 ends on a short stride.
				w.Morsels(w.ID*MorselTuples+w.ID/2*7, func(begin, end int) {
					w.AddBytes(int64(end - begin))
					w.AddAllocs(1)
				})
			})
		}},
		{name: "queue", threads: 1, queue: true, run: func(p *Pool) error {
			return p.RunQueue("phase", NewRange(9), func(w *Worker, task int) {
				w.AddBytes(int64(task))
				w.AddAllocs(2)
			})
		}},
		{name: "scheduled", threads: 4, sched: true, queue: true, run: func(p *Pool) error {
			return p.RunQueue("phase", NewRange(23), func(w *Worker, task int) {
				w.AddBytes(int64(task))
				w.AddAllocs(2)
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stat := func(tr *trace.Tracer) PhaseStat {
				pool := NewPool(context.Background(), tc.threads)
				pool.SetTracer(tr, tc.name)
				if tc.sched {
					pool.SetSchedule(NewSeededSchedule(3))
				}
				if err := tc.run(pool); err != nil {
					t.Fatal(err)
				}
				return pool.Stats().Phases[0]
			}
			tr := trace.New()
			off, on := stat(nil), stat(tr)
			if off.Tasks != on.Tasks || fmt.Sprint(off.TasksPerWorker) != fmt.Sprint(on.TasksPerWorker) ||
				off.Bytes != on.Bytes || off.Allocs != on.Allocs {
				t.Fatalf("untraced tasks=%d %v bytes=%d allocs=%d, traced tasks=%d %v bytes=%d allocs=%d",
					off.Tasks, off.TasksPerWorker, off.Bytes, off.Allocs,
					on.Tasks, on.TasksPerWorker, on.Bytes, on.Allocs)
			}
			if got := len(tr.Spans()); got != on.Tasks+1 {
				t.Fatalf("%d spans, want %d tasks + 1 phase span", got, on.Tasks)
			}
			m := on.Metrics
			if m.TaskLatency.Count() != int64(on.Tasks) {
				t.Fatalf("task latency count %d, want %d", m.TaskLatency.Count(), on.Tasks)
			}
			wantWaits := int64(0)
			if tc.queue {
				wantWaits = int64(on.Tasks)
			}
			if m.QueueWait.Count() != wantWaits {
				t.Fatalf("queue wait count %d, want %d", m.QueueWait.Count(), wantWaits)
			}
		})
	}
}
