package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// toy shrinks a workload to test size: the same code paths, inputs of a
// few thousand tuples and a short window.
func toy(t *testing.T, name string, traced bool) config {
	cfg, ok := configs[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if cfg.join.build > 0 {
		cfg.join.build, cfg.join.probe = 1<<10, 1<<12
	}
	cfg.svc = svcShape{hot: 1 << 10, priv: 1 << 10, privPerClient: 4, probe: 64, probeRels: 4, scan: 1 << 12, clients: 2}
	cfg.setups = 2
	if cfg.classReps > 0 {
		cfg.classReps = 2
	}
	cfg.seed = 7
	cfg.window = 200 * time.Millisecond
	cfg.traced = traced
	cfg.workDir = t.TempDir()
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range configs {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", spec.PerLayer, perLayer)
	}
}

// TestWorkloads runs every workload at toy size, untraced and traced:
// every named metric must appear with its unit (runWorkload checks the
// set), every operation must succeed, and the leak checks must pass
// (runWorkload fails otherwise).
func TestWorkloads(t *testing.T) {
	for name := range configs {
		for _, traced := range []bool{false, true} {
			cfg := toy(t, name, traced)
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if traced {
				// Every build query misses and every other query hits.
				if hr := rep.Metrics["server.hit_rate"].Value; hr < 0.9 || hr >= 1 {
					t.Errorf("%s: server.hit_rate %v, want cycle's share of hits", name, hr)
				}
			}
			if _, err := os.Stat(cfg.workDir); err != nil {
				t.Errorf("%s: work dir: %v", name, err)
			}
			if entries, _ := os.ReadDir(cfg.workDir); len(entries) != 0 {
				t.Errorf("%s: work dir holds %d entries after the run", name, len(entries))
			}
		}
	}
}

// TestWrongAnswerFailsRun injects a wrong expected checksum: the run
// must count failed operations and report itself incorrect.
func TestWrongAnswerFailsRun(t *testing.T) {
	for name := range configs {
		cfg := toy(t, name, false)
		cfg.corrupt = true
		rep, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d with a wrong expected checksum", name, rep.Correct, rep.Failed)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input")
	}
}
