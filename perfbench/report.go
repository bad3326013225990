package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"mmjoin/internal/join"
)

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one reported metric; the tables below are the
// benchmark's contract and must match BENCHMARK.json (the self-test
// checks that they do).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// rotation is the join workloads' algorithm order, run rep-major: one
// rep runs every algorithm once, in this order.
var rotation = []string{"NOP", "NOPA", "CHTJ", "PRO", "CPRL", "CPRA", "HYBRID", "MWAY", "ADAPT"}

// classes groups the rotation into the paper's three classes; each
// class metric is the geometric mean of its members' median throughput.
var classes = []struct {
	metric string
	algos  []string
}{
	{"mtps.partition", []string{"PRO", "CPRL", "CPRA", "HYBRID"}},
	{"mtps.nopartition", []string{"NOP", "NOPA", "CHTJ"}},
	{"mtps.sortmerge", []string{"MWAY"}},
}

// phaseFamilies are the span families the traced run reports self time
// for; see family.
var phaseFamilies = []string{"partition", "build", "probe", "sort", "spill"}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"mtps.partition", "Mtuples/s", "higher"},
	{"mtps.nopartition", "Mtuples/s", "higher"},
	{"mtps.sortmerge", "Mtuples/s", "higher"},
	{"qps", "1/s", "higher"},
	{"probe_p50_ms", "ms", "lower"},
	{"probe_p95_ms", "ms", "lower"},
	{"build_p50_ms", "ms", "lower"},
}

var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, a := range rotation {
		out = append(out,
			metricSpec{"join." + a + ".mtps", "Mtuples/s", "higher"},
			metricSpec{"join." + a + ".build_ms", "ms", "lower"},
			metricSpec{"join." + a + ".probe_ms", "ms", "lower"},
			metricSpec{"exec." + a + ".unaccounted_pct", "%", "lower"})
	}
	out = append(out,
		metricSpec{"radix.onepass_ns", "ns/tuple", "lower"},
		metricSpec{"radix.twopass_ns", "ns/tuple", "lower"},
		metricSpec{"radix.chunked_ns", "ns/tuple", "lower"})
	for _, d := range join.TableDesigns() {
		out = append(out,
			metricSpec{"hashtable." + d.String() + ".build_ns", "ns/tuple", "lower"},
			metricSpec{"hashtable." + d.String() + ".probe_ns", "ns/tuple", "lower"},
			metricSpec{"table." + d.String() + ".probe_us", "us", "lower"})
	}
	out = append(out,
		metricSpec{"mway.sort_ns", "ns/tuple", "lower"},
		metricSpec{"mway.merge_ns", "ns/tuple", "lower"},
		metricSpec{"spill.mb", "MiB", "lower"},
		metricSpec{"spill.partitions", "count", "lower"},
		metricSpec{"adapt.overhead_ms", "ms", "lower"},
		metricSpec{"server.hit_rate", "ratio", "higher"},
		metricSpec{"server.probe_p99_ms", "ms", "lower"},
		metricSpec{"server.scan_p50_ms", "ms", "lower"},
		metricSpec{"server.overhead_probe_us", "us", "lower"},
		metricSpec{"server.overhead_build_ms", "ms", "lower"},
		metricSpec{"server.shed", "count", "lower"},
		metricSpec{"server.failures", "count", "lower"},
		metricSpec{"offheap.resident_mb", "MiB", "lower"},
		metricSpec{"gc.cycles", "count", "lower"},
		metricSpec{"gc.pause_ms", "ms", "lower"},
		metricSpec{"heap_inuse_mb", "MiB", "lower"},
		metricSpec{"host.copy_gbps", "GB/s", "higher"},
		metricSpec{"trace.overhead_pct", "%", "lower"})
	for _, f := range phaseFamilies {
		out = append(out, metricSpec{"trace." + f + ".self_pct", "%", "lower"})
	}
	return out
}()

// metrics collects one run's values, keyed by metric name.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// conform checks that m holds exactly the specs, each with its unit.
func (m metrics) conform(specs []metricSpec) error {
	for _, s := range specs {
		got, ok := m[s.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", s.Name)
		}
		if got.Unit != s.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", s.Name, got.Unit, s.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, got.Value)
		}
	}
	if len(m) != len(specs) {
		return fmt.Errorf("%d metrics reported, want %d", len(m), len(specs))
	}
	return nil
}

// tally counts timed operations. Every error (shed and deadline
// included) is a failed operation; a wrong answer is one too, and also
// fails the run.
type tally struct {
	attempted, failed, wrong atomic.Int64
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method of Python's statistics
// module); xs is not modified. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
