package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"mmjoin/internal/join"
	"mmjoin/internal/trace"
	"mmjoin/internal/tuple"
)

// samples is one algorithm's per-join measurements over a window.
type samples struct {
	mtps, buildMs, probeMs, totalMs, unaccountedPct []float64
	picked                                          string
	spilledParts                                    int
	spilledBytes                                    int64
}

// rotator runs the rotation over one build/probe pair on one join
// worker and checks every result against the expected answer.
type rotator struct {
	build, probe tuple.Relation
	want         answer
	spillDir     string
	traced       bool
	tally        *tally
	runs         map[string]*samples
	joins        int // correct joins recorded
	forcedGCs    int // collections rep started
	self         selfTimes
}

func newRotator(build, probe tuple.Relation, want answer, spillDir string, t *tally) *rotator {
	return &rotator{build: build, probe: probe, want: want, spillDir: spillDir, tally: t, runs: map[string]*samples{}}
}

// options are the library defaults plus one join worker; HYBRID gets a
// memory budget of half the build side's modeled 16 B/tuple footprint,
// so it spills, and a spill directory the benchmark owns.
func (r *rotator) options(name string) *join.Options {
	opts := &join.Options{Threads: 1}
	if name == "HYBRID" {
		opts.MemoryBudget = 16 * int64(len(r.build)) / 2
		opts.SpillDir = r.spillDir
	}
	if r.traced {
		opts.Tracer = trace.New()
	}
	return opts
}

// runOne runs and checks one join, recording it when correct.
func (r *rotator) runOne(ctx context.Context, name string) error {
	alg, err := join.NewAny(name)
	if err != nil {
		return err
	}
	opts := r.options(name)
	r.tally.attempted.Add(1)
	res, err := alg.RunContext(ctx, r.build, r.probe, opts)
	if err != nil {
		r.tally.failed.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return nil
	}
	if !r.want.agrees(res) {
		r.tally.failed.Add(1)
		r.tally.wrong.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answer: %d matches, checksum %#x; want %d, %#x\n",
			name, res.Matches, res.Checksum, r.want.matches, r.want.checksum)
		return nil
	}
	r.record(name, res)
	if r.traced {
		r.self.add(opts.Tracer.Spans())
	}
	return nil
}

func (r *rotator) record(name string, res *join.Result) {
	s := r.runs[name]
	if s == nil {
		s = &samples{}
		r.runs[name] = s
	}
	r.joins++
	s.mtps = append(s.mtps, res.ThroughputMTuplesPerSec())
	s.buildMs = append(s.buildMs, ms(res.BuildOrPartition))
	s.probeMs = append(s.probeMs, ms(res.ProbeOrJoin))
	s.totalMs = append(s.totalMs, ms(res.Total))
	var phases time.Duration
	for _, p := range res.Exec.Phases {
		phases += p.Wall
	}
	s.unaccountedPct = append(s.unaccountedPct, 100*float64(res.Total-phases)/float64(res.Total))
	s.picked = res.Picked
	s.spilledParts = res.SpilledPartitions
	s.spilledBytes = res.SpilledBytes
}

// rep runs the whole rotation once. It collects garbage after every
// join, outside the join's timing, so each join starts from the same
// heap state (see gcPercent).
func (r *rotator) rep(ctx context.Context) error {
	for _, name := range rotation {
		if err := r.runOne(ctx, name); err != nil {
			return err
		}
		runtime.GC()
		r.forcedGCs++
	}
	return nil
}

// runReps runs reps of the rotators in turn, rep-major, until d has
// passed (at least one round) and returns the elapsed time. Interleaving
// a traced and an untraced rotator makes host drift hit both alike.
func runReps(ctx context.Context, d time.Duration, rs ...*rotator) (time.Duration, error) {
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for _, r := range rs {
			if err := r.rep(ctx); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// algoMedian is the median of one algorithm's throughput samples.
func (r *rotator) algoMedian(name string) float64 {
	if s := r.runs[name]; s != nil {
		return median(s.mtps)
	}
	return median(nil)
}

// classMetrics sets the three class throughputs: per-algorithm medians
// over the reps, then a geometric mean per class.
func (r *rotator) classMetrics(m metrics) {
	for _, c := range classes {
		var meds []float64
		for _, a := range c.algos {
			meds = append(meds, r.algoMedian(a))
		}
		m.set(c.metric, geomean(meds), "Mtuples/s")
	}
}

// allMtps is the geometric mean of every algorithm's median throughput,
// the figure the traced run compares to measure tracing overhead.
func (r *rotator) allMtps() float64 {
	var meds []float64
	for _, a := range rotation {
		meds = append(meds, r.algoMedian(a))
	}
	return geomean(meds)
}

// phaseMetrics sets the per-operation metrics of a join workload. Each
// join is one operation and its Table 3 phases are the probe and build
// latencies. Quantiles are taken per algorithm from the raw samples,
// then combined by geometric mean so every algorithm weighs the same
// whatever its speed.
func (r *rotator) phaseMetrics(m metrics, elapsed time.Duration) {
	perAlgo := func(q float64, xs func(*samples) []float64) float64 {
		var qs []float64
		for _, a := range rotation {
			if s := r.runs[a]; s != nil {
				qs = append(qs, quantile(xs(s), q))
			}
		}
		return geomean(qs)
	}
	probe := func(s *samples) []float64 { return s.probeMs }
	m.set("qps", float64(r.joins)/elapsed.Seconds(), "1/s")
	m.set("probe_p50_ms", perAlgo(0.50, probe), "ms")
	m.set("probe_p95_ms", perAlgo(0.95, probe), "ms")
	m.set("build_p50_ms", perAlgo(0.50, func(s *samples) []float64 { return s.buildMs }), "ms")
}

// layerMetrics sets the join, exec, spill and advisor per-layer
// metrics. The advisor's overhead needs the median of the algorithm it
// picked; one outside the rotation is timed here.
func (r *rotator) layerMetrics(ctx context.Context, m metrics) error {
	for _, a := range rotation {
		s := r.runs[a]
		if s == nil {
			return fmt.Errorf("%s: no correct run", a)
		}
		m.set("join."+a+".mtps", median(s.mtps), "Mtuples/s")
		m.set("join."+a+".build_ms", median(s.buildMs), "ms")
		m.set("join."+a+".probe_ms", median(s.probeMs), "ms")
		m.set("exec."+a+".unaccounted_pct", median(s.unaccountedPct), "%")
	}
	hy := r.runs["HYBRID"]
	m.set("spill.mb", float64(hy.spilledBytes)/(1<<20), "MiB")
	m.set("spill.partitions", float64(hy.spilledParts), "count")
	ad := r.runs["ADAPT"]
	if r.runs[ad.picked] == nil {
		for i := 0; i < 3; i++ {
			if err := r.runOne(ctx, ad.picked); err != nil {
				return err
			}
		}
	}
	pk := r.runs[ad.picked]
	if pk == nil {
		return fmt.Errorf("ADAPT picked %q, which never ran correctly", ad.picked)
	}
	m.set("adapt.overhead_ms", median(ad.totalMs)-median(pk.totalMs), "ms")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
