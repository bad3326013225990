package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"mmjoin/internal/datagen"
)

// config is one workload's shape plus the run's flags.
type config struct {
	name string
	// join is |R| and |S| of a join workload; zero for the service mix.
	join struct{ build, probe int }
	// svc shapes the service mix: svc-mix's window, and the short
	// service segment a join workload's traced run uses for the server
	// layer's metrics.
	svc svcShape
	// setups is how often an untraced run sets up; setup_s is the median.
	setups int
	// classReps is the fixed number of rotation reps svc-mix runs after
	// its window, on its hot and scan relations, for the class metrics.
	classReps int

	seed    uint64
	window  time.Duration
	traced  bool
	workDir string
	// corrupt flips one expected checksum (self-test of the output check).
	corrupt bool
}

// serviceSegment is the length of the service segment in a join
// workload's traced run.
const serviceSegment = 2 * time.Second

var stdService = svcShape{hot: 1 << 18, priv: 1 << 18, privPerClient: 4, probe: 4096, probeRels: 16, scan: 1 << 20, clients: 2}

var configs = map[string]config{
	"join-l2":    joinConfig("join-l2", 1<<16, 1<<22),
	"join-equal": joinConfig("join-equal", 1<<21, 1<<21),
	"svc-mix":    {name: "svc-mix", svc: stdService, setups: 5, classReps: 30},
}

func joinConfig(name string, build, probe int) config {
	c := config{name: name, svc: stdService, setups: 3}
	c.join.build, c.join.probe = build, probe
	return c
}

// runWorkload runs one workload and checks that it left nothing behind:
// no goroutine, off-heap region, arena buffer or spill file.
func runWorkload(cfg config) (*report, error) {
	base := takeBaseline()
	spillDir, err := os.MkdirTemp(cfg.workDir, "spill-")
	if err != nil {
		return nil, err
	}
	m := metrics{}
	t := &tally{}
	if cfg.join.build > 0 {
		err = runJoins(context.Background(), cfg, spillDir, m, t)
	} else {
		err = runService(context.Background(), cfg, spillDir, m, t)
	}
	if err != nil {
		os.RemoveAll(spillDir)
		return nil, err
	}
	if err := base.check(spillDir); err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   t.wrong.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   metrics{},
	}
	if !rep.Correct {
		return rep, nil // a wrong answer fails the run; its figures are void
	}
	specs := perLayer
	if !cfg.traced {
		specs = endToEnd
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss, "MiB")
	}
	if err := m.conform(specs); err != nil {
		return nil, err
	}
	rep.Metrics = m
	return rep, nil
}

// setupJoins generates the inputs, computes the expected answer and
// runs one untimed warm rotation, setups times; setup_s is the median.
func setupJoins(ctx context.Context, cfg config, spillDir string, t *tally) (*datagen.Workload, answer, []float64, error) {
	var w *datagen.Workload
	var want answer
	var secs []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC() // drop the previous set-up's inputs before timing this one
		start := time.Now()
		var err error
		w, err = datagen.Generate(datagen.Config{BuildSize: cfg.join.build, ProbeSize: cfg.join.probe, Seed: cfg.seed})
		if err != nil {
			return nil, want, nil, err
		}
		idx, err := newPKIndex(w.Build)
		if err != nil {
			return nil, want, nil, err
		}
		want = idx.expect(w.Probe)
		if cfg.corrupt {
			want.checksum ^= 1
		}
		if err := newRotator(w.Build, w.Probe, want, spillDir, t).rep(ctx); err != nil {
			return nil, want, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return w, want, secs, nil
}

// gcPercent is the collector target while the rotation runs. With a
// collection forced after every join (rotator.rep), a target this high
// keeps any collection from starting inside a timed join, so neither a
// join's time nor the process's peak RSS depends on when the collector
// happened to run. The service window keeps the runtime default.
const gcPercent = 400

// runJoins is join-l2 and join-equal: the rotation, rep-major, on one
// join worker for the window.
func runJoins(ctx context.Context, cfg config, spillDir string, m metrics, t *tally) error {
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	if cfg.traced {
		cfg.setups = 1
	}
	w, want, setups, err := setupJoins(ctx, cfg, spillDir, t)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	plain := newRotator(w.Build, w.Probe, want, spillDir, t)
	if !cfg.traced {
		elapsed, err := runReps(ctx, cfg.window, plain)
		if err != nil {
			return err
		}
		m.set("setup_s", median(setups), "s")
		plain.classMetrics(m)
		plain.phaseMetrics(m, elapsed)
		return nil
	}
	traced := newRotator(w.Build, w.Probe, want, spillDir, t)
	traced.traced = true
	mem := startMem()
	if _, err := runReps(ctx, 2*cfg.window, plain, traced); err != nil {
		return err
	}
	mem.metrics(m, plain.forcedGCs+traced.forcedGCs)
	m.set("trace.overhead_pct", 100*(plain.allMtps()/traced.allMtps()-1), "%")
	traced.self.metrics(m)
	if err := plain.layerMetrics(ctx, m); err != nil {
		return err
	}
	if err := kernelLayers(ctx, w.Build, w.Probe, want, m, t); err != nil {
		return err
	}
	svc, err := startService(ctx, cfg.svc, cfg.seed, t)
	if err != nil {
		return err
	}
	svc.serve(ctx, serviceSegment, false, t).layerMetrics(m)
	return closeService(svc)
}

// runService is svc-mix: closed-loop clients against an in-process
// server for the window, then a fixed number of rotation reps over the
// service's hot and scan relations for the class metrics.
func runService(ctx context.Context, cfg config, spillDir string, m metrics, t *tally) error {
	if cfg.traced {
		cfg.setups = 1
	}
	var svc *service
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if svc != nil {
			if err := closeService(svc); err != nil {
				return err
			}
		}
		runtime.GC() // drop the previous set-up's inputs before timing this one
		start := time.Now()
		var err error
		if svc, err = startService(ctx, cfg.svc, cfg.seed, t); err != nil {
			return err
		}
		if cfg.corrupt {
			svc.data.hotWant[0].checksum ^= 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	mem := startMem()
	w := svc.serve(ctx, cfg.window, cfg.traced, t)
	if cfg.traced {
		mem.metrics(m, 0)
		m.set("trace.overhead_pct", 100*(median(w.tracedProbeMs)/median(w.probeMs)-1), "%")
		w.self.metrics(m)
		w.layerMetrics(m)
	} else {
		m.set("setup_s", median(setups), "s")
		w.endToEnd(m)
	}
	if err := closeService(svc); err != nil {
		return err
	}

	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	d := svc.data
	r := newRotator(d.hot, d.scan, d.scanWant, spillDir, t)
	for i := 0; i < cfg.classReps; i++ {
		if err := r.rep(ctx); err != nil {
			return err
		}
	}
	if !cfg.traced {
		r.classMetrics(m)
		return nil
	}
	if err := r.layerMetrics(ctx, m); err != nil {
		return err
	}
	return kernelLayers(ctx, d.hot, d.scan, d.scanWant, m, t)
}

func closeService(s *service) error {
	if err := s.srv.Close(); err != nil {
		return fmt.Errorf("server close: %w", err)
	}
	return nil
}
