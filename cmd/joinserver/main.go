// Command joinserver runs the multi-tenant join service: a long-running
// process that admits many concurrent join queries over registered
// relations, shares built hash tables across queries through a
// fingerprint-keyed cache, and sheds load instead of queueing without
// bound.
//
// Usage:
//
//	joinserver -listen :8080                 # serve HTTP with demo relations
//	joinserver -listen :8080 -design cht -offheap -build-size 1048576
//
// Load is measured by the svc-mix workload of the perfbench module
// (perfbench/), which drives an in-process server through admission,
// the build cache and off-heap arenas.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/join"
	"mmjoin/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("joinserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "", "serve HTTP on this address (e.g. :8080)")
		threads  = fs.Int("threads", 0, "per-query worker threads (0 = GOMAXPROCS)")
		slots    = fs.Int("slots", 0, "shared CPU slots across all queries (0 = GOMAXPROCS)")
		budgetMB = fs.Int64("budget-mb", 0, "admission memory budget in MiB (0 = 256)")
		cacheMB  = fs.Int64("cache-mb", 0, "build cache capacity in MiB (0 = 256)")
		queue    = fs.Int("queue", 0, "max queries waiting for admission (0 = 64)")
		wait     = fs.Duration("admit-wait", 0, "max admission wait before shedding (0 = 100ms)")
		useOff   = fs.Bool("offheap", false, "place cached tables in GC-free off-heap arenas")
		design   = fs.String("design", "", "default cached table design: chained, linear, robinhood, array, cht, sparse")

		buildSize = fs.Int("build-size", 1<<18, "cardinality of the demo \"build\" relation")
		probeSize = fs.Int("probe-size", 1024, "cardinality of the demo \"probe\" relation (at least 1024)")
		seed      = fs.Uint64("seed", 0, "seed of the demo relations (0 = 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := server.Config{
		Threads:      *threads,
		WorkerSlots:  *slots,
		MemoryBudget: *budgetMB << 20,
		MaxQueued:    *queue,
		AdmitWait:    *wait,
		CacheBytes:   *cacheMB << 20,
		OffHeap:      *useOff,
	}
	if *design != "" {
		d, err := join.ParseTableDesign(*design)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cfg.Design = d
	}

	if *listen == "" {
		fmt.Fprintln(stderr, "joinserver: nothing to do (pass -listen)")
		fs.Usage()
		return 2
	}
	return serve(cfg, *listen, *buildSize, *probeSize, *seed, stdout, stderr)
}

// serve registers a demo PK/FK workload (a query can reference "build"
// and "probe" immediately) and serves the HTTP API until interrupted.
func serve(cfg server.Config, addr string, buildSize, probeSize int, seed uint64, stdout, stderr io.Writer) int {
	if seed == 0 {
		seed = 1
	}
	w, err := datagen.Generate(datagen.Config{
		BuildSize: buildSize,
		ProbeSize: max(probeSize, 1024),
		Zipf:      0.5,
		Seed:      seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	s := server.Open(cfg)
	if err := s.RegisterRelation("build", w.Build); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := s.RegisterRelation("probe", w.Probe); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "joinserver: listening on %s (relations: build[%d], probe[%d])\n",
		addr, len(w.Build), len(w.Probe))

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "joinserver: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if err := s.Close(); err != nil {
		fmt.Fprintf(stderr, "joinserver: close: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "joinserver: shut down cleanly")
	return 0
}
