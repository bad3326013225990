// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads in a fresh process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced run reports the per-layer set (see README.md for the
// layer → metric → end-to-end map). Every timed join and every service
// response is checked against an answer computed independently at
// set-up; a wrong answer or a leaked resource fails the run.
//
//	go build -o perfbench . && ./perfbench --workload join-l2 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: join-l2, join-equal or svc-mix")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured window, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, ok := configs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (join-l2, join-equal, svc-mix), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg.seed = *seed
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.traced = *traced == 1
	// Spill files go under the build directory run.sh uses, inside the
	// checkout and ignored by git.
	cfg.workDir = ".bench_build"
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.name, err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}
