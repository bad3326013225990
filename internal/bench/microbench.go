package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/tuple"
)

// Standalone kernel microbenchmarks: probe and build ns-per-tuple for
// every hash-table design at L2-resident through cache-busting sizes,
// scalar vs batched. This is the harness behind BENCH_baseline.json and
// the CI bench-smoke job: each record carries a Go-benchmark-format
// line ("gobench") so two runs can be diffed with benchstat without a
// testing.B in the loop.

// MicrobenchConfig controls one microbenchmark sweep.
type MicrobenchConfig struct {
	// Benchtime is the minimum measuring time per (table, op, kernel,
	// size) cell; at least one full pass always runs. 0 means 1s.
	Benchtime time.Duration
	// SizesLog2 lists the build sizes as powers of two. Empty means
	// {16, 20, 24}.
	SizesLog2 []int
	// Seed offsets the key permutation (the golden-ratio stride makes
	// the workload deterministic regardless; the seed varies the probe
	// order).
	Seed uint64
	// Reps measures every cell this many times, emitting one gobench
	// line per rep so benchstat can attach p-values to a diff. The reps
	// are interleaved — rep i of every cell runs before rep i+1 of any
	// cell — so slow machine-state drift (thermal, page-cache) spreads
	// evenly across cells instead of biasing whichever ran last.
	// 0 means 1.
	Reps int
	// Warmup runs this many untimed passes per cell before its first
	// measured rep, so one-time costs (cold i-cache, lazily faulted
	// table pages) never land in the measurement. 0 means 1; negative
	// disables warmup entirely.
	Warmup int
	// PrefetchDists sweeps hashtable.PrefetchDist over these values for
	// the batch kernels, adding a "/dist=N" dimension to the cell name.
	// Empty keeps the package default with no extra dimension. Scalar
	// kernels never issue software prefetches and are not swept.
	PrefetchDists []int
	// OffHeap backs the benchmarked tables with a private off-heap
	// arena, so the measured kernels touch the same mmap-backed,
	// huge-page-advised memory the -offheap joins run against.
	OffHeap bool
}

// MicrobenchRecord is one measured cell.
type MicrobenchRecord struct {
	Table      string  `json:"table"`
	Op         string  `json:"op"`     // "build" or "probe"
	Kernel     string  `json:"kernel"` // "scalar" or "batch"
	KeysLog2   int     `json:"keys_log2"`
	Tuples     int     `json:"tuples"`
	Iters      int     `json:"iters"`
	NsPerTuple float64 `json:"ns_per_tuple"`
	// Rep numbers the interleaved repetition this record came from
	// (0-based). The gobench name is identical across reps: that is
	// what lets benchstat group them into a sample.
	Rep int `json:"rep,omitempty"`
	// PrefetchDist is the swept hashtable.PrefetchDist for batch cells
	// when MicrobenchConfig.PrefetchDists is set; -1 otherwise.
	PrefetchDist int `json:"prefetch_dist,omitempty"`
	// GoBench is the record in Go benchmark format (value = ns/tuple),
	// ready for benchstat: extract the gobench fields of two runs into
	// two files and diff them.
	GoBench string `json:"gobench"`
}

// microbenchOutput is the JSON document Microbench writes.
type microbenchOutput struct {
	Kind        string             `json:"kind"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	BenchtimeMs int64              `json:"benchtime_ms"`
	Reps        int                `json:"reps,omitempty"`
	OffHeap     bool               `json:"offheap,omitempty"`
	Records     []MicrobenchRecord `json:"records"`
}

// Microbench runs the kernel sweep and writes the JSON document to w.
func Microbench(cfg MicrobenchConfig, w io.Writer) error {
	if cfg.Benchtime <= 0 {
		cfg.Benchtime = time.Second
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 1
	}
	sizes := cfg.SizesLog2
	if len(sizes) == 0 {
		sizes = []int{16, 20, 24}
	}
	out := microbenchOutput{
		Kind:        "microbench",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		BenchtimeMs: cfg.Benchtime.Milliseconds(),
		Reps:        cfg.Reps,
		OffHeap:     cfg.OffHeap,
	}
	for _, lg := range sizes {
		recs, err := microbenchSize(cfg, lg)
		if err != nil {
			return err
		}
		out.Records = append(out.Records, recs...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// microTuples generates n tuples covering [0, n) in golden-ratio-stride
// order (the same workload as the hashtable package's benchmarks).
func microTuples(n int, seed uint64) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		k := (uint32(i) + uint32(seed)) * 2654435761 % uint32(n)
		ts[i] = tuple.Tuple{Key: tuple.Key(k), Payload: tuple.Payload(i)}
	}
	return ts
}

// measure runs f (one full pass over n tuples) until the benchtime
// elapses and returns iteration count and ns per tuple.
func measure(benchtime time.Duration, n int, f func()) (int, float64) {
	runtime.GC()
	iters := 0
	start := time.Now()
	for time.Since(start) < benchtime || iters == 0 {
		f()
		iters++
	}
	total := time.Since(start)
	return iters, float64(total.Nanoseconds()) / float64(iters) / float64(n)
}

// microCell is one benchmarkable (table, op, kernel[, dist]) combination;
// run performs one full pass over the workload.
type microCell struct {
	table  string
	op     string
	kernel string
	dist   int // swept hashtable.PrefetchDist; -1 = not swept
	run    func()
}

// record formats one measured rep of a cell.
func (c *microCell) record(lg, n, iters, rep int, ns float64) MicrobenchRecord {
	name := fmt.Sprintf("BenchmarkMicro/op=%s/table=%s/keys=2^%d/kernel=%s", c.op, c.table, lg, c.kernel)
	if c.dist >= 0 {
		name += fmt.Sprintf("/dist=%d", c.dist)
	}
	return MicrobenchRecord{
		Table: c.table, Op: c.op, Kernel: c.kernel,
		KeysLog2: lg, Tuples: n, Iters: iters, NsPerTuple: ns,
		Rep: rep, PrefetchDist: c.dist,
		GoBench: fmt.Sprintf("%s %d %.2f ns/op", name, iters, ns),
	}
}

func microbenchSize(cfg MicrobenchConfig, lg int) ([]MicrobenchRecord, error) {
	if lg < 4 || lg > 28 {
		return nil, fmt.Errorf("bench: microbench size 2^%d out of range [2^4, 2^28]", lg)
	}
	n := 1 << lg
	tuples := microTuples(n, cfg.Seed)
	probes := microTuples(n, cfg.Seed+1)
	keys := make([]tuple.Key, n)
	payloads := make([]tuple.Payload, n)
	for i, tp := range probes {
		keys[i] = tp.Key
		payloads[i] = tp.Payload
	}
	buildKeys := make([]tuple.Key, n)
	buildPayloads := make([]tuple.Payload, n)
	for i, tp := range tuples {
		buildKeys[i] = tp.Key
		buildPayloads[i] = tp.Payload
	}

	// With cfg.OffHeap the tables draw their storage from a private
	// off-heap arena, freed when the size's sweep finishes. SparseTable
	// has no arena form (its per-group slices sit below the off-heap
	// threshold) and stays heap-backed either way.
	var arena *exec.Arena
	if cfg.OffHeap {
		arena = exec.NewArenaOffHeap()
	}
	ct := hashtable.NewChainedTable(n, hashfn.Murmur, arena)
	lt := hashtable.NewLinearTable(n, 0, hashfn.Murmur, arena)
	rh := hashtable.NewRobinHoodTable(n, 0, hashfn.Murmur, arena)
	at := hashtable.NewArrayTable(0, n, arena)
	st := hashtable.NewSparseTable(n, hashfn.Murmur)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
		rh.Insert(tp)
		at.Insert(tp)
		st.Insert(tp)
	}
	cb := hashtable.NewCHTBuilder(n, 1, hashfn.Murmur, arena)
	cb.LoadRegion(0, tuples)
	cht := cb.Finalize()
	defer func() {
		ct.Free()
		lt.Free()
		rh.Free()
		at.Free()
		cht.Free()
	}()

	var scratch hashtable.BatchScratch
	var out hashtable.MatchBatch
	var sink tuple.Payload

	var cells []*microCell
	probeCases := []struct {
		name string
		tbl  hashtable.Table
	}{
		{"chained", ct}, {"linear", lt}, {"robinhood", rh},
		{"array", at}, {"cht", cht}, {"sparse", st},
	}
	for _, pc := range probeCases {
		tbl := pc.tbl
		cells = append(cells, &microCell{table: pc.name, op: "probe", kernel: "scalar", dist: -1, run: func() {
			for _, tp := range probes {
				if p, ok := tbl.Lookup(tp.Key); ok {
					sink += p
				}
			}
		}})
	}
	// Batch kernels carry the prefetch-distance dimension: each swept
	// distance is its own cell, so the interleaved reps A/B the
	// distances against each other under identical machine drift.
	dists := []int{-1}
	if len(cfg.PrefetchDists) > 0 {
		dists = cfg.PrefetchDists
	}
	batchProbeCases := []struct {
		name string
		tbl  interface {
			ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *hashtable.BatchScratch, out *hashtable.MatchBatch)
		}
	}{
		{"chained", ct}, {"linear", lt}, {"robinhood", rh},
		{"array", at}, {"cht", cht}, {"sparse", st},
	}
	for _, pc := range batchProbeCases {
		tbl := pc.tbl
		for _, d := range dists {
			cells = append(cells, &microCell{table: pc.name, op: "probe", kernel: "batch", dist: d, run: func() {
				for lo := 0; lo < n; lo += hashtable.BatchSize {
					hi := min(lo+hashtable.BatchSize, n)
					tbl.ProbeJoinBatch(keys[lo:hi], payloads[lo:hi], &scratch, &out)
					for j := 0; j < out.N; j++ {
						sink += out.Build[j]
					}
				}
			}})
		}
	}
	_ = sink

	buildCases := []struct {
		name  string
		reset func()
		ins   func(tuple.Tuple)
		batch func(lo, hi int)
	}{
		{"chained", ct.Reset, ct.Insert, func(lo, hi int) { ct.BuildBatch(buildKeys[lo:hi], buildPayloads[lo:hi], &scratch) }},
		{"linear", lt.Reset, lt.Insert, func(lo, hi int) { lt.BuildBatch(buildKeys[lo:hi], buildPayloads[lo:hi], &scratch) }},
		{"robinhood", rh.Reset, rh.Insert, func(lo, hi int) { rh.BuildBatch(buildKeys[lo:hi], buildPayloads[lo:hi], &scratch) }},
		{"array", at.Reset, at.Insert, func(lo, hi int) { at.BuildBatch(buildKeys[lo:hi], buildPayloads[lo:hi], &scratch) }},
	}
	for _, bc := range buildCases {
		bc := bc
		cells = append(cells, &microCell{table: bc.name, op: "build", kernel: "scalar", dist: -1, run: func() {
			bc.reset()
			for _, tp := range tuples {
				bc.ins(tp)
			}
		}})
		for _, d := range dists {
			cells = append(cells, &microCell{table: bc.name, op: "build", kernel: "batch", dist: d, run: func() {
				bc.reset()
				for lo := 0; lo < n; lo += hashtable.BatchSize {
					bc.batch(lo, min(lo+hashtable.BatchSize, n))
				}
			}})
		}
	}

	// The CHT has no insert: its build cell is the CHTJ bulkload of one
	// region (claim, then scatter) into a fresh table.
	for _, d := range dists {
		cells = append(cells, &microCell{table: "cht", op: "build", kernel: "batch", dist: d, run: func() {
			cb := hashtable.NewCHTBuilder(n, 1, hashfn.Murmur, arena)
			cb.LoadRegion(0, tuples)
			cb.Finalize().Free()
		}})
	}

	defaultDist := hashtable.PrefetchDistance()
	defer hashtable.SetPrefetchDistance(defaultDist)
	runCell := func(c *microCell) {
		if c.dist >= 0 {
			hashtable.SetPrefetchDistance(c.dist)
		} else {
			hashtable.SetPrefetchDistance(defaultDist)
		}
	}
	var recs []MicrobenchRecord
	for rep := 0; rep < cfg.Reps; rep++ {
		for _, c := range cells {
			runCell(c)
			if rep == 0 {
				for i := 0; i < cfg.Warmup; i++ {
					c.run()
				}
			}
			iters, ns := measure(cfg.Benchtime, n, c.run)
			recs = append(recs, c.record(lg, n, iters, rep, ns))
		}
	}
	return recs, nil
}
