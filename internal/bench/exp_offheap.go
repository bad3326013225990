package bench

import (
	"fmt"
	"runtime"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/join"
	"mmjoin/internal/offheap"
)

// The off-heap arena experiment: an extension beyond the paper. Go's
// collector scans and moves nothing inside the join's dominant
// allocations — tuple arrays and hash-table storage are pointer-free —
// yet their mere presence on the managed heap inflates every GC cycle's
// sweep work and heap goal. Placing them in mmap-backed off-heap arenas
// (join.Options.OffHeap) removes them from the GC's accounting entirely.
// This experiment quantifies that: the GC-visible heap footprint of a
// 2^24-key build (input relations + chained table), the wall time of a
// forced GC cycle with those structures live, and the end-to-end join
// time, heap vs off-heap.

func init() {
	registerExperiment(Experiment{
		ID:    "offheap",
		Title: "Extension: GC-free off-heap arenas (heap footprint and GC impact)",
		Run:   runOffHeap,
	})
}

// offHeapProbe is what one mode's measurement leaves behind.
type offHeapProbe struct {
	heapDelta int64         // GC-visible heap growth while inputs+table are live
	gcWall    time.Duration // wall time of one forced GC cycle with them live
	joinTotal time.Duration
	matches   int64
}

func runOffHeap(c Config) (*Report, error) {
	n := 1 << 24
	if c.Quick {
		n = 1 << 20
	}
	rep := &Report{
		ID:    "offheap",
		Title: "GC-visible footprint and join time: heap vs off-heap arenas",
		PaperExpectation: "Extension (not in the paper): the paper's C++ implementations never pay GC costs; " +
			"off-heap arenas buy the Go reproduction the same immunity — the GC-visible footprint of " +
			"inputs and tables should collapse by >=10x while results stay identical",
		Columns: []string{"mode", "GC-visible bytes (inputs+table)", "forced GC [ms]", "join total [ms]", "matches"},
		Notes: []string{
			fmt.Sprintf("|R|=|S|=%s keys, threads=%d, CPRL; off-heap allocator available: %v (page %d KiB)",
				fmtTuples(n), c.Threads, offheap.Available(), offheap.PreferredPageBytes()/1024),
			"GC-visible bytes = HeapInuse growth after materializing both relations and the build table",
			"forced GC = wall time of one runtime.GC() with those structures live",
		},
	}

	probes := map[string]*offHeapProbe{}
	for _, mode := range []string{"heap", "offheap"} {
		p, err := measureOffHeapMode(c, n, mode == "offheap")
		if err != nil {
			return nil, err
		}
		probes[mode] = p
		rep.Rows = append(rep.Rows, []string{
			mode,
			fmt.Sprintf("%.1f MiB", float64(p.heapDelta)/(1<<20)),
			fmtMillis(p.gcWall),
			fmtMillis(p.joinTotal),
			fmt.Sprintf("%d", p.matches),
		})
	}
	h, o := probes["heap"], probes["offheap"]
	if h.matches != o.matches {
		return nil, fmt.Errorf("bench: offheap run diverged: %d matches vs %d on the heap", o.matches, h.matches)
	}
	ratio := "n/a"
	if o.heapDelta > 0 {
		ratio = fmt.Sprintf("%.0fx", float64(h.heapDelta)/float64(o.heapDelta))
	} else if h.heapDelta > 0 {
		ratio = "inf"
	}
	rep.Rows = append(rep.Rows, []string{"footprint ratio", ratio, "", "", ""})
	return rep, nil
}

// measureOffHeapMode materializes the workload and a chained build table
// in one allocation mode, reads the GC-visible cost, runs one join, and
// tears everything down (leak-checked when arena-backed).
func measureOffHeapMode(c Config, n int, off bool) (*offHeapProbe, error) {
	// Settle the previous mode's garbage before taking the baseline.
	// Buffers parked in the process-wide heap arena age out over two or
	// three collections, so they are dropped here rather than in the
	// middle of this mode's measurement, where they would skew the
	// delta negative.
	exec.Shared.Destroy()
	runtime.GC()
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var arena *exec.Arena
	if off {
		arena = exec.NewArenaOffHeap()
	}
	w, err := datagen.GenerateArena(datagen.Config{BuildSize: n, ProbeSize: n, Seed: c.Seed + 1}, arena)
	if err != nil {
		return nil, err
	}
	ht := hashtable.NewChainedTable(n, hashfn.Murmur, arena)
	var scratch hashtable.BatchScratch
	keys := make([]uint32, 0, hashtable.BatchSize)
	pays := make([]uint32, 0, hashtable.BatchSize)
	for lo := 0; lo < n; lo += hashtable.BatchSize {
		hi := min(lo+hashtable.BatchSize, n)
		keys, pays = keys[:0], pays[:0]
		for _, tp := range w.Build[lo:hi] {
			keys = append(keys, tp.Key)
			pays = append(pays, tp.Payload)
		}
		ht.BuildBatch(keys, pays, &scratch)
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p := &offHeapProbe{heapDelta: int64(m1.HeapInuse) - int64(m0.HeapInuse)}

	gcStart := time.Now()
	runtime.GC()
	p.gcWall = time.Since(gcStart)

	res, err := runJoin(c, "CPRL", w, join.Options{Threads: c.Threads, Arena: arena})
	if err != nil {
		return nil, err
	}
	p.joinTotal = res.Total
	p.matches = res.Matches

	ht.Free()
	w.Free()
	if arena != nil {
		if out := arena.Outstanding(); out != 0 {
			return nil, fmt.Errorf("bench: offheap experiment leaked %d arena buffers", out)
		}
		arena.Destroy()
	}
	return p, nil
}
