package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/mway"
	"mmjoin/internal/offheap"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// layerReps is how often the traced run repeats each direct layer call;
// it reports the median.
const layerReps = 3

// timed returns the median over layerReps calls of f's duration in ns
// per tuple of n.
func timed(n int, f func()) float64 {
	var xs []float64
	for i := 0; i < layerReps; i++ {
		start := time.Now()
		f()
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// kernelLayers times the radix, hash-table and sort-merge layers and a
// host memory copy by calling their public functions directly on the
// workload's build and probe relations, one thread each.
func kernelLayers(ctx context.Context, build, probe tuple.Relation, want answer, m metrics, t *tally) error {
	dst := make(tuple.Relation, len(probe))
	copyNs := timed(len(probe), func() { copy(dst, probe) })
	m.set("host.copy_gbps", float64(tuple.Bytes)/copyNs, "GB/s")

	bits := radix.PredictBits(len(build), radix.LoadFactorFor("linear"), 1, radix.PaperMachine())
	m.set("radix.onepass_ns", timed(len(probe), func() {
		radix.PartitionGlobal(probe, bits, 1, true).Release(exec.Shared)
	}), "ns/tuple")
	m.set("radix.twopass_ns", timed(len(probe), func() {
		radix.PartitionTwoPass(probe, bits/2, bits-bits/2, 1, true).Release(exec.Shared)
	}), "ns/tuple")
	m.set("radix.chunked_ns", timed(len(probe), func() {
		radix.PartitionChunked(probe, bits, 1, true).Release(exec.Shared)
	}), "ns/tuple")

	check := func(what string, got answer) error {
		t.attempted.Add(1)
		if got != want {
			t.failed.Add(1)
			t.wrong.Add(1)
			return fmt.Errorf("%s: wrong answer: %d matches, checksum %#x; want %d, %#x",
				what, got.matches, got.checksum, want.matches, want.checksum)
		}
		return nil
	}
	opts := &join.Options{Threads: 1}
	for _, d := range join.TableDesigns() {
		var buildNs, probeNs []float64
		for i := 0; i < layerReps; i++ {
			bt, err := join.BuildTable(ctx, build, d, opts)
			if err != nil {
				return err
			}
			res, err := join.ProbeTable(ctx, bt, probe, opts)
			bt.Release()
			if err != nil {
				return err
			}
			if err := check("table "+d.String(), answer{res.Matches, res.Checksum}); err != nil {
				return err
			}
			buildNs = append(buildNs, float64(bt.BuildTime().Nanoseconds())/float64(len(build)))
			probeNs = append(probeNs, float64(res.Total.Nanoseconds())/float64(len(probe)))
		}
		m.set("hashtable."+d.String()+".build_ns", median(buildNs), "ns/tuple")
		m.set("hashtable."+d.String()+".probe_ns", median(probeNs), "ns/tuple")
	}

	n := len(build) + len(probe)
	var sortNs, mergeNs []float64
	for i := 0; i < layerReps; i++ {
		r := append(tuple.Relation(nil), build...)
		s := append(tuple.Relation(nil), probe...)
		start := time.Now()
		r, s = mway.Sort(r), mway.Sort(s)
		sorted := time.Now()
		var got answer
		mway.MergeJoinBatched(r, s, func(rp, sp []tuple.Payload) {
			for j := range rp {
				got.matches++
				got.checksum += uint64(rp[j])<<32 | uint64(sp[j])
			}
		})
		sortNs = append(sortNs, float64(sorted.Sub(start).Nanoseconds())/float64(n))
		mergeNs = append(mergeNs, float64(time.Since(sorted).Nanoseconds())/float64(n))
		if err := check("mway", got); err != nil {
			return err
		}
	}
	m.set("mway.sort_ns", median(sortNs), "ns/tuple")
	m.set("mway.merge_ns", median(mergeNs), "ns/tuple")
	return nil
}

// memWindow brackets a measured window with runtime and off-heap
// readings.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	mw := &memWindow{}
	runtime.ReadMemStats(&mw.before)
	return mw
}

// metrics sets the GC, heap and off-heap metrics over the window; call
// it when the window ends, while the window's tables are still resident.
// forced is the number of collections the harness itself started; they
// are not counted as cycles (their pauses are).
func (mw *memWindow) metrics(m metrics, forced int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.set("gc.cycles", float64(int(after.NumGC-mw.before.NumGC)-forced), "count")
	m.set("gc.pause_ms", float64(after.PauseTotalNs-mw.before.PauseTotalNs)/1e6, "ms")
	m.set("heap_inuse_mb", float64(after.HeapInuse)/(1<<20), "MiB")
	m.set("offheap.resident_mb", float64(offheap.OutstandingBytes())/(1<<20), "MiB")
}
