package tpch

import (
	"context"
	"fmt"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/tuple"
)

// Morph variants of Appendix G: starting from the "naked join"
// microbenchmark, each step adds one more piece of real query work until
// variant 5 is the full pipelined Q19 (NOP flavour). Figure 19 plots
// their runtimes to attribute the query/microbenchmark gap.
const (
	// MorphPrefiltered is (1): the microbenchmark — inputs pre-filtered
	// and pre-materialized outside the measured region.
	MorphPrefiltered = 1
	// MorphDynamicFilter is (2): like (1) but the probe input is
	// filtered on the fly during the probe scan.
	MorphDynamicFilter = 2
	// MorphJoinIndex is (3): like (2) plus materializing a join index.
	MorphJoinIndex = 3
	// MorphIndexThenFinish is (4): like (3) plus post-filtering and
	// aggregating from the join index in a second pass.
	MorphIndexThenFinish = 4
	// MorphPipelined is (5): the full pipeline without a join index.
	MorphPipelined = 5
)

// joinIndexEntry is one match in the materialized join index of
// variants 3 and 4.
type joinIndexEntry struct {
	RowL uint32
	RowP uint32
}

// RunMorph executes one Appendix G variant with the NOP join and
// returns its measurements. Variants 1–3 stop before the aggregate, so
// Revenue is zero for them by construction.
func RunMorph(tb *Tables, variant, threads int) (*QueryResult, error) {
	if threads < 1 {
		threads = 1
	}
	l, p := tb.Lineitem, tb.Part
	res := &QueryResult{Algorithm: fmt.Sprintf("NOP-morph%d", variant)}
	if variant < MorphPrefiltered || variant > MorphPipelined {
		return nil, fmt.Errorf("tpch: unknown morph variant %d", variant)
	}

	// Variant 1 receives the filtered probe input for free.
	var prefiltered tuple.Relation
	if variant == MorphPrefiltered {
		prefiltered = FilterLineitem(l)
	}

	accs := make([]q19Accumulator, threads)
	indexes := make([][]joinIndexEntry, threads)
	// One pool per query. It runs under context.Background, so its
	// phases cannot be cancelled and their errors are always nil.
	pool := exec.NewPool(context.Background(), threads)

	start := time.Now()
	lt := hashtable.NewLinearTable(p.NumTuples, 0, hashfn.Identity, nil)
	buildChunks := tuple.Chunks(p.NumTuples, threads)
	_ = pool.Run("build", func(wk *exec.Worker) {
		w := wk.ID
		c := buildChunks[w]
		for _, tp := range p.PartKey[c.Begin:c.End] {
			lt.InsertConcurrent(tp)
		}
	})
	buildDone := time.Now()

	switch variant {
	case MorphPrefiltered:
		chunks := tuple.Chunks(len(prefiltered), threads)
		_ = pool.Run("probe", func(wk *exec.Worker) {
			w := wk.ID
			acc := &accs[w]
			c := chunks[w]
			for _, tp := range prefiltered[c.Begin:c.End] {
				if _, ok := lt.Lookup(tp.Key); ok {
					acc.candidates++
				}
			}
		})
	case MorphDynamicFilter:
		chunks := tuple.Chunks(l.NumTuples, threads)
		_ = pool.Run("probe", func(wk *exec.Worker) {
			w := wk.ID
			acc := &accs[w]
			c := chunks[w]
			for i := c.Begin; i < c.End; i++ {
				if !PreJoin(l, i) {
					continue
				}
				if _, ok := lt.Lookup(l.PartKey[i].Key); ok {
					acc.candidates++
				}
			}
		})
	case MorphJoinIndex, MorphIndexThenFinish:
		chunks := tuple.Chunks(l.NumTuples, threads)
		_ = pool.Run("index", func(wk *exec.Worker) {
			w := wk.ID
			acc := &accs[w]
			c := chunks[w]
			for i := c.Begin; i < c.End; i++ {
				if !PreJoin(l, i) {
					continue
				}
				if rowP, ok := lt.Lookup(l.PartKey[i].Key); ok {
					acc.candidates++
					indexes[w] = append(indexes[w], joinIndexEntry{RowL: uint32(i), RowP: uint32(rowP)})
				}
			}
		})
		if variant == MorphIndexThenFinish {
			// Second pass: post-filter + aggregate from the index, in
			// the same (row id) order the pipeline would have seen.
			_ = pool.Run("finish", func(wk *exec.Worker) {
				w := wk.ID
				acc := &accs[w]
				for _, e := range indexes[w] {
					if PostJoin(l, p, int(e.RowL), int(e.RowP)) {
						acc.matches++
						acc.revenue += float64(l.ExtendedPrice[e.RowL]) * (1 - float64(l.Discount[e.RowL]))
					}
				}
			})
		}
	case MorphPipelined:
		chunks := tuple.Chunks(l.NumTuples, threads)
		_ = pool.Run("probe", func(wk *exec.Worker) {
			w := wk.ID
			acc := &accs[w]
			c := chunks[w]
			for i := c.Begin; i < c.End; i++ {
				if !PreJoin(l, i) {
					continue
				}
				if rowP, ok := lt.Lookup(l.PartKey[i].Key); ok {
					acc.candidates++
					if PostJoin(l, p, i, int(rowP)) {
						acc.matches++
						acc.revenue += float64(l.ExtendedPrice[i]) * (1 - float64(l.Discount[i]))
					}
				}
			}
		})
	}
	end := time.Now()

	res.BuildTime = buildDone.Sub(start)
	res.ProbeTime = end.Sub(buildDone)
	res.Total = end.Sub(start)
	fold(res, accs)
	return res, nil
}
