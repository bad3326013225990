package tpch

import (
	"context"
	"fmt"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// QueryResult is the outcome of one Q19 execution.
type QueryResult struct {
	// Revenue is the query's aggregate.
	Revenue float64
	// Matches counts lineitem/part pairs that survived both predicates.
	Matches int64
	// JoinCandidates counts pairs matched on the key before the
	// post-join predicate.
	JoinCandidates int64
	// BuildTime covers building the join structure over Part;
	// ProbeTime covers scanning, filtering, probing and aggregating;
	// Total is end to end.
	BuildTime, ProbeTime, Total time.Duration
	// Algorithm names the join executor used.
	Algorithm string
}

// RunQ19 executes TPC-H Q19 over the tables with the named join
// algorithm (NOP, NOPA, CPRL or CPRA — the four executors of Figure 14)
// using late materialization: non-key attributes are fetched through row
// ids only when a predicate or the aggregate needs them (Listing 4).
func RunQ19(tb *Tables, algo string, threads int) (*QueryResult, error) {
	if threads < 1 {
		threads = 1
	}
	switch algo {
	case "NOP":
		return q19NoPartition(tb, threads, false)
	case "NOPA":
		return q19NoPartition(tb, threads, true)
	case "CPRL":
		return q19Chunked(tb, threads, false)
	case "CPRA":
		return q19Chunked(tb, threads, true)
	}
	return nil, fmt.Errorf("tpch: no Q19 executor for algorithm %q", algo)
}

// q19Accumulator is one worker's aggregate state.
type q19Accumulator struct {
	revenue    float64
	matches    int64
	candidates int64
}

// fold merges per-worker accumulators into the result.
func fold(res *QueryResult, accs []q19Accumulator) {
	for _, a := range accs {
		res.Revenue += a.revenue
		res.Matches += a.matches
		res.JoinCandidates += a.candidates
	}
}

// q19NoPartition is the pipelined NOP/NOPA plan of Listing 4: build the
// global structure over p_partkey, then a single pass over Lineitem
// applies the pushed-down predicate, probes, applies the residual
// predicate via row ids, and aggregates — no join index is materialized.
func q19NoPartition(tb *Tables, threads int, array bool) (*QueryResult, error) {
	l, p := tb.Lineitem, tb.Part
	res := &QueryResult{Algorithm: "NOP"}
	if array {
		res.Algorithm = "NOPA"
	}
	accs := make([]q19Accumulator, threads)
	// One pool per query. It runs under context.Background, so its
	// phases cannot be cancelled and their errors are always nil.
	pool := exec.NewPool(context.Background(), threads)

	start := time.Now()
	var at *hashtable.ArrayTable
	var lt *hashtable.LinearTable
	buildChunks := tuple.Chunks(p.NumTuples, threads)
	if array {
		at = hashtable.NewArrayTable(0, p.NumTuples, nil)
		_ = pool.Run("build", func(wk *exec.Worker) {
			w := wk.ID
			c := buildChunks[w]
			for _, tp := range p.PartKey[c.Begin:c.End] {
				at.InsertConcurrent(tp)
			}
		})
		at.FinishConcurrentBuild()
	} else {
		lt = hashtable.NewLinearTable(p.NumTuples, 0, hashfn.Identity, nil)
		_ = pool.Run("build", func(wk *exec.Worker) {
			w := wk.ID
			c := buildChunks[w]
			for _, tp := range p.PartKey[c.Begin:c.End] {
				lt.InsertConcurrent(tp)
			}
		})
	}
	buildDone := time.Now()

	probeChunks := tuple.Chunks(l.NumTuples, threads)
	_ = pool.Run("probe", func(wk *exec.Worker) {
		w := wk.ID
		acc := &accs[w]
		c := probeChunks[w]
		for i := c.Begin; i < c.End; i++ {
			if !PreJoin(l, i) {
				continue
			}
			var rowP tuple.Payload
			var ok bool
			if array {
				rowP, ok = at.Lookup(l.PartKey[i].Key)
			} else {
				rowP, ok = lt.Lookup(l.PartKey[i].Key)
			}
			if !ok {
				continue
			}
			acc.candidates++
			if PostJoin(l, p, i, int(rowP)) {
				acc.matches++
				acc.revenue += float64(l.ExtendedPrice[i]) * (1 - float64(l.Discount[i]))
			}
		}
	})
	end := time.Now()

	res.BuildTime = buildDone.Sub(start)
	res.ProbeTime = end.Sub(buildDone)
	res.Total = end.Sub(start)
	fold(res, accs)
	return res, nil
}

// q19Chunked is the CPRL/CPRA plan: pre-filter Lineitem into a
// materialized <partkey,rowID> probe input (Section 8 feeds the radix
// joins a "pre-filtered (and pre-materialized) probe input"), chunk-
// partition both sides, join co-partitions, and evaluate the residual
// predicate through the row ids carried in the narrow join tuples —
// the random accesses into other columns whose cache effects Section 8
// discusses.
func q19Chunked(tb *Tables, threads int, array bool) (*QueryResult, error) {
	l, p := tb.Lineitem, tb.Part
	res := &QueryResult{Algorithm: "CPRL"}
	if array {
		res.Algorithm = "CPRA"
	}
	accs := make([]q19Accumulator, threads)
	// One pool per query. It runs under context.Background, so its
	// phases cannot be cancelled and their errors are always nil.
	pool := exec.NewPool(context.Background(), threads)

	start := time.Now()
	filtered := FilterLineitem(l)
	bits := radix.PredictBits(p.NumTuples, 1, threads, radix.PaperMachine())
	pr := radix.PartitionChunked(p.PartKey, bits, threads, true)
	ps := radix.PartitionChunked(filtered, bits, threads, true)
	partitionDone := time.Now()

	queue := exec.NewLIFO(exec.SequentialOrder(1 << bits))
	domainPerPart := (p.NumTuples >> bits) + 1
	_ = pool.Run("join", func(wk *exec.Worker) {
		w := wk.ID
		acc := &accs[w]
		var at *hashtable.ArrayTable
		var lt *hashtable.LinearTable
		if array {
			at = hashtable.NewArrayTable(0, domainPerPart, nil)
		}
		for {
			part, ok := queue.Pop()
			if !ok {
				return
			}
			n := pr.PartLen(part)
			if n == 0 {
				continue
			}
			if array {
				at.Reset()
				for _, frag := range pr.Fragments(part) {
					for _, tp := range frag {
						at.Insert(tuple.Tuple{Key: tp.Key >> bits, Payload: tp.Payload})
					}
				}
			} else {
				if lt == nil || n*2 > lt.Slots() {
					lt = hashtable.NewLinearTable(n, 0, hashfn.Identity, nil)
				} else {
					lt.Reset()
				}
				for _, frag := range pr.Fragments(part) {
					for _, tp := range frag {
						lt.Insert(tuple.Tuple{Key: tp.Key >> bits, Payload: tp.Payload})
					}
				}
			}
			for _, frag := range ps.Fragments(part) {
				for _, tp := range frag {
					var rowP tuple.Payload
					var ok bool
					if array {
						rowP, ok = at.Lookup(tp.Key >> bits)
					} else {
						rowP, ok = lt.Lookup(tp.Key >> bits)
					}
					if !ok {
						continue
					}
					acc.candidates++
					rowL := int(tp.Payload)
					if PostJoin(l, p, rowL, int(rowP)) {
						acc.matches++
						acc.revenue += float64(l.ExtendedPrice[rowL]) * (1 - float64(l.Discount[rowL]))
					}
				}
			}
		}
	})
	end := time.Now()

	res.BuildTime = partitionDone.Sub(start)
	res.ProbeTime = end.Sub(partitionDone)
	res.Total = end.Sub(start)
	fold(res, accs)
	return res, nil
}

// ReferenceQ19 computes the query with a naive single-threaded plan —
// the oracle for the executors.
func ReferenceQ19(tb *Tables) *QueryResult {
	l, p := tb.Lineitem, tb.Part
	res := &QueryResult{Algorithm: "REF"}
	byKey := make(map[tuple.Key]int, p.NumTuples)
	for i, tp := range p.PartKey {
		byKey[tp.Key] = i
	}
	for i := 0; i < l.NumTuples; i++ {
		if !PreJoin(l, i) {
			continue
		}
		rowP, ok := byKey[l.PartKey[i].Key]
		if !ok {
			continue
		}
		res.JoinCandidates++
		if PostJoin(l, p, i, rowP) {
			res.Matches++
			res.Revenue += float64(l.ExtendedPrice[i]) * (1 - float64(l.Discount[i]))
		}
	}
	return res
}
