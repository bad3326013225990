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

// Tuple reconstruction strategies for the CPR* executors — the future
// work Section 10 calls for ("evaluate the cross product of different
// join algorithms and the large space of tuple reconstruction
// algorithms, in particular for the very promising CPR*-family").
//
// The problem (Section 8): after partitioning, the row ids carried in
// the narrow join tuples point to arbitrary positions of the original
// Lineitem columns, so every post-join attribute access pollutes caches
// and TLB. RunQ19Compacted applies projection compaction: while
// filtering, the columns the residual predicate and the aggregate need
// (quantity, extendedprice, discount) are copied into dense arrays
// aligned with the filtered relation. Row ids then index small dense
// arrays — 3.57% of the original column volume — restoring most of the
// locality that late materialization loses.

// RunQ19Compacted executes Q19 with the CPRL or CPRA join and compacted
// early-projected probe-side columns.
func RunQ19Compacted(tb *Tables, algo string, threads int) (*QueryResult, error) {
	if threads < 1 {
		threads = 1
	}
	array := false
	switch algo {
	case "CPRL":
	case "CPRA":
		array = true
	default:
		return nil, fmt.Errorf("tpch: no compacted executor for algorithm %q", algo)
	}
	l, p := tb.Lineitem, tb.Part
	res := &QueryResult{Algorithm: algo + "+compact"}
	accs := make([]q19Accumulator, threads)
	// One pool per query. It runs under context.Background, so its
	// phases cannot be cancelled and their errors are always nil.
	pool := exec.NewPool(context.Background(), threads)

	start := time.Now()
	// Filter + project in one pass: the filtered relation's payload is
	// the index into the compacted columns (not the original row id).
	filtered := make(tuple.Relation, 0, l.NumTuples/16)
	var quantity []uint32
	var price, discount []float32
	for i := 0; i < l.NumTuples; i++ {
		if !PreJoin(l, i) {
			continue
		}
		filtered = append(filtered, tuple.Tuple{Key: l.PartKey[i].Key, Payload: tuple.Payload(len(filtered))})
		quantity = append(quantity, l.Quantity[i])
		price = append(price, l.ExtendedPrice[i])
		discount = append(discount, l.Discount[i])
	}
	// Compact view of the Lineitem columns for the residual predicate.
	compact := &LineitemTable{NumTuples: len(filtered), Quantity: quantity}

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
					ci := int(tp.Payload) // compacted index
					if PostJoin(compact, p, ci, int(rowP)) {
						acc.matches++
						acc.revenue += float64(price[ci]) * (1 - float64(discount[ci]))
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
