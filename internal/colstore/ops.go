package colstore

import (
	"context"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/radix"
	"mmjoin/internal/tuple"
)

// Vectorized operators over selection vectors. A SelectionVector holds
// the surviving row ids of one table, in ascending order; operators
// refine it (filters), combine two tables' vectors (joins), or consume
// it (aggregation). Attributes are fetched through the vector only when
// an operator needs them — late materialization, the strategy Section 8
// adopts ("all attributes are only touched when required").

// SelectionVector is the surviving row ids of a table.
type SelectionVector []uint32

// FullSelection selects all n rows.
func FullSelection(n int) SelectionVector {
	sv := make(SelectionVector, n)
	for i := range sv {
		sv[i] = uint32(i)
	}
	return sv
}

// FilterUint32 keeps the rows whose column value satisfies pred.
func FilterUint32(c *Uint32Column, sv SelectionVector, pred func(uint32) bool) SelectionVector {
	out := sv[:0:0]
	for _, row := range sv {
		if pred(c.Values[row]) {
			out = append(out, row)
		}
	}
	return out
}

// FilterDictIn keeps the rows whose dictionary code is in the set —
// the `x IN (...)` predicates of Q19, evaluated on codes.
func FilterDictIn(c *DictColumn, sv SelectionVector, values ...string) SelectionVector {
	var mask [4]uint64 // 256-bit code set
	for _, v := range values {
		if code, ok := c.Code(v); ok {
			mask[code>>6] |= 1 << (code & 63)
		}
	}
	out := sv[:0:0]
	for _, row := range sv {
		code := c.Codes[row]
		if mask[code>>6]&(1<<(code&63)) != 0 {
			out = append(out, row)
		}
	}
	return out
}

// JoinPair is one surviving pair of row ids after a join.
type JoinPair struct {
	Left  uint32 // build-side row id
	Right uint32 // probe-side row id
}

// HashJoin equi-joins the build table's key column against the probe
// table's key column, restricted to the given selection vectors, and
// returns the matching row-id pairs. The kernel is the chunked radix
// join (CPRL) over the narrow key columns — a join index in the
// terminology of Appendix G.
func HashJoin(build *KeyColumn, buildSel SelectionVector, probe *KeyColumn, probeSel SelectionVector, threads int) []JoinPair {
	if threads < 1 {
		threads = 1
	}
	// Materialize the selected narrow inputs; payloads stay row ids.
	b := gather(build.Tuples, buildSel)
	p := gather(probe.Tuples, probeSel)
	if len(b) == 0 || len(p) == 0 {
		return nil
	}
	bits := radix.PredictBits(len(b), radix.LoadFactorFor("linear"), threads, radix.PaperMachine())
	pr := radix.PartitionChunked(b, bits, threads, true)
	ps := radix.PartitionChunked(p, bits, threads, true)
	queue := exec.NewLIFO(exec.SequentialOrder(1 << bits))
	results := make([][]JoinPair, threads)
	// One pool per join. It runs under context.Background, so its
	// phases cannot be cancelled and their errors are always nil.
	pool := exec.NewPool(context.Background(), threads)
	_ = pool.Run("join", func(wk *exec.Worker) {
		w := wk.ID
		var lt *hashtable.LinearTable
		for {
			part, ok := queue.Pop()
			if !ok {
				return
			}
			n := pr.PartLen(part)
			if n == 0 {
				continue
			}
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
			for _, frag := range ps.Fragments(part) {
				for _, tp := range frag {
					if rowB, ok := lt.Lookup(tp.Key >> bits); ok {
						results[w] = append(results[w], JoinPair{Left: uint32(rowB), Right: uint32(tp.Payload)})
					}
				}
			}
		}
	})
	var out []JoinPair
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

func gather(rel tuple.Relation, sv SelectionVector) tuple.Relation {
	out := make(tuple.Relation, len(sv))
	for i, row := range sv {
		out[i] = rel[row]
	}
	return out
}

// FilterPairs keeps the join pairs satisfying a residual predicate over
// both sides' attributes.
func FilterPairs(pairs []JoinPair, pred func(left, right uint32) bool) []JoinPair {
	out := pairs[:0:0]
	for _, pr := range pairs {
		if pred(pr.Left, pr.Right) {
			out = append(out, pr)
		}
	}
	return out
}

// SumFloatExpr aggregates expr over the surviving pairs — the final
// SUM(...) of Q19.
func SumFloatExpr(pairs []JoinPair, expr func(left, right uint32) float64) float64 {
	var sum float64
	for _, pr := range pairs {
		sum += expr(pr.Left, pr.Right)
	}
	return sum
}
