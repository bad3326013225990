package join

import (
	"fmt"

	"mmjoin/internal/exec"
	"mmjoin/internal/mway"
	"mmjoin/internal/tuple"
)

// Join-kind layer: the paper measures inner equi-joins only, but every
// algorithm here also supports the outer/semi/anti variants of the SQL
// join contract plus NULL-key semantics. The generalization is factored
// so the inner hot path is untouched: a driver consults Options.Kind
// once, and only the non-inner (or nullable) executions go through the
// helpers in this file.
//
// Orientation: the probe relation S is the LEFT (outer, streamed) side,
// the build relation R the RIGHT (inner) side — the convention of a
// hash join executing "S LEFT JOIN R". Padded output rows reuse the
// <build payload, probe payload> pair shape with tuple.NullPayload in
// the missing slot; semi and anti joins, which project only the probe
// side, carry NullPayload in the build slot of every row. Result.Matches
// counts all emitted rows, padding included.
//
// NULL keys (tuple.NullKey) never match, not even each other. Rather
// than teaching six hash tables and two partitioners about a sentinel
// that breaks their key arithmetic (biased keys, shifted radix keys,
// array domains), the drivers split null-keyed tuples off both inputs
// before any kernel runs: a null build tuple can only ever surface as
// right/full-outer padding, a null probe tuple only as left-outer/anti
// padding, and both are emitted directly by splitKindInputs. The
// filtered relations keep the workloads' unique-build-key property, so
// the kernels' first-match probe semantics stay exact.

// Kind selects the join variant computed over build ⋈ probe.
type Kind uint8

const (
	// Inner is the paper's equi-join: one row per matching pair.
	Inner Kind = iota
	// LeftOuter additionally emits <NullPayload, probePayload> for every
	// probe tuple without a build match.
	LeftOuter
	// RightOuter additionally emits <buildPayload, NullPayload> for
	// every build tuple no probe tuple matched.
	RightOuter
	// FullOuter combines LeftOuter and RightOuter padding.
	FullOuter
	// LeftSemi emits <NullPayload, probePayload> once per probe tuple
	// that has at least one build match.
	LeftSemi
	// LeftAnti emits <NullPayload, probePayload> once per probe tuple
	// that has no build match.
	LeftAnti
)

// Kinds returns all join kinds in declaration order.
func Kinds() []Kind {
	return []Kind{Inner, LeftOuter, RightOuter, FullOuter, LeftSemi, LeftAnti}
}

func (k Kind) String() string {
	switch k {
	case Inner:
		return "inner"
	case LeftOuter:
		return "left-outer"
	case RightOuter:
		return "right-outer"
	case FullOuter:
		return "full-outer"
	case LeftSemi:
		return "left-semi"
	case LeftAnti:
		return "left-anti"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind resolves a Kind from its String form.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return Inner, fmt.Errorf("join: unknown join kind %q", s)
}

// padsProbe reports whether unmatched probe tuples produce output rows.
func (k Kind) padsProbe() bool { return k == LeftOuter || k == FullOuter || k == LeftAnti }

// padsBuild reports whether unmatched build tuples produce output rows,
// which requires build-side match tracking and an unmatched post-pass.
func (k Kind) padsBuild() bool { return k == RightOuter || k == FullOuter }

// splitKindInputs is the shared null prelude: when Options.NullableKeys
// declares that NULL keys may be present, both relations are scanned and
// null-keyed tuples are split off (the originals are returned untouched
// when a side holds none). Padding rows owed to null tuples are emitted
// into pre immediately — a null key matches nothing, so its output is
// known without running the join. Runs identically for the scalar and
// batched kernel flavors, before any phase, so it cannot perturb the
// per-phase accounting parity between them.
func splitKindInputs(o *Options, build, probe tuple.Relation, pre *sink) (tuple.Relation, tuple.Relation) {
	if !o.NullableKeys {
		// Without the declaration the inputs are trusted null-free; a
		// stray NullKey would be treated as an ordinary (reserved) key
		// value. This keeps Kind != Inner runs over known-clean data free
		// of the two scans.
		return build, probe
	}
	build = splitNullSide(build, o.Kind.padsBuild(), func(p tuple.Payload) {
		pre.emit(p, tuple.NullPayload)
	})
	probe = splitNullSide(probe, o.Kind.padsProbe(), func(p tuple.Payload) {
		pre.emit(tuple.NullPayload, p)
	})
	return build, probe
}

// splitNullSide returns rel without its null-keyed tuples, invoking pad
// for each one removed when the kind pads this side. The input is
// returned as-is when it contains no nulls.
func splitNullSide(rel tuple.Relation, pads bool, pad func(tuple.Payload)) tuple.Relation {
	nulls := 0
	for _, tp := range rel {
		if tp.Key == tuple.NullKey {
			nulls++
		}
	}
	if nulls == 0 {
		return rel
	}
	out := make(tuple.Relation, 0, len(rel)-nulls)
	for _, tp := range rel {
		if tp.Key == tuple.NullKey {
			if pads {
				pad(tp.Payload)
			}
			continue
		}
		out = append(out, tp)
	}
	return out
}

// emitLane applies the kind's emission rules to one probe tuple: bp and
// found are its first-match lookup, pp its payload. Inner and
// right-outer joins emit matches only; right/full-outer build padding
// is the unmatched post-pass's.
func emitLane(kind Kind, s *sink, bp tuple.Payload, found bool, pp tuple.Payload) {
	switch {
	case !found && !kind.padsProbe(), found && kind == LeftAnti:
		return
	case !found, kind == LeftSemi:
		bp = tuple.NullPayload
	}
	s.emit(bp, pp)
}

// emitKindLanes applies emitLane to one batch of lookup results: lane i
// pairs buildPays[i]/found[i] with probe payload pays[i].
func emitKindLanes(kind Kind, s *sink, pays, buildPays []tuple.Payload, found []bool, n int) {
	pays, buildPays, found = pays[:n], buildPays[:n], found[:n]
	for i, pp := range pays {
		emitLane(kind, s, buildPays[i], found[i], pp)
	}
}

// emitUnmatchedBuild is the right/full-outer post-pass: after all probes
// completed, every build entry whose mark was never set pads one output
// row. The walk is shared by the scalar and batched flavors (and charged
// identically: one streaming read of the table's entries).
func emitUnmatchedBuild(w *exec.Worker, ht joinTable, s *sink) {
	ht.ForEachUnmatched(func(_ tuple.Key, bp tuple.Payload) {
		s.emit(bp, tuple.NullPayload)
	})
	if w != nil {
		w.AddBytes(int64(ht.Len()) * tuple.Bytes)
	}
}

// mergePre folds the null prelude's padding rows into the result after
// the per-worker sinks.
func mergePre(res *Result, pre *sink) {
	res.Matches += pre.matches
	res.Checksum += pre.checksum
	res.Pairs = append(res.Pairs, pre.pairs...)
}

// mergeJoinKind is the sort-merge counterpart of emitLane: one
// merge pass over two sorted runs with the kind's emission rules, built
// on mway.MergeJoinEvents so the traversal (and byte traffic) is
// identical to the inner MergeJoin. r is the build side, s2 the probe
// side. rMatched, when non-nil, must have len(r) entries; matched r
// indices are flagged instead of emitting right padding inline — the
// MPSM driver merges one r range against several s runs and pads only
// after the last one.
func mergeJoinKind(kind Kind, r, s2 tuple.Relation, snk *sink, rMatched []bool) {
	var ev mway.MergeEvents
	switch kind {
	case LeftOuter:
		ev.Pair = func(ri, si int) { snk.emit(r[ri].Payload, s2[si].Payload) }
		ev.SOnly = func(si int) { snk.emit(tuple.NullPayload, s2[si].Payload) }
	case RightOuter:
		ev.Pair = func(ri, si int) { snk.emit(r[ri].Payload, s2[si].Payload) }
	case FullOuter:
		ev.Pair = func(ri, si int) { snk.emit(r[ri].Payload, s2[si].Payload) }
		ev.SOnly = func(si int) { snk.emit(tuple.NullPayload, s2[si].Payload) }
	case LeftSemi:
		ev.SemiS = func(si int) { snk.emit(tuple.NullPayload, s2[si].Payload) }
	case LeftAnti:
		ev.SOnly = func(si int) { snk.emit(tuple.NullPayload, s2[si].Payload) }
	}
	if kind.padsBuild() {
		if rMatched != nil {
			base := ev.Pair
			ev.Pair = func(ri, si int) {
				rMatched[ri] = true
				if base != nil {
					base(ri, si)
				}
			}
		} else {
			ev.ROnly = func(ri int) { snk.emit(r[ri].Payload, tuple.NullPayload) }
		}
	}
	mway.MergeJoinEvents(r, s2, ev)
}
