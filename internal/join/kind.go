package join

import (
	"fmt"

	"mmjoin/internal/exec"
	"mmjoin/internal/hashtable"
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

// kindProbeTable is the table contract of the non-inner probe paths:
// scalar and batched first-match lookups (which mark build entries once
// EnableMatchTracking was called) and the unmatched post-pass. All six
// hash tables implement it.
type kindProbeTable interface {
	Lookup(k tuple.Key) (tuple.Payload, bool)
	LookupBatch(keys []tuple.Key, s *hashtable.BatchScratch, payloads []tuple.Payload, found []bool)
	EnableMatchTracking()
	ForEachUnmatched(fn func(tuple.Key, tuple.Payload))
	Len() int
}

// probeRunKind probes one contiguous run tuple-at-a-time with the
// kind's emission rules; the scalar counterpart of probeKindRun. Keys
// are shifted by shift (the radix bit count inside a partition, 0 for
// global tables). Right/full-outer tables track matches, so the same
// Lookup marks the build entries the unmatched post-pass skips.
func probeRunKind(kind Kind, ht kindProbeTable, run []tuple.Tuple, shift uint, s *sink) {
	switch kind {
	case LeftOuter, FullOuter:
		for _, tp := range run {
			if p, ok := ht.Lookup(tp.Key >> shift); ok {
				s.emit(p, tp.Payload)
			} else {
				s.emit(tuple.NullPayload, tp.Payload)
			}
		}
	case RightOuter:
		for _, tp := range run {
			if p, ok := ht.Lookup(tp.Key >> shift); ok {
				s.emit(p, tp.Payload)
			}
		}
	case LeftSemi:
		for _, tp := range run {
			if _, ok := ht.Lookup(tp.Key >> shift); ok {
				s.emit(tuple.NullPayload, tp.Payload)
			}
		}
	case LeftAnti:
		for _, tp := range run {
			if _, ok := ht.Lookup(tp.Key >> shift); !ok {
				s.emit(tuple.NullPayload, tp.Payload)
			}
		}
	}
}

// emitKindLanes applies the kind's emission rules to one batch of lookup
// results: lane i pairs buildPays[i]/found[i] with probe payload
// pays[i].
func emitKindLanes(kind Kind, s *sink, pays, buildPays []tuple.Payload, found []bool, n int) {
	pays, buildPays, found = pays[:n], buildPays[:n], found[:n]
	switch kind {
	case LeftOuter, FullOuter:
		for i, pp := range pays {
			if found[i] {
				s.emit(buildPays[i], pp)
			} else {
				s.emit(tuple.NullPayload, pp)
			}
		}
	case RightOuter:
		for i, pp := range pays {
			if found[i] {
				s.emit(buildPays[i], pp)
			}
		}
	case LeftSemi:
		for i, pp := range pays {
			if found[i] {
				s.emit(tuple.NullPayload, pp)
			}
		}
	case LeftAnti:
		for i, pp := range pays {
			if !found[i] {
				s.emit(tuple.NullPayload, pp)
			}
		}
	}
}

// lookupBufs returns the batch lookup output arrays, allocated on first
// use like the staging buffers.
func (bs *batchState) lookupBufs() ([]tuple.Payload, []bool) {
	if bs.lookPays == nil {
		bs.lookPays = make([]tuple.Payload, hashtable.BatchSize)
	}
	if bs.lookFound == nil {
		bs.lookFound = make([]bool, hashtable.BatchSize)
	}
	return bs.lookPays, bs.lookFound
}

// probeKindRun is probeRun with kind emission: batches of the run go
// through LookupBatch (marking build matches when the table tracks
// them) and the lanes are emitted per the kind's rules. Byte charges
// match probeRun's, keeping the scalar/batched accounting identical.
func (bs *batchState) probeKindRun(w *exec.Worker, kind Kind, ht kindProbeTable, run []tuple.Tuple, shift uint, op int64, s *sink) {
	keys, pays := bs.buffers()
	buildPays, found := bs.lookupBufs()
	for lo := 0; lo < len(run); lo += hashtable.BatchSize {
		hi := min(lo+hashtable.BatchSize, len(run))
		n := hi - lo
		gatherShifted(keys[:n], pays[:n], run[lo:hi], shift)
		ht.LookupBatch(keys[:n], &bs.scratch, buildPays, found)
		emitKindLanes(kind, s, pays, buildPays, found, n)
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// probeKindFrags is probeInto with kind emission: partition fragments
// are staged through the batch cursor, looked up, and emitted per the
// kind's rules.
func (bs *batchState) probeKindFrags(w *exec.Worker, kind Kind, ht kindProbeTable, frags []tuple.Relation, bits uint, op int64, s *sink) {
	keys, pays := bs.buffers()
	buildPays, found := bs.lookupBufs()
	bs.cursor.Reset(frags)
	for {
		n := bs.cursor.Next(keys, pays, bits)
		if n == 0 {
			return
		}
		ht.LookupBatch(keys[:n], &bs.scratch, buildPays, found)
		emitKindLanes(kind, s, pays, buildPays, found, n)
		w.AddBytes(int64(n) * (tuple.Bytes + op))
	}
}

// emitUnmatchedBuild is the right/full-outer post-pass: after all probes
// completed, every build entry whose mark was never set pads one output
// row. The walk is shared by the scalar and batched flavors (and charged
// identically: one streaming read of the table's entries).
func emitUnmatchedBuild(w *exec.Worker, ht kindProbeTable, s *sink) {
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

// joinTaskKind is joinTask/joinTaskBatch for the non-inner kinds: build
// the per-co-partition table (scalar inserts or BuildBatch per the
// flavor), probe with the kind's emission rules, and, for right/full
// outer, walk the never-matched build entries. Byte charges per side
// match the inner paths', so the scalar and batched flavors stay in
// exact accounting parity.
func (j *radixJoin) joinTaskKind(w *exec.Worker, wk *workerState, s *sink, kind Kind, scalar bool, bits uint, buildFrags, probeFrags []tuple.Relation, buildLen, probeLen int, op int64) {
	if buildLen == 0 {
		// Nothing to build: every probe tuple of the co-partition is
		// unmatched. The streamed probe side is still charged, exactly
		// like the inner paths' empty-build case.
		if kind.padsProbe() {
			for _, frag := range probeFrags {
				for _, tp := range frag {
					s.emit(tuple.NullPayload, tp.Payload)
				}
			}
		}
		w.AddBytes(int64(probeLen) * (tuple.Bytes + op))
		return
	}
	var bt interface {
		Insert(tuple.Tuple)
		batchJoinTable
	}
	var ht kindProbeTable
	switch wk.kind {
	case chainedKind:
		t := wk.chainedFor(buildLen)
		bt, ht = t, t
	case linearKind:
		t := wk.linearFor(buildLen)
		bt, ht = t, t
	case arrayKind:
		wk.array.Reset()
		bt, ht = wk.array, wk.array
	}
	if scalar {
		for _, frag := range buildFrags {
			for _, tp := range frag {
				bt.Insert(tuple.Tuple{Key: tp.Key >> bits, Payload: tp.Payload})
			}
		}
		w.AddBytes(int64(buildLen) * (tuple.Bytes + op))
	} else {
		wk.batch.buildFrom(w, bt, buildFrags, bits, op)
	}
	if kind.padsBuild() {
		ht.EnableMatchTracking()
	}
	if scalar {
		for _, frag := range probeFrags {
			probeRunKind(kind, ht, frag, bits, s)
		}
		w.AddBytes(int64(probeLen) * (tuple.Bytes + op))
	} else {
		wk.batch.probeKindFrags(w, kind, ht, probeFrags, bits, op, s)
	}
	if kind.padsBuild() {
		emitUnmatchedBuild(w, ht, s)
	}
}

// mergeJoinKind is the sort-merge counterpart of probeRunKind: one
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
