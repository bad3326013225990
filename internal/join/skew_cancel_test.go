package join

import (
	"context"
	"errors"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/tuple"
)

// TestSkewPrebuildCancelReleasesProbeCopies pins the cancellation leak
// fixed in the skew-aware join phase: prebuild tasks draw each split
// partition's shared table from the arena, and a cancellation that
// lands mid-prebuild must not abandon the tables made so far. The test
// drives the join phase directly on a single-threaded pool so the
// cancellation point is exact: the second prebuild task cancels the
// context after the first task's shared table already lives in the
// arena.
func TestSkewPrebuildCancelReleasesProbeCopies(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	arena := exec.NewArena()
	pool := exec.NewPool(ctx, 1)
	pool.SetArena(arena)

	ph, _ := newSkewTestPhase(&Options{Threads: 1, SplitSkewedTasks: true, Arena: arena}, 1)
	buildCalls := 0
	buildFrags := ph.buildFrags
	ph.buildFrags = func(dst []tuple.Relation, p int) []tuple.Relation {
		buildCalls++
		if buildCalls == 2 {
			// First prebuild task completed; its arena table is in
			// shared. Cancel before the queue's next pop.
			cancel()
		}
		return buildFrags(dst, p)
	}
	err := ph.run(pool, make([]sink, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buildCalls != 2 {
		t.Fatalf("expected exactly 2 prebuild tasks before cancellation, saw %d build-side reads", buildCalls)
	}
	if out := arena.Outstanding(); out != 0 {
		t.Fatalf("cancelled skew prebuild left %d arena buffers outstanding", out)
	}
}

// newSkewTestPhase returns a chained join phase over sixteen
// partitions. Partitions 0 and 1 carry probe sides heavy enough to
// exceed planTasks' split threshold (4x the average probe size) among
// fourteen singleton partitions, so both become split tasks with
// prebuilt shared tables; they hold heavyBuild build tuples each, the
// others one. It also returns the build sides.
func newSkewTestPhase(opts *Options, heavyBuild int) (*joinPhase, []tuple.Relation) {
	const parts = 16
	buildParts := make([]tuple.Relation, parts)
	probeParts := make([]tuple.Relation, parts)
	order := make([]int, parts)
	probeLens := make([]int, parts)
	for p := 0; p < parts; p++ {
		nProbe, nBuild := 1, 1
		if p < 2 {
			nProbe, nBuild = 8000, heavyBuild
		}
		probeParts[p] = make(tuple.Relation, nProbe)
		for i := range probeParts[p] {
			probeParts[p][i] = tuple.Tuple{Key: tuple.Key(p + parts*(i%nBuild)), Payload: tuple.Payload(i)}
		}
		buildParts[p] = make(tuple.Relation, nBuild)
		for i := range buildParts[p] {
			buildParts[p][i] = tuple.Tuple{Key: tuple.Key(p + parts*i), Payload: 1}
		}
		order[p] = p
		probeLens[p] = nProbe
	}
	o := opts.normalize()
	return &joinPhase{
		o:             &o,
		design:        DesignChained,
		op:            tableOpBytes(DesignChained),
		domainPerPart: 1,
		tasks:         planTasks(probeLens, order, o.Threads, o.SplitSkewedTasks),
		buildFrags: func(dst []tuple.Relation, p int) []tuple.Relation {
			return append(dst, buildParts[p])
		},
		probeFrags: func(dst []tuple.Relation, p int) []tuple.Relation {
			return append(dst, probeParts[p])
		},
		buildLen: func(p int) int { return len(buildParts[p]) },
	}, buildParts
}

// TestSkewPrebuildChargesBuildSidesOnly checks that the skew-prebuild
// phase touches only the split partitions' build sides: its bytes are
// exactly the build half's charge for them, with no probe-side copy.
// The split tasks still find every match.
func TestSkewPrebuildChargesBuildSidesOnly(t *testing.T) {
	pool := exec.NewPool(context.Background(), 2)
	ph, buildParts := newSkewTestPhase(&Options{Threads: 2, SplitSkewedTasks: true}, 300)
	sinks := make([]sink, 2)
	if err := ph.run(pool, sinks); err != nil {
		t.Fatal(err)
	}
	if len(ph.split) != 2 {
		t.Fatalf("split partitions = %v, want [0 1]", ph.split)
	}
	prebuild := pool.Stats().Phase("skew-prebuild")
	if prebuild == nil {
		t.Fatal("no skew-prebuild phase")
	}
	want := int64(len(buildParts[0])+len(buildParts[1])) * (tuple.Bytes + ph.op)
	if prebuild.Bytes != want {
		t.Errorf("skew-prebuild bytes = %d, want the build sides' %d", prebuild.Bytes, want)
	}
	// Every probe tuple has exactly one build match.
	var matches int64
	for i := range sinks {
		matches += sinks[i].matches
	}
	if want := int64(2*8000 + 14); matches != want {
		t.Errorf("matches = %d, want %d", matches, want)
	}
}

// TestCutFrags checks every range cut over a fragment list with empty
// and unequal fragments against the flat concatenation.
func TestCutFrags(t *testing.T) {
	lens := []int{3, 0, 5, 1, 0, 4}
	var flat tuple.Relation
	var frags []tuple.Relation
	for _, n := range lens {
		f := make(tuple.Relation, n)
		for i := range f {
			f[i] = tuple.Tuple{Key: tuple.Key(len(flat) + i)}
		}
		flat = append(flat, f...)
		frags = append(frags, f)
	}
	for lo := 0; lo <= len(flat); lo++ {
		for hi := lo; hi <= len(flat); hi++ {
			var got tuple.Relation
			for _, f := range cutFrags(append([]tuple.Relation(nil), frags...), lo, hi) {
				if len(f) == 0 {
					t.Fatalf("[%d,%d): empty fragment kept", lo, hi)
				}
				got = append(got, f...)
			}
			if len(got) != hi-lo {
				t.Fatalf("[%d,%d): %d tuples", lo, hi, len(got))
			}
			for i, tp := range got {
				if tp != flat[lo+i] {
					t.Fatalf("[%d,%d): tuple %d = %v, want %v", lo, hi, i, tp, flat[lo+i])
				}
			}
		}
	}
}
