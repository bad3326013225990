package join

import (
	"context"
	"errors"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/tuple"
)

// TestSkewPrebuildCancelReleasesProbeCopies pins the cancellation leak
// fixed in the skew-aware join phase: prebuild tasks copy each split
// partition's probe side into an arena buffer, and a cancellation that
// lands mid-prebuild used to abandon the copies made so far. The test
// drives the join phase directly on a single-threaded pool so
// the cancellation point is exact: the second prebuild task cancels the
// context after the first task's probe copy already lives in the arena.
func TestSkewPrebuildCancelReleasesProbeCopies(t *testing.T) {
	// Two partitions heavy enough to exceed planTasks' split threshold
	// (4x the average probe size) among fourteen singleton partitions:
	// both become split tasks with prebuilt shared tables.
	const parts = 16
	heavy := map[int]bool{0: true, 1: true}
	buildParts := make([]tuple.Relation, parts)
	probeParts := make([]tuple.Relation, parts)
	for p := 0; p < parts; p++ {
		n := 1
		if heavy[p] {
			n = 8000
		}
		rel := make(tuple.Relation, n)
		for i := range rel {
			rel[i] = tuple.Tuple{Key: tuple.Key(p), Payload: tuple.Payload(i)}
		}
		probeParts[p] = rel
		buildParts[p] = tuple.Relation{{Key: tuple.Key(p), Payload: 1}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	arena := exec.NewArena()
	pool := exec.NewPool(ctx, 1)
	pool.SetArena(arena)

	o := (&Options{Threads: 1, SplitSkewedTasks: true}).normalize()
	probeCalls := 0
	order := make([]int, parts)
	probeLens := make([]int, parts)
	for p := range order {
		order[p] = p
		probeLens[p] = len(probeParts[p])
	}
	ph := &joinPhase{
		o:             &o,
		design:        DesignChained,
		op:            tableOpBytes(DesignChained),
		domainPerPart: 1,
		tasks:         planTasks(probeLens, order, o.Threads, o.SplitSkewedTasks),
		buildFrags: func(dst []tuple.Relation, p int) []tuple.Relation {
			return append(dst, buildParts[p])
		},
		probeFrags: func(dst []tuple.Relation, p int) []tuple.Relation {
			probeCalls++
			if probeCalls == 2 {
				// First prebuild task completed; its arena probe copy is
				// in sharedProbe. Cancel before the queue's next pop.
				cancel()
			}
			return append(dst, probeParts[p])
		},
		buildLen: func(p int) int { return len(buildParts[p]) },
	}
	err := ph.run(pool, make([]sink, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if probeCalls != 2 {
		t.Fatalf("expected exactly 2 prebuild tasks before cancellation, saw %d probe-side reads", probeCalls)
	}
	if out := arena.Outstanding(); out != 0 {
		t.Fatalf("cancelled skew prebuild left %d arena buffers outstanding", out)
	}
}
