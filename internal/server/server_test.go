package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mmjoin/internal/datagen"
	"mmjoin/internal/join"
	"mmjoin/internal/tuple"
)

// pkRelation builds a dense primary-key relation: every key in
// [0, n) exactly once. Build sides must have unique keys — the paper's
// workloads are PK/FK joins and the kernels' first-match lookups
// depend on it — while probe sides may repeat keys freely.
func pkRelation(n int) tuple.Relation {
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(2*i + 1)}
	}
	return rel
}

// testWorkload returns a small deterministic build/probe pair plus the
// reference join's matches and checksum.
func testWorkload(t *testing.T, buildN, probeN int) (build, probe string, srv *Server, wantMatches int64, wantChecksum uint64) {
	t.Helper()
	srv = Open(Config{Threads: 2, WorkerSlots: 4})
	b := pkRelation(buildN)
	p := datagen.UniformRelation(probeN, buildN, 8)
	if err := srv.RegisterRelation("b", b); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterRelation("p", p); err != nil {
		t.Fatal(err)
	}
	ref, err := (join.Reference{}).Run(b, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return "b", "p", srv, ref.Matches, ref.Checksum
}

// TestCacheHitMissCorrectness is the service-level correctness table:
// for every table design, a cold query (miss, builds) and a warm query
// (hit, probe-only) return the reference matches and checksum — a
// cache hit is semantically invisible.
func TestCacheHitMissCorrectness(t *testing.T) {
	b, p, srv, wantM, wantC := testWorkload(t, 4096, 16384)
	for _, design := range join.TableDesigns() {
		t.Run(design.String(), func(t *testing.T) {
			srv.FlushCache()
			for i, wantHit := range []bool{false, true} {
				resp, err := srv.Join(context.Background(), Query{Build: b, Probe: p, Design: design.String()})
				if err != nil {
					t.Fatal(err)
				}
				if resp.CacheHit != wantHit {
					t.Fatalf("query %d: CacheHit = %v, want %v", i, resp.CacheHit, wantHit)
				}
				if resp.Result.Matches != wantM || resp.Result.Checksum != wantC {
					t.Fatalf("query %d (hit=%v): matches=%d checksum=%d, want %d/%d",
						i, wantHit, resp.Result.Matches, resp.Result.Checksum, wantM, wantC)
				}
				if wantHit && resp.Result.BuildOrPartition != 0 {
					t.Fatalf("hit carried a build phase: %v", resp.Result.BuildOrPartition)
				}
			}
		})
	}
	m := srv.Metrics()
	if m.Hits != int64(len(join.TableDesigns())) || m.Misses != int64(len(join.TableDesigns())) {
		t.Fatalf("metrics hits/misses = %d/%d, want %d each", m.Hits, m.Misses, len(join.TableDesigns()))
	}
}

// TestFusedPathMatchesReference covers the non-cacheable paths: forced
// algorithms and NoCache both bypass the cache and still agree with
// the reference.
func TestFusedPathMatchesReference(t *testing.T) {
	b, p, srv, wantM, wantC := testWorkload(t, 2048, 8192)
	for _, q := range []Query{
		{Build: b, Probe: p, NoCache: true},
		{Build: b, Probe: p, Algorithm: "CPRL"},
		{Build: b, Probe: p, Algorithm: "NOPA"},
	} {
		resp, err := srv.Join(context.Background(), q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if resp.CacheHit {
			t.Fatalf("%+v: unexpected cache hit", q)
		}
		if resp.Result.Matches != wantM || resp.Result.Checksum != wantC {
			t.Fatalf("%+v: matches=%d checksum=%d, want %d/%d",
				q, resp.Result.Matches, resp.Result.Checksum, wantM, wantC)
		}
	}
	if entries, _ := srv.cache.stats(); entries != 0 {
		t.Fatalf("fused queries populated the cache: %d entries", entries)
	}
}

// TestKindQueriesRunFused checks non-inner kinds take the fused path
// (cached tables cannot carry per-query outer/anti state) and return
// kind-correct results.
func TestKindQueriesRunFused(t *testing.T) {
	b, p, srv, _, _ := testWorkload(t, 1024, 4096)
	srv.mu.RLock()
	build, probe := srv.rels[b].rel, srv.rels[p].rel
	srv.mu.RUnlock()
	for _, kind := range []join.Kind{join.LeftOuter, join.LeftSemi, join.LeftAnti} {
		ref, err := (join.Reference{}).Run(build, probe, &join.Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Join(context.Background(), Query{Build: b, Probe: p, Kind: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if resp.CacheHit {
			t.Fatalf("%v: kind query hit the cache", kind)
		}
		if resp.Result.Matches != ref.Matches || resp.Result.Checksum != ref.Checksum {
			t.Fatalf("%v: matches=%d checksum=%d, want %d/%d",
				kind, resp.Result.Matches, resp.Result.Checksum, ref.Matches, ref.Checksum)
		}
	}
}

// TestDeadlineExpiresMidBuild arms a deadline shorter than a build
// stalled by the phase hook: the query must come back with
// DeadlineExceeded (not hang, not return a partial result), and the
// failed build must not poison the cache for the next query.
func TestDeadlineExpiresMidBuild(t *testing.T) {
	b, p, srv, wantM, wantC := testWorkload(t, 4096, 4096)
	q := Query{
		Build: b, Probe: p,
		Deadline: 30 * time.Millisecond,
		phaseHook: func(phase string) {
			if phase == "build" {
				time.Sleep(80 * time.Millisecond)
			}
		},
	}
	resp, err := srv.Join(context.Background(), q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (resp=%v), want DeadlineExceeded", err, resp)
	}
	// The expired build must not have cached anything; a clean retry
	// misses, rebuilds, and succeeds.
	resp, err = srv.Join(context.Background(), Query{Build: b, Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("retry after failed build reported a cache hit")
	}
	if resp.Result.Matches != wantM || resp.Result.Checksum != wantC {
		t.Fatalf("retry result wrong: %d/%d", resp.Result.Matches, resp.Result.Checksum)
	}
	if m := srv.Metrics(); m.Deadlines != 1 {
		t.Fatalf("deadline counter = %d, want 1", m.Deadlines)
	}
}

// TestCancelMidProbe cancels the caller's context once the execution
// reaches the probe phase; the query returns context.Canceled and the
// cached table stays usable for the next query.
func TestCancelMidProbe(t *testing.T) {
	b, p, srv, wantM, wantC := testWorkload(t, 4096, 16384)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := Query{
		Build: b, Probe: p,
		phaseHook: func(phase string) {
			if phase == "probe" {
				cancel()
			}
		},
	}
	if _, err := srv.Join(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// The build completed before the cancel, so the table is cached and
	// intact: the follow-up is a hit with the right answer.
	resp, err := srv.Join(context.Background(), Query{Build: b, Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || resp.Result.Matches != wantM || resp.Result.Checksum != wantC {
		t.Fatalf("post-cancel query: hit=%v matches=%d checksum=%d, want true/%d/%d",
			resp.CacheHit, resp.Result.Matches, resp.Result.Checksum, wantM, wantC)
	}
}

// TestAdmissionShedsUnderOverload fills the budget with one stalled
// query and checks a second sheds with ErrOverloaded after its
// admission wait — typed rejection, no unbounded queue.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	const buildN = 4096
	srv := Open(Config{
		Threads:      2,
		MemoryBudget: footprintBytes(buildN), // exactly one build fits
		MaxQueued:    4,
		AdmitWait:    20 * time.Millisecond,
	})
	defer srv.Close()
	b := pkRelation(buildN)
	p := datagen.UniformRelation(1024, buildN, 8)
	if err := srv.RegisterRelation("b", b); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterRelation("p", p); err != nil {
		t.Fatal(err)
	}

	holdRelease := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// NoCache keeps the whole build+probe under admission.
		_, err := srv.Join(context.Background(), Query{
			Build: "b", Probe: "p", NoCache: true,
			phaseHook: func(phase string) {
				if phase == "build" {
					close(started)
					<-holdRelease
				}
			},
		})
		if err != nil {
			t.Errorf("holder query: %v", err)
		}
	}()
	<-started

	if _, err := srv.Join(context.Background(), Query{Build: "b", Probe: "p", NoCache: true}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query err = %v, want ErrOverloaded", err)
	}
	close(holdRelease)
	wg.Wait()
	if m := srv.Metrics(); m.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Shed)
	}
	// With the budget free again, the same query succeeds.
	if _, err := srv.Join(context.Background(), Query{Build: "b", Probe: "p", NoCache: true}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownRelationAndClose(t *testing.T) {
	srv := Open(Config{})
	if err := srv.RegisterRelation("b", datagen.UniformRelation(64, 64, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Join(context.Background(), Query{Build: "b", Probe: "nope"}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("err = %v, want ErrUnknownRelation", err)
	}
	if _, err := srv.Join(context.Background(), Query{Build: "nope", Probe: "b"}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("err = %v, want ErrUnknownRelation", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := srv.Join(context.Background(), Query{Build: "b", Probe: "b"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	if err := srv.RegisterRelation("c", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close register err = %v, want ErrClosed", err)
	}
}

// TestPerQueryTraceIsolation runs two traced queries concurrently and
// checks each Response carries only its own spans (distinct probe
// relations make the span sets distinguishable by their byte counts).
func TestPerQueryTraceIsolation(t *testing.T) {
	b, p, srv, _, _ := testWorkload(t, 2048, 8192)
	// Warm the cache so both traced queries run probe-only.
	if _, err := srv.Join(context.Background(), Query{Build: b, Probe: p}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	resps := make([]*Response, 8)
	errs := make([]error, 8)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = srv.Join(context.Background(), Query{Build: b, Probe: p, Trace: true})
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(resp.Spans) == 0 {
			t.Fatalf("query %d: no spans", i)
		}
		for _, sp := range resp.Spans {
			if !strings.Contains(sp.Name, "probe") {
				t.Fatalf("query %d: unexpected span %q on a cached probe", i, sp.Name)
			}
		}
	}
}

func TestInvalidDesignRejected(t *testing.T) {
	b, p, srv, _, _ := testWorkload(t, 64, 64)
	if _, err := srv.Join(context.Background(), Query{Build: b, Probe: p, Design: "btree"}); err == nil {
		t.Fatal("bogus design accepted")
	}
}
