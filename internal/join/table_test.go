package join

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/tuple"
)

func tableTestWorkload(t *testing.T) *datagen.Workload {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{
		BuildSize: 4096,
		ProbeSize: 16384,
		Zipf:      0.5, // duplicate probe keys exercise multi-match probes
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildProbeMatchesReference checks the split build/probe halves
// against the reference oracle for all six designs, batched and scalar:
// a cache hit must be invisible in Matches and Checksum.
func TestBuildProbeMatchesReference(t *testing.T) {
	w := tableTestWorkload(t)
	ref, err := (Reference{}).Run(w.Build, w.Probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, design := range TableDesigns() {
		for _, scalar := range []bool{false, true} {
			name := design.String()
			if scalar {
				name += "/scalar"
			}
			t.Run(name, func(t *testing.T) {
				opts := &Options{Threads: 4, Domain: w.Domain, ScalarKernels: scalar}
				bt, err := BuildTable(context.Background(), w.Build, design, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer bt.Release()
				if bt.Design() != design || bt.BuildLen() != len(w.Build) {
					t.Fatalf("built table metadata = %v/%d", bt.Design(), bt.BuildLen())
				}
				if bt.SizeBytes() <= 0 {
					t.Fatalf("SizeBytes = %d", bt.SizeBytes())
				}
				res, err := ProbeTable(context.Background(), bt, w.Probe, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != ref.Matches {
					t.Fatalf("matches = %d, reference %d", res.Matches, ref.Matches)
				}
				if res.Checksum != ref.Checksum {
					t.Fatalf("checksum mismatch at equal count %d", res.Matches)
				}
				if want := "CACHED(" + design.String() + ")"; res.Algorithm != want {
					t.Fatalf("algorithm = %q, want %q", res.Algorithm, want)
				}
				if res.BuildOrPartition != 0 || res.InputTuples != int64(len(w.Probe)) {
					t.Fatalf("cached-probe result should carry no build phase: %+v", res)
				}
			})
		}
	}
}

// TestProbeTableScalarMatchesBatch pins the first-match contract of
// the cached path: on a build side with a duplicate key (outside the
// unique-key contract, so both flavors must at least agree), the scalar
// probe returns exactly what the batch kernels return — one match per
// found probe key — for every design that accepts duplicates.
func TestProbeTableScalarMatchesBatch(t *testing.T) {
	build := tuple.Relation{{Key: 1, Payload: 10}, {Key: 1, Payload: 11}, {Key: 2, Payload: 20}}
	probe := tuple.Relation{{Key: 1, Payload: 100}, {Key: 2, Payload: 200}}
	for _, design := range TableDesigns() {
		if design == DesignArray {
			continue // one slot per key: a duplicate overwrites
		}
		t.Run(design.String(), func(t *testing.T) {
			bt, err := BuildTable(context.Background(), build, design, &Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Release()
			batch, err := ProbeTable(context.Background(), bt, probe, &Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := ProbeTable(context.Background(), bt, probe, &Options{Threads: 1, ScalarKernels: true})
			if err != nil {
				t.Fatal(err)
			}
			if batch.Matches != 2 || scalar.Matches != batch.Matches {
				t.Fatalf("matches: batch %d, scalar %d; want 2 each", batch.Matches, scalar.Matches)
			}
			if scalar.Checksum != batch.Checksum {
				t.Fatalf("scalar and batch probes returned different build entries")
			}
		})
	}
}

// TestBuiltTableArenaBalance pins the storage contract: after Release,
// every byte a build drew from its arena is back (the leak balance the
// server's region assertions build on).
func TestBuiltTableArenaBalance(t *testing.T) {
	w := tableTestWorkload(t)
	for _, design := range TableDesigns() {
		t.Run(design.String(), func(t *testing.T) {
			a := exec.NewArena()
			opts := &Options{Threads: 2, Domain: w.Domain, Arena: a}
			bt, err := BuildTable(context.Background(), w.Build, design, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ProbeTable(context.Background(), bt, w.Probe, opts); err != nil {
				t.Fatal(err)
			}
			bt.Release()
			if out := a.Outstanding(); out != 0 {
				t.Fatalf("arena outstanding after Release = %d bytes", out)
			}
		})
	}
}

func TestBuiltTableReleaseTwicePanics(t *testing.T) {
	w := tableTestWorkload(t)
	bt, err := BuildTable(context.Background(), w.Build, DesignLinear, nil)
	if err != nil {
		t.Fatal(err)
	}
	bt.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	bt.Release()
}

func TestProbeAfterReleaseErrors(t *testing.T) {
	w := tableTestWorkload(t)
	bt, err := BuildTable(context.Background(), w.Build, DesignChained, nil)
	if err != nil {
		t.Fatal(err)
	}
	bt.Release()
	if _, err := ProbeTable(context.Background(), bt, w.Probe, nil); err == nil {
		t.Fatal("probe against a released table succeeded")
	}
}

func TestBuildTableRejectsUnsupportedContracts(t *testing.T) {
	w := tableTestWorkload(t)
	if _, err := BuildTable(context.Background(), w.Build, DesignLinear, &Options{NullableKeys: true}); err == nil {
		t.Fatal("nullable keys accepted")
	}
	if _, err := BuildTable(context.Background(), w.Build, DesignLinear, &Options{Kind: LeftOuter}); err == nil {
		t.Fatal("outer kind accepted")
	}
	if _, err := ProbeTable(context.Background(), &BuiltTable{}, w.Probe, &Options{Kind: LeftSemi}); err == nil {
		t.Fatal("semi kind accepted")
	}
	if _, err := BuildTable(context.Background(), w.Build, TableDesign(99), nil); err == nil {
		t.Fatal("unknown design accepted")
	}
}

// TestBuildTableCancelledLeaksNothing cancels before the build starts
// and checks the error path returned all arena storage.
func TestBuildTableCancelledLeaksNothing(t *testing.T) {
	w := tableTestWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, design := range TableDesigns() {
		a := exec.NewArena()
		opts := &Options{Threads: 2, Domain: w.Domain, Arena: a}
		if _, err := BuildTable(ctx, w.Build, design, opts); err == nil {
			t.Fatalf("%v: cancelled build succeeded", design)
		}
		if out := a.Outstanding(); out != 0 {
			t.Fatalf("%v: arena outstanding after cancelled build = %d bytes", design, out)
		}
	}
}

// TestConcurrentProbesShareOneTable runs many ProbeTable calls against
// one BuiltTable at once — the cache-hit shape the server produces —
// and checks every result is identical (run under -race in CI).
func TestConcurrentProbesShareOneTable(t *testing.T) {
	w := tableTestWorkload(t)
	ref, err := (Reference{}).Run(w.Build, w.Probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BuildTable(context.Background(), w.Build, DesignChained, &Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Release()
	const probes = 8
	var wg sync.WaitGroup
	errs := make([]error, probes)
	for i := 0; i < probes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := ProbeTable(context.Background(), bt, w.Probe, &Options{Threads: 2})
			if err != nil {
				errs[i] = err
				return
			}
			if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
				errs[i] = fmt.Errorf("probe %d: matches=%d checksum=%d, want %d/%d",
					i, res.Matches, res.Checksum, ref.Matches, ref.Checksum)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseTableDesignRoundTrips(t *testing.T) {
	for _, d := range TableDesigns() {
		got, err := ParseTableDesign(d.String())
		if err != nil || got != d {
			t.Fatalf("round trip %v: got %v, %v", d, got, err)
		}
	}
	if _, err := ParseTableDesign("btree"); err == nil || !strings.Contains(err.Error(), "btree") {
		t.Fatalf("unknown design error = %v", err)
	}
}
