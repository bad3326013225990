package join

import (
	"context"
	"encoding/json"
	"sort"
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/numa"
	"mmjoin/internal/tuple"
)

// runAll joins the workload with every registered algorithm and checks
// match count and pair checksum against the reference oracle.
func runAll(t *testing.T, w *datagen.Workload, opts Options) {
	t.Helper()
	ref, err := (Reference{}).Run(w.Build, w.Probe, &opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Algorithms() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			o := opts
			o.Domain = w.Domain
			res, err := spec.New().Run(w.Build, w.Probe, &o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != ref.Matches {
				t.Fatalf("%s: matches = %d, reference %d", spec.Name, res.Matches, ref.Matches)
			}
			if res.Checksum != ref.Checksum {
				t.Fatalf("%s: checksum mismatch (same count %d)", spec.Name, res.Matches)
			}
			if res.Total <= 0 || res.BuildOrPartition < 0 || res.ProbeOrJoin < 0 {
				t.Fatalf("%s: implausible timings %+v", spec.Name, res)
			}
			if res.InputTuples != int64(len(w.Build)+len(w.Probe)) {
				t.Fatalf("%s: input tuples = %d", spec.Name, res.InputTuples)
			}
		})
	}
}

func TestRegistryHasThirteenAlgorithms(t *testing.T) {
	specs := Algorithms()
	if len(specs) != 13 {
		t.Fatalf("registry has %d algorithms, want 13", len(specs))
	}
	want := []string{"PRB", "NOP", "CHTJ", "MWAY", "NOPA", "PRO", "PRL", "PRA",
		"CPRL", "CPRA", "PROiS", "PRLiS", "PRAiS"}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Fatalf("spec %d = %s, want %s (Table 2 order)", i, s.Name, want[i])
		}
		if s.Description == "" || s.Paper == "" {
			t.Fatalf("spec %s lacks metadata", s.Name)
		}
	}
}

func TestRegistryClassesMatchTable1(t *testing.T) {
	classes := map[string]Class{
		"PRB": Partition, "PRO": Partition, "PRL": Partition, "PRA": Partition,
		"CPRL": Partition, "CPRA": Partition, "PROiS": Partition,
		"PRLiS": Partition, "PRAiS": Partition,
		"NOP": NoPartition, "NOPA": NoPartition, "CHTJ": NoPartition,
		"MWAY": SortMerge,
	}
	for _, s := range Algorithms() {
		if got := s.New().Class(); got != classes[s.Name] {
			t.Fatalf("%s class = %s, want %s", s.Name, got, classes[s.Name])
		}
	}
}

// TestDescriptionIsSpecDescription checks that every algorithm in both
// registries describes itself with the text it registered.
func TestDescriptionIsSpecDescription(t *testing.T) {
	for _, spec := range append(Algorithms(), AblationAlgorithms()...) {
		a, err := NewAny(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Description(); got != spec.Description {
			t.Errorf("%s: Description() = %q, want the registered %q", spec.Name, got, spec.Description)
		}
	}
}

func TestNewUnknownAlgorithm(t *testing.T) {
	if _, err := New("NOPE"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestAllJoinsUniformWorkload(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 12, ProbeSize: 1 << 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 4})
}

func TestAllJoinsSingleThread(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1000, ProbeSize: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 1})
}

func TestAllJoinsManyThreads(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 5000, ProbeSize: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 16})
}

func TestAllJoinsSkewedProbe(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 40960, Zipf: 0.99, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 8})
}

func TestAllJoinsHolesInDomain(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 2048, ProbeSize: 8192, HoleFactor: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 4})
}

func TestAllJoinsHolesAdaptiveBits(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 2048, ProbeSize: 8192, HoleFactor: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 4, AdaptBitsToDomain: true})
}

func TestAllJoinsEqualSizes(t *testing.T) {
	// The |R| = |S| workload of Figure 10(b).
	w, err := datagen.Generate(datagen.Config{BuildSize: 8192, ProbeSize: 8192, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 4})
}

func TestAllJoinsEmptyProbe(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 512, ProbeSize: 0, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 4})
}

func TestAllJoinsTinyInputs(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1, ProbeSize: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, Options{Threads: 4})
}

func TestAllJoinsExplicitBits(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 8192, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []uint{1, 5, 9} {
		runAll(t, w, Options{Threads: 4, RadixBits: bits})
	}
}

func TestAllJoinsScrambledHash(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 3000, ProbeSize: 9000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (Reference{}).Run(w.Build, w.Probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The array joins ignore the hash; the rest must survive every
	// scrambler, also in the right outer join, whose build padding reads
	// the tables' match marks, and as a cached table of every design.
	for _, h := range []hashfn.Hash{hashfn.Multiplicative, hashfn.Murmur, hashfn.CRC} {
		for _, kind := range []Kind{Inner, RightOuter} {
			runAll(t, w, Options{Threads: 4, Hash: h, Kind: kind})
		}
		for _, design := range TableDesigns() {
			opts := &Options{Threads: 4, Domain: w.Domain, Hash: h}
			bt, err := BuildTable(context.Background(), w.Build, design, opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", h, design, err)
			}
			res, err := ProbeTable(context.Background(), bt, w.Probe, opts)
			bt.Release()
			if err != nil {
				t.Fatalf("%v/%v: %v", h, design, err)
			}
			if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
				t.Errorf("%v/%v: cached probe = %d matches sum %x, reference %d sum %x",
					h, design, res.Matches, res.Checksum, ref.Matches, ref.Checksum)
			}
		}
	}
}

func TestMWAYRejectsNonPowerOfTwoThreads(t *testing.T) {
	w, _ := datagen.Generate(datagen.Config{BuildSize: 64, ProbeSize: 64, Seed: 12})
	_, err := MustNew("MWAY").Run(w.Build, w.Probe, &Options{Threads: 3})
	if err == nil {
		t.Fatal("MWAY accepted 3 threads")
	}
}

func TestMaterializedPairsMatchReference(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 500, ProbeSize: 2000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Threads: 4, Materialize: true, Domain: w.Domain}
	ref, _ := (Reference{}).Run(w.Build, w.Probe, &opts)
	sortPairs := func(ps []tuple.Pair) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].BuildPayload != ps[j].BuildPayload {
				return ps[i].BuildPayload < ps[j].BuildPayload
			}
			return ps[i].ProbePayload < ps[j].ProbePayload
		})
	}
	sortPairs(ref.Pairs)
	for _, name := range []string{"NOP", "NOPA", "CHTJ", "MWAY", "PRO", "CPRL", "PRB", "PRAiS"} {
		res, err := MustNew(name).Run(w.Build, w.Probe, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(ref.Pairs) {
			t.Fatalf("%s materialized %d pairs, want %d", name, len(res.Pairs), len(ref.Pairs))
		}
		sortPairs(res.Pairs)
		for i := range ref.Pairs {
			if res.Pairs[i] != ref.Pairs[i] {
				t.Fatalf("%s pair %d = %v, want %v", name, i, res.Pairs[i], ref.Pairs[i])
			}
		}
	}
}

func TestDeterministicChecksumAcrossThreadCounts(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 2000, ProbeSize: 10000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		var checksums []uint64
		for _, threads := range []int{1, 2, 8} {
			res, err := MustNew(name).Run(w.Build, w.Probe, &Options{Threads: threads, Domain: w.Domain})
			if err != nil {
				t.Fatal(err)
			}
			checksums = append(checksums, res.Checksum)
		}
		if checksums[0] != checksums[1] || checksums[1] != checksums[2] {
			t.Fatalf("%s: checksum varies with thread count: %v", name, checksums)
		}
	}
}

func TestThroughputMetric(t *testing.T) {
	r := &Result{InputTuples: 10_000_000, Total: 1e9} // 1 second
	if got := r.ThroughputMTuplesPerSec(); got < 9.99 || got > 10.01 {
		t.Fatalf("throughput = %g, want 10", got)
	}
	zero := &Result{}
	if zero.ThroughputMTuplesPerSec() != 0 {
		t.Fatal("zero-duration throughput should be 0")
	}
}

func TestTrafficAccountingShapes(t *testing.T) {
	// The NUMA model must reproduce the paper's Figure 4 contrast:
	// global radix partitioning writes mostly remote, chunked
	// partitioning writes all-local.
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 14, ProbeSize: 1 << 16, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.PaperTopology()

	proTraffic := numa.NewTraffic(topo)
	_, err = MustNew("PRO").Run(w.Build, w.Probe, &Options{Threads: 8, Traffic: proTraffic})
	if err != nil {
		t.Fatal(err)
	}
	cprlTraffic := numa.NewTraffic(topo)
	_, err = MustNew("CPRL").Run(w.Build, w.Probe, &Options{Threads: 8, Traffic: cprlTraffic})
	if err != nil {
		t.Fatal(err)
	}
	if share := proTraffic.RemoteWriteShare(); share < 0.5 {
		t.Fatalf("PRO remote write share = %.2f, want ~0.75", share)
	}
	if share := cprlTraffic.RemoteWriteShare(); share > 0.05 {
		t.Fatalf("CPRL remote write share = %.2f, want ~0", share)
	}
	// CPRL pays with remote reads in the join phase: its total remote
	// read volume must exceed... its own remote write volume by far.
	if cprlTraffic.Remote() == 0 {
		t.Fatal("CPRL model shows no remote traffic at all")
	}
}

func TestTrafficNOPInterleavedTable(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 12, ProbeSize: 1 << 14, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.PaperTopology()
	tr := numa.NewTraffic(topo)
	_, err = MustNew("NOP").Run(w.Build, w.Probe, &Options{Threads: 8, Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Random accesses into the interleaved table: roughly 3/4 of table
	// traffic is remote, so overall remote share must be substantial.
	if tr.Remote() == 0 || tr.Local() == 0 {
		t.Fatalf("NOP traffic degenerate: local=%d remote=%d", tr.Local(), tr.Remote())
	}
}

func TestResultBitsReported(t *testing.T) {
	w, _ := datagen.Generate(datagen.Config{BuildSize: 1 << 12, ProbeSize: 1 << 12, Seed: 17})
	res, err := MustNew("PRO").Run(w.Build, w.Probe, &Options{Threads: 2, RadixBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != 6 {
		t.Fatalf("bits = %d, want 6", res.Bits)
	}
	res, err = MustNew("PRB").Run(w.Build, w.Probe, &Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != prbTotalBits {
		t.Fatalf("PRB default bits = %d, want %d", res.Bits, prbTotalBits)
	}
}

func TestAblationNOPCMatchesReference(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{BuildSize: 3000, ProbeSize: 12000, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := (Reference{}).Run(w.Build, w.Probe, &Options{})
	algo, err := NewAny("NOPC")
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 8} {
		res, err := algo.Run(w.Build, w.Probe, &Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
			t.Fatalf("NOPC at %d threads: %d matches, want %d", threads, res.Matches, ref.Matches)
		}
	}
	if len(AblationAlgorithms()) == 0 {
		t.Fatal("ablation registry empty")
	}
	if len(Algorithms()) != 13 {
		t.Fatal("ablation algorithm leaked into Table 2")
	}
	if _, err := NewAny("PRO"); err != nil {
		t.Fatal("NewAny must resolve Table 2 names too")
	}
}

func TestMaxTaskShareReflectsSkew(t *testing.T) {
	uniform, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 1 << 16, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := datagen.Generate(datagen.Config{BuildSize: 4096, ProbeSize: 1 << 16, Zipf: 0.99, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Threads: 4, RadixBits: 6}
	u, err := MustNew("CPRL").Run(uniform.Build, uniform.Probe, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MustNew("CPRL").Run(skewed.Build, skewed.Probe, opts)
	if err != nil {
		t.Fatal(err)
	}
	if u.MaxTaskShare < 1 || u.MaxTaskShare > 2 {
		t.Fatalf("uniform MaxTaskShare = %.2f, want ~1", u.MaxTaskShare)
	}
	if s.MaxTaskShare < 3*u.MaxTaskShare {
		t.Fatalf("skewed MaxTaskShare %.2f not far above uniform %.2f", s.MaxTaskShare, u.MaxTaskShare)
	}
	// NOP has no partitioned tasks.
	n, err := MustNew("NOP").Run(skewed.Build, skewed.Probe, &Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n.MaxTaskShare != 0 {
		t.Fatalf("NOP MaxTaskShare = %.2f, want 0", n.MaxTaskShare)
	}
}

func TestTrafficAccountingAllAlgorithms(t *testing.T) {
	// Every algorithm must feed the placement model when asked.
	w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 12, ProbeSize: 1 << 14, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.PaperTopology()
	for _, name := range Names() {
		tr := numa.NewTraffic(topo)
		opts := &Options{Threads: 8, Domain: w.Domain, Traffic: tr}
		if name == "MWAY" {
			opts.Threads = 8
		}
		if _, err := MustNew(name).Run(w.Build, w.Probe, opts); err != nil {
			t.Fatal(err)
		}
		if tr.Local()+tr.Remote() == 0 {
			t.Fatalf("%s produced no modeled traffic", name)
		}
	}
}

func TestResultMarshalsToJSON(t *testing.T) {
	w, _ := datagen.Generate(datagen.Config{BuildSize: 128, ProbeSize: 512, Seed: 62})
	res, err := MustNew("NOPA").Run(w.Build, w.Probe, &Options{Threads: 2, Domain: w.Domain})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Matches != res.Matches || back.Algorithm != "NOPA" {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}
