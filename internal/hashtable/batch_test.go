package hashtable

import (
	"math/rand"
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// batchTable is the common surface of the batch kernels used by the
// equivalence tests (build varies per table kind, probing does not).
type batchTable interface {
	Table
	LookupBatch(keys []tuple.Key, s *BatchScratch, payloads []tuple.Payload, found []bool)
	ProbeJoinBatch(keys []tuple.Key, probePayloads []tuple.Payload, s *BatchScratch, out *MatchBatch)
}

// buildBatchTables constructs every table kind over the given tuples
// using the scalar insert paths, so the batch probe kernels are
// checked against independently built tables.
func buildBatchTables(tb testing.TB, tuples []tuple.Tuple, domain int, hash hashfn.Hash) map[string]batchTable {
	tb.Helper()
	ct := NewChainedTable(max(len(tuples), 1), hash, nil)
	lt := NewLinearTable(max(len(tuples), 1), 0, hash, nil)
	rh := NewRobinHoodTable(max(len(tuples), 1), 0, hash, nil)
	at := NewArrayTable(0, domain, nil)
	st := NewSparseTable(max(len(tuples), 1), hash)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
		rh.Insert(tp)
		at.Insert(tp)
		st.Insert(tp)
	}
	cht := BuildCHT(tuples, hash)
	return map[string]batchTable{
		"chained": ct, "linear": lt, "robinhood": rh,
		"array": at, "cht": cht, "sparse": st,
	}
}

// batchKeySets returns named probe key sets over a build of n dense or
// hole-heavy keys: all hits, miss-heavy (most probes outside the built
// key set) and boundary-length batches.
func batchKeySets(n, domain int, rng *rand.Rand) map[string][]tuple.Key {
	hits := make([]tuple.Key, n)
	for i := range hits {
		hits[i] = tuple.Key(rng.Intn(domain))
	}
	missHeavy := make([]tuple.Key, n)
	for i := range missHeavy {
		// ~7 of 8 probes land outside the domain.
		missHeavy[i] = tuple.Key(rng.Intn(domain * 8))
	}
	sets := map[string][]tuple.Key{
		"hits":      hits,
		"missheavy": missHeavy,
		"empty":     {},
		"one":       hits[:min(1, n)],
	}
	for _, l := range []int{BatchSize - 1, BatchSize, BatchSize + 1} {
		if l <= n {
			sets[sizeName(l)] = missHeavy[:l]
		}
	}
	return sets
}

func sizeName(l int) string {
	switch l {
	case BatchSize - 1:
		return "batchminus1"
	case BatchSize:
		return "batchexact"
	default:
		return "batchplus1"
	}
}

// runBatched feeds keys to a batch kernel in BatchSize chunks.
func runBatched(n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += BatchSize {
		fn(lo, min(lo+BatchSize, n))
	}
}

// TestLookupBatchMatchesLookup checks LookupBatch against scalar Lookup
// for every table kind under every hash across dense, hole-heavy and
// miss-heavy key sets, including batch-boundary lengths.
func TestLookupBatchMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, build := range []struct {
		name   string
		stride int // key stride; >1 leaves holes in the domain
	}{
		{"dense", 1},
		{"holeheavy", 7},
	} {
		t.Run(build.name, func(t *testing.T) {
			const n = 1 << 12
			domain := n * build.stride
			tuples := make([]tuple.Tuple, n)
			for i := range tuples {
				tuples[i] = tuple.Tuple{Key: tuple.Key(i * build.stride), Payload: tuple.Payload(i*3 + 1)}
			}
			for _, h := range allHashes {
				tables := buildBatchTables(t, tuples, domain, h)
				for setName, keys := range batchKeySets(n, domain, rng) {
					for tblName, tbl := range tables {
						var s BatchScratch
						payloads := make([]tuple.Payload, len(keys))
						found := make([]bool, len(keys))
						runBatched(len(keys), func(lo, hi int) {
							tbl.LookupBatch(keys[lo:hi], &s, payloads[lo:hi], found[lo:hi])
						})
						for i, k := range keys {
							wantP, wantOK := tbl.Lookup(k)
							if found[i] != wantOK || payloads[i] != wantP {
								t.Fatalf("%v/%s/%s: key %d lane %d: batch = %d,%v scalar = %d,%v",
									h, tblName, setName, k, i, payloads[i], found[i], wantP, wantOK)
							}
						}
					}
				}
			}
		})
	}
}

// TestProbeJoinBatchMatchesScalarProbe checks the fused probe kernel
// against a scalar Lookup loop under every hash: same match count and same
// order-independent checksum of emitted payload pairs.
func TestProbeJoinBatchMatchesScalarProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 12
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(2*i + 5)}
	}
	for _, h := range allHashes {
		tables := buildBatchTables(t, tuples, n, h)
		for setName, keys := range batchKeySets(n, n, rng) {
			probePayloads := make([]tuple.Payload, len(keys))
			for i := range probePayloads {
				probePayloads[i] = tuple.Payload(i)
			}
			for tblName, tbl := range tables {
				var wantMatches int
				var wantSum uint64
				for i, k := range keys {
					if p, ok := tbl.Lookup(k); ok {
						wantMatches++
						wantSum += uint64(p)<<32 | uint64(probePayloads[i])
					}
				}
				var s BatchScratch
				var out MatchBatch
				var gotMatches int
				var gotSum uint64
				runBatched(len(keys), func(lo, hi int) {
					tbl.ProbeJoinBatch(keys[lo:hi], probePayloads[lo:hi], &s, &out)
					if out.N > hi-lo {
						t.Fatalf("%v/%s/%s: out.N = %d exceeds batch length %d", h, tblName, setName, out.N, hi-lo)
					}
					for i := 0; i < out.N; i++ {
						gotSum += uint64(out.Build[i])<<32 | uint64(out.Probe[i])
					}
					gotMatches += out.N
				})
				if gotMatches != wantMatches || gotSum != wantSum {
					t.Fatalf("%v/%s/%s: batch probe = %d matches sum %x, scalar = %d matches sum %x",
						h, tblName, setName, gotMatches, gotSum, wantMatches, wantSum)
				}
			}
		}
	}
}

// trackingTable is a batchTable with build-side match tracking.
type trackingTable interface {
	batchTable
	EnableMatchTracking()
	ForEachUnmatched(fn func(tuple.Key, tuple.Payload))
}

// TestMatchTrackingScalarMatchesBatch checks that scalar Lookup and
// LookupBatch mark the same build entries: for every design and key set
// it probes one tracking twin each way and compares both tables'
// ForEachUnmatched sets against the build tuples whose key was never
// probed. The "collide" build sends every key, built or probed, to 16
// home buckets, which forces chained overflow chains and CHT overflow
// entries.
func TestMatchTrackingScalarMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// collide maps key k to k%16 + (k/16)*4096: under the identity hash
	// its home is k%16 in every design of a 2^10-key build, whose hash
	// spaces are at most 4096 slots wide.
	collide := func(k tuple.Key) tuple.Key { return k%16 + k/16*4096 }
	for _, build := range []struct {
		name   string
		n      int
		stride int
		hash   hashfn.Hash
		spread func(tuple.Key) tuple.Key
	}{
		{"dense", 1 << 12, 1, hashfn.Murmur, nil},
		{"holeheavy", 1 << 12, 7, hashfn.Murmur, nil},
		{"collide", 1 << 10, 1, hashfn.Identity, collide},
	} {
		t.Run(build.name, func(t *testing.T) {
			domain := build.n * build.stride
			spread := func(k tuple.Key) tuple.Key { return k }
			arrayDomain := domain
			if build.spread != nil {
				spread = build.spread
				arrayDomain = int(spread(tuple.Key(domain-1))) + 1
			}
			tuples := make([]tuple.Tuple, build.n)
			buildKeys := make([]tuple.Key, build.n)
			for i := range tuples {
				buildKeys[i] = spread(tuple.Key(i * build.stride))
				tuples[i] = tuple.Tuple{Key: buildKeys[i], Payload: tuple.Payload(i*3 + 1)}
			}
			scalarTwins := buildBatchTables(t, tuples, arrayDomain, build.hash)
			batchTwins := buildBatchTables(t, tuples, arrayDomain, build.hash)
			if build.spread != nil {
				for _, tbl := range scalarTwins {
					checkHomes(t, tbl, buildKeys, 16)
				}
				if ct := scalarTwins["chained"].(*ChainedTable); len(ct.arena) == 0 {
					t.Fatal("collide build made no chained overflow chains")
				}
				if cht := scalarTwins["cht"].(*CHT); cht.OverflowLen() == 0 {
					t.Fatal("collide build made no CHT overflow entries")
				}
			}
			for setName, keys := range batchKeySets(build.n, domain, rng) {
				keys = append([]tuple.Key(nil), keys...)
				for i, k := range keys {
					keys[i] = spread(k)
				}
				probed := make(map[tuple.Key]bool, len(keys))
				for _, k := range keys {
					probed[k] = true
				}
				want := map[tuple.Tuple]bool{}
				for _, tp := range tuples {
					if !probed[tp.Key] {
						want[tp] = true
					}
				}
				for tblName := range scalarTwins {
					st := scalarTwins[tblName].(trackingTable)
					bt := batchTwins[tblName].(trackingTable)
					st.EnableMatchTracking()
					bt.EnableMatchTracking()
					for _, k := range keys {
						st.Lookup(k)
					}
					var s BatchScratch
					payloads := make([]tuple.Payload, BatchSize)
					found := make([]bool, BatchSize)
					runBatched(len(keys), func(lo, hi int) {
						bt.LookupBatch(keys[lo:hi], &s, payloads, found)
					})
					for via, tbl := range map[string]trackingTable{"Lookup": st, "LookupBatch": bt} {
						got := map[tuple.Tuple]bool{}
						tbl.ForEachUnmatched(func(k tuple.Key, p tuple.Payload) {
							got[tuple.Tuple{Key: k, Payload: p}] = true
						})
						if len(got) != len(want) {
							t.Fatalf("%s/%s via %s: %d unmatched entries, want %d", tblName, setName, via, len(got), len(want))
						}
						for tp := range want {
							if !got[tp] {
								t.Fatalf("%s/%s via %s: entry %v missing from ForEachUnmatched", tblName, setName, via, tp)
							}
						}
					}
				}
			}
		})
	}
}

// TestBuildBatchMatchesInsert builds one table per kind under every
// hash through the batch kernels and compares every lookup against a
// scalar-built twin.
func TestBuildBatchMatchesInsert(t *testing.T) {
	const n = 5000 // not a multiple of BatchSize
	tuples := make([]tuple.Tuple, n)
	keys := make([]tuple.Key, n)
	payloads := make([]tuple.Payload, n)
	for i := range tuples {
		k := tuple.Key(i * 3) // holes between keys
		tuples[i] = tuple.Tuple{Key: k, Payload: tuple.Payload(i + 7)}
		keys[i] = k
		payloads[i] = tuple.Payload(i + 7)
	}
	domain := n * 3
	for _, hash := range allHashes {
		checkBuildBatch(t, tuples, keys, payloads, domain, hash)
	}
}

func checkBuildBatch(t *testing.T, tuples []tuple.Tuple, keys []tuple.Key, payloads []tuple.Payload, domain int, hash hashfn.Hash) {
	t.Helper()
	n := len(tuples)
	var s BatchScratch
	ct := NewChainedTable(n, hash, nil)
	lt := NewLinearTable(n, 0, hash, nil)
	rh := NewRobinHoodTable(n, 0, hash, nil)
	at := NewArrayTable(0, domain, nil)
	st := NewSparseTable(n, hash)
	runBatched(n, func(lo, hi int) {
		ct.BuildBatch(keys[lo:hi], payloads[lo:hi], &s)
		lt.BuildBatch(keys[lo:hi], payloads[lo:hi], &s)
		rh.BuildBatch(keys[lo:hi], payloads[lo:hi], &s)
		at.BuildBatch(keys[lo:hi], payloads[lo:hi], &s)
		st.BuildBatch(keys[lo:hi], payloads[lo:hi], &s)
	})
	got := map[string]batchTable{"chained": ct, "linear": lt, "robinhood": rh, "array": at, "sparse": st}
	want := buildBatchTables(t, tuples, domain, hash)
	for name, g := range got {
		w := want[name]
		if g.Len() != w.Len() {
			t.Fatalf("%v/%s: batch build len = %d, scalar = %d", hash, name, g.Len(), w.Len())
		}
		for k := tuple.Key(0); int(k) < domain; k++ {
			gp, gok := g.Lookup(k)
			wp, wok := w.Lookup(k)
			if gp != wp || gok != wok {
				t.Fatalf("%v/%s: Lookup(%d) batch-built = %d,%v scalar-built = %d,%v", hash, name, k, gp, gok, wp, wok)
			}
		}
	}
}

// TestBuildBatchConcurrentMatchesInsert exercises the latched/CAS batch
// build kernels single-threaded (the concurrency protocol itself is
// covered by the scalar concurrent tests and the race detector runs).
func TestBuildBatchConcurrentMatchesInsert(t *testing.T) {
	const n = 3000
	keys := make([]tuple.Key, n)
	payloads := make([]tuple.Payload, n)
	for i := range keys {
		keys[i] = tuple.Key(i)
		payloads[i] = tuple.Payload(i * 5)
	}
	var s BatchScratch
	ct := NewChainedTable(n, hashfn.Multiplicative, nil)
	ct.PrepareConcurrent()
	lt := NewLinearTable(n, 0, hashfn.Multiplicative, nil)
	at := NewArrayTable(0, n, nil)
	runBatched(n, func(lo, hi int) {
		ct.BuildBatchConcurrent(keys[lo:hi], payloads[lo:hi], &s)
		lt.BuildBatchConcurrent(keys[lo:hi], payloads[lo:hi], &s)
		at.BuildBatchConcurrent(keys[lo:hi], payloads[lo:hi], &s)
	})
	ct.FinishConcurrentBuild()
	at.FinishConcurrentBuild()
	for name, tbl := range map[string]Table{"chained": ct, "linear": lt, "array": at} {
		if tbl.Len() != n {
			t.Fatalf("%s: len = %d, want %d", name, tbl.Len(), n)
		}
		for i := 0; i < n; i++ {
			p, ok := tbl.Lookup(tuple.Key(i))
			if !ok || p != tuple.Payload(i*5) {
				t.Fatalf("%s: Lookup(%d) = %d,%v", name, i, p, ok)
			}
		}
	}
}

// TestChainedResetRebuildAllocationFree verifies the Reset contract:
// after Reset, rebuilding the same data reuses the head buckets and the
// full overflow arena without a single allocation, and no stale chain
// from the previous build is reachable.
func TestChainedResetRebuildAllocationFree(t *testing.T) {
	const n = 4096
	// All keys collide into few buckets so the overflow arena is used
	// heavily: table sized for 64 tuples, fed 4096.
	ct := NewChainedTable(64, hashfn.Multiplicative, nil)
	ct.ReserveOverflow(n) // ample; exact need is below n
	tuples := denseTuples(n)
	build := func() {
		for _, tp := range tuples {
			ct.Insert(tp)
		}
	}
	build()
	arenaUsed := len(ct.arena)
	if arenaUsed == 0 {
		t.Fatal("test is vacuous: no overflow buckets were used")
	}
	allocs := testing.AllocsPerRun(10, func() {
		ct.Reset()
		build()
	})
	if allocs != 0 {
		t.Fatalf("Reset+rebuild allocated %v times per run, want 0", allocs)
	}
	if len(ct.arena) != arenaUsed {
		t.Fatalf("rebuild used %d overflow buckets, first build used %d", len(ct.arena), arenaUsed)
	}
	if ct.Len() != n {
		t.Fatalf("len after rebuild = %d, want %d", ct.Len(), n)
	}
	for _, tp := range tuples {
		if p, ok := ct.Lookup(tp.Key); !ok || p != tp.Payload {
			t.Fatalf("Lookup(%d) after rebuild = %d,%v, want %d,true", tp.Key, p, ok, tp.Payload)
		}
	}
	// After a Reset every head bucket must be fully detached.
	ct.Reset()
	if ct.Len() != 0 {
		t.Fatalf("len after Reset = %d, want 0", ct.Len())
	}
	for i := range ct.buckets {
		if ct.buckets[i].meta != 0 || ct.buckets[i].next != 0 {
			t.Fatalf("bucket %d not cleared by Reset", i)
		}
	}
	for i := range ct.arena[:cap(ct.arena)] {
		b := &ct.arena[:cap(ct.arena)][i]
		if b.meta != 0 || b.next != 0 {
			t.Fatalf("arena slot %d keeps stale state after Reset", i)
		}
	}
}
