package hashtable

import (
	"sync"
	"testing"
	"testing/quick"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-5: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// buildTable constructs each table kind over the given tuples.
func buildTables(tuples []tuple.Tuple, domain int, hash hashfn.Hash) map[string]Table {
	ct := NewChainedTable(len(tuples), hash, nil)
	lt := NewLinearTable(len(tuples), 0, hash, nil)
	at := NewArrayTable(0, domain, nil)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
		at.Insert(tp)
	}
	cht := BuildCHT(tuples, hash)
	return map[string]Table{"chained": ct, "linear": lt, "array": at, "cht": cht}
}

// allHashes lists every hash, so a hash whose kernels disagree with
// its scalar form fails the tests that iterate it.
var allHashes = []hashfn.Hash{hashfn.Identity, hashfn.Multiplicative, hashfn.Murmur, hashfn.CRC}

// collidingKeys returns n keys that share `homes` home slots of a table
// whose hash reduces modulo `slots` under the identity hash: key i is
// i%homes + (i/homes)*slots, so its home is i%homes.
func collidingKeys(n, homes, slots int) []tuple.Key {
	keys := make([]tuple.Key, n)
	for i := range keys {
		keys[i] = tuple.Key(i%homes + i/homes*slots)
	}
	return keys
}

// homeOf returns key k's home slot in tbl through the table's own hash
// and mask; ok is false for the array table, which does not hash.
func homeOf(tbl Table, k tuple.Key) (home uint64, ok bool) {
	switch t := tbl.(type) {
	case *ChainedTable:
		return t.hash.Scalar(k) & t.mask, true
	case *LinearTable:
		return t.hash.Scalar(k) & t.mask, true
	case *RobinHoodTable:
		return t.hash.Scalar(k) & t.mask, true
	case *SparseTable:
		return t.bucketOf(k), true
	case *CHT:
		return t.bucketOf(k), true
	}
	return 0, false
}

// checkHomes asserts that keys fall into exactly `want` distinct home
// slots of tbl, so a collision test cannot silently stop colliding.
func checkHomes(t testing.TB, tbl Table, keys []tuple.Key, want int) {
	t.Helper()
	homes := map[uint64]bool{}
	for _, k := range keys {
		h, ok := homeOf(tbl, k)
		if !ok {
			return
		}
		homes[h] = true
	}
	if len(homes) != want {
		t.Fatalf("%T: %d keys fall into %d home slots, want %d", tbl, len(keys), len(homes), want)
	}
}

func denseTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i * 3)}
	}
	return ts
}

func TestAllTablesLookupDense(t *testing.T) {
	const n = 4096
	tuples := denseTuples(n)
	for name, tbl := range buildTables(tuples, n, hashfn.Identity) {
		if tbl.Len() != n {
			t.Fatalf("%s: len = %d, want %d", name, tbl.Len(), n)
		}
		for i := 0; i < n; i++ {
			p, ok := tbl.Lookup(tuple.Key(i))
			if !ok || p != tuple.Payload(i*3) {
				t.Fatalf("%s: Lookup(%d) = %d,%v", name, i, p, ok)
			}
		}
	}
}

func TestAllTablesMissDense(t *testing.T) {
	const n = 1024
	tuples := denseTuples(n)
	for name, tbl := range buildTables(tuples, 2*n, hashfn.Identity) {
		for k := n; k < 2*n; k++ {
			if _, ok := tbl.Lookup(tuple.Key(k)); ok {
				t.Fatalf("%s: phantom hit for %d", name, k)
			}
		}
	}
}

func TestAllTablesScrambledHash(t *testing.T) {
	// Murmur forces collisions in the masked bits, exercising chains,
	// probe sequences and CHT displacement.
	const n = 2000
	tuples := denseTuples(n)
	ct := NewChainedTable(n, hashfn.Murmur, nil)
	lt := NewLinearTable(n, 0, hashfn.Murmur, nil)
	for _, tp := range tuples {
		ct.Insert(tp)
		lt.Insert(tp)
	}
	cht := BuildCHT(tuples, hashfn.Murmur)
	for name, tbl := range map[string]Table{"chained": ct, "linear": lt, "cht": cht} {
		for i := 0; i < n; i++ {
			p, ok := tbl.Lookup(tuple.Key(i))
			if !ok || p != tuple.Payload(i*3) {
				t.Fatalf("%s: Lookup(%d) = %d,%v", name, i, p, ok)
			}
		}
		if _, ok := tbl.Lookup(tuple.Key(n + 5)); ok {
			t.Fatalf("%s: phantom hit", name)
		}
	}
}

func TestChainedDuplicateKeys(t *testing.T) {
	ct := NewChainedTable(16, hashfn.Identity, nil)
	for i := 0; i < 5; i++ {
		ct.Insert(tuple.Tuple{Key: 7, Payload: tuple.Payload(i)})
	}
	if ct.Len() != 5 {
		t.Fatalf("Len = %d after 5 duplicate inserts", ct.Len())
	}
	if p, ok := ct.Lookup(7); !ok || p >= 5 {
		t.Fatalf("Lookup(7) = %d,%v, want one of the duplicates", p, ok)
	}
}

func TestLinearDuplicateKeys(t *testing.T) {
	lt := NewLinearTable(16, 0, hashfn.Identity, nil)
	for i := 0; i < 5; i++ {
		lt.Insert(tuple.Tuple{Key: 3, Payload: tuple.Payload(i)})
	}
	if lt.Len() != 5 {
		t.Fatalf("Len = %d after 5 duplicate inserts", lt.Len())
	}
	if p, ok := lt.Lookup(3); !ok || p >= 5 {
		t.Fatalf("Lookup(3) = %d,%v, want one of the duplicates", p, ok)
	}
}

func TestChainedOverflowChains(t *testing.T) {
	// Force every key into the same bucket.
	ct := NewChainedTable(4, hashfn.Identity, nil)
	const n = 100
	keys := collidingKeys(n, 1, len(ct.buckets))
	checkHomes(t, ct, keys, 1)
	for i, k := range keys {
		ct.Insert(tuple.Tuple{Key: k, Payload: tuple.Payload(i)})
	}
	if ct.Len() != n {
		t.Fatalf("len = %d", ct.Len())
	}
	for i, k := range keys {
		if p, ok := ct.Lookup(k); !ok || p != tuple.Payload(i) {
			t.Fatalf("Lookup(%d) failed after chaining", k)
		}
	}
}

func TestChainedReset(t *testing.T) {
	ct := NewChainedTable(8, hashfn.Identity, nil)
	for i := 0; i < 32; i++ {
		ct.Insert(tuple.Tuple{Key: tuple.Key(i), Payload: 1})
	}
	ct.Reset()
	if ct.Len() != 0 {
		t.Fatalf("len after reset = %d", ct.Len())
	}
	if _, ok := ct.Lookup(3); ok {
		t.Fatal("stale entry after reset")
	}
	ct.Insert(tuple.Tuple{Key: 5, Payload: 9})
	if p, ok := ct.Lookup(5); !ok || p != 9 {
		t.Fatal("insert after reset failed")
	}
}

func TestLinearReset(t *testing.T) {
	lt := NewLinearTable(8, 0, hashfn.Identity, nil)
	lt.Insert(tuple.Tuple{Key: 1, Payload: 2})
	lt.Reset()
	if lt.Len() != 0 {
		t.Fatal("len after reset")
	}
	if _, ok := lt.Lookup(1); ok {
		t.Fatal("stale entry after reset")
	}
}

func TestArrayReset(t *testing.T) {
	at := NewArrayTable(0, 64, nil)
	at.Insert(tuple.Tuple{Key: 10, Payload: 3})
	at.Reset()
	if _, ok := at.Lookup(10); ok {
		t.Fatal("stale entry after reset")
	}
}

func TestLinearConcurrentBuild(t *testing.T) {
	const n = 1 << 14
	const workers = 8
	lt := NewLinearTable(n, 0, hashfn.Identity, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				lt.InsertConcurrent(tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i + 1)})
			}
		}(w)
	}
	wg.Wait()
	if lt.Len() != n {
		t.Fatalf("len = %d, want %d", lt.Len(), n)
	}
	for i := 0; i < n; i++ {
		p, ok := lt.Lookup(tuple.Key(i))
		if !ok || p != tuple.Payload(i+1) {
			t.Fatalf("Lookup(%d) = %d,%v after concurrent build", i, p, ok)
		}
	}
}

func TestLinearConcurrentBuildCollisions(t *testing.T) {
	// All workers fight over a tiny probe window: every key has one of
	// four homes, maximizing CAS contention.
	lt := NewLinearTable(256, 0.5, hashfn.Identity, nil)
	keys := collidingKeys(256, 4, lt.Slots())
	checkHomes(t, lt, keys, 4)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, k := range keys[w*32 : (w+1)*32] {
				lt.InsertConcurrent(tuple.Tuple{Key: k, Payload: tuple.Payload(k)})
			}
		}(w)
	}
	wg.Wait()
	for _, k := range keys {
		if p, ok := lt.Lookup(k); !ok || p != tuple.Payload(k) {
			t.Fatalf("key %d lost under contention", k)
		}
	}
}

func TestChainedConcurrentBuild(t *testing.T) {
	const n = 1 << 13
	const workers = 8
	ct := NewChainedTable(n/4, hashfn.Identity, nil) // undersized: forces chains
	// The PrepareConcurrent reservation covers the declared capacity;
	// this build intentionally over-inserts 4x, so reserve for the real
	// tuple count first.
	ct.ReserveOverflow((n+1)/2 + 1)
	ct.PrepareConcurrent()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				ct.InsertConcurrent(tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i)})
			}
		}(w)
	}
	wg.Wait()
	ct.FinishConcurrentBuild()
	if ct.Len() != n {
		t.Fatalf("len = %d, want %d", ct.Len(), n)
	}
	for i := 0; i < n; i++ {
		if p, ok := ct.Lookup(tuple.Key(i)); !ok || p != tuple.Payload(i) {
			t.Fatalf("Lookup(%d) failed after concurrent chained build", i)
		}
	}
}

func TestArrayConcurrentBuild(t *testing.T) {
	const n = 1 << 14
	at := NewArrayTable(0, n, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				at.InsertConcurrent(tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i)})
			}
		}(w)
	}
	wg.Wait()
	at.FinishConcurrentBuild()
	if at.Len() != n {
		t.Fatalf("len = %d, want %d", at.Len(), n)
	}
	for i := 0; i < n; i++ {
		if p, ok := at.Lookup(tuple.Key(i)); !ok || p != tuple.Payload(i) {
			t.Fatalf("key %d lost", i)
		}
	}
}

func TestArrayTableBaseOffset(t *testing.T) {
	at := NewArrayTable(1000, 100, nil)
	at.Insert(tuple.Tuple{Key: 1050, Payload: 7})
	if p, ok := at.Lookup(1050); !ok || p != 7 {
		t.Fatal("offset lookup failed")
	}
	if _, ok := at.Lookup(999); ok {
		t.Fatal("below-base key hit")
	}
	if _, ok := at.Lookup(1100); ok {
		t.Fatal("above-domain key hit")
	}
	if _, ok := at.Lookup(1049); ok {
		t.Fatal("hole key hit")
	}
}

func TestCHTOverflowPath(t *testing.T) {
	// Keys sharing one home push everything past the displacement bound.
	tuples, _ := chtCases["constant"].keysFor(denseTuples(300))
	cht := BuildCHT(tuples, hashfn.Identity)
	checkSharedHome(t, cht, tuples)
	if cht.OverflowLen() == 0 {
		t.Fatal("expected overflow with one shared home")
	}
	if cht.Len() != 300 {
		t.Fatalf("len = %d", cht.Len())
	}
	for i, tp := range tuples {
		p, ok := cht.Lookup(tp.Key)
		if !ok || p != tuple.Payload(i*3) {
			t.Fatalf("Lookup(%d) through overflow failed", tp.Key)
		}
	}
}

func TestCHTNoOverflowOnDenseIdentity(t *testing.T) {
	cht := BuildCHT(denseTuples(1<<12), hashfn.Identity)
	if cht.OverflowLen() != 0 {
		t.Fatalf("dense identity build overflowed %d tuples", cht.OverflowLen())
	}
}

func TestCHTSpaceEfficiency(t *testing.T) {
	// The headline claim of Barber et al.: CHT is far smaller than a
	// 50%-loaded linear table. 8n bits + n tuples vs 2n slots of 8B.
	const n = 1 << 14
	tuples := denseTuples(n)
	cht := BuildCHT(tuples, hashfn.Identity)
	lt := NewLinearTable(n, 0, hashfn.Identity, nil)
	for _, tp := range tuples {
		lt.Insert(tp)
	}
	if cht.SizeBytes() >= lt.SizeBytes() {
		t.Fatalf("CHT %dB not smaller than linear %dB", cht.SizeBytes(), lt.SizeBytes())
	}
}

func TestCHTParallelRegionBuild(t *testing.T) {
	const n = 1 << 13
	const regions = 8
	tuples := denseTuples(n)
	b := NewCHTBuilder(n, regions, hashfn.Identity, nil)
	parts := make([][]tuple.Tuple, b.Regions())
	for _, tp := range tuples {
		r := b.RegionOf(tp.Key)
		parts[r] = append(parts[r], tp)
	}
	var wg sync.WaitGroup
	for r := range parts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			b.LoadRegion(r, parts[r])
		}(r)
	}
	wg.Wait()
	cht := b.Finalize()
	if cht.Len() != n {
		t.Fatalf("len = %d, want %d", cht.Len(), n)
	}
	for i := 0; i < n; i++ {
		p, ok := cht.Lookup(tuple.Key(i))
		if !ok || p != tuple.Payload(i*3) {
			t.Fatalf("parallel CHT Lookup(%d) = %d,%v", i, p, ok)
		}
	}
	for i := n; i < 2*n; i++ {
		if _, ok := cht.Lookup(tuple.Key(i)); ok {
			t.Fatalf("parallel CHT phantom hit %d", i)
		}
	}
}

func TestCHTRegionBuilderClampsRegions(t *testing.T) {
	b := NewCHTBuilder(4, 1024, hashfn.Identity, nil)
	if b.Regions() > 1024 || b.Regions() < 1 {
		t.Fatalf("regions = %d", b.Regions())
	}
	// Regions may not exceed the group count.
	if b.Regions() > 1 { // 4 tuples → 32 buckets → 1 group
		t.Fatalf("regions = %d for tiny table", b.Regions())
	}
}

func TestCHTEmpty(t *testing.T) {
	cht := BuildCHT(nil, hashfn.Identity)
	if cht.Len() != 0 {
		t.Fatalf("len = %d", cht.Len())
	}
	if _, ok := cht.Lookup(0); ok {
		t.Fatal("hit in empty CHT")
	}
}

// Property test: for random key/payload sets with random hash choice,
// every inserted tuple is found and no phantom appears, on every design.
func TestTablesProperty(t *testing.T) {
	hashes := []hashfn.Hash{hashfn.Identity, hashfn.Murmur, hashfn.Multiplicative}
	f := func(keysRaw []uint16, hsel uint8) bool {
		// Deduplicate keys (the paper's build sides are unique PKs).
		seen := map[tuple.Key]bool{}
		var tuples []tuple.Tuple
		for i, kr := range keysRaw {
			k := tuple.Key(kr)
			if seen[k] {
				continue
			}
			seen[k] = true
			tuples = append(tuples, tuple.Tuple{Key: k, Payload: tuple.Payload(i)})
		}
		h := hashes[int(hsel)%len(hashes)]
		tables := map[string]Table{}
		ct := NewChainedTable(len(tuples), h, nil)
		lt := NewLinearTable(len(tuples), 0, h, nil)
		at := NewArrayTable(0, 1<<16, nil)
		for _, tp := range tuples {
			ct.Insert(tp)
			lt.Insert(tp)
			at.Insert(tp)
		}
		tables["chained"], tables["linear"], tables["array"] = ct, lt, at
		tables["cht"] = BuildCHT(tuples, h)
		for _, tbl := range tables {
			if tbl.Len() != len(tuples) {
				return false
			}
			for _, tp := range tuples {
				if p, ok := tbl.Lookup(tp.Key); !ok || p != tp.Payload {
					return false
				}
			}
			// A key guaranteed absent (beyond the uint16 key space).
			if _, ok := tbl.Lookup(1 << 17); ok && tbl != tables["array"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChainedSizeBytesGrowsWithOverflow(t *testing.T) {
	ct := NewChainedTable(4, hashfn.Identity, nil)
	keys := collidingKeys(64, 1, len(ct.buckets))
	checkHomes(t, ct, keys, 1)
	before := ct.SizeBytes()
	for _, k := range keys {
		ct.Insert(tuple.Tuple{Key: k})
	}
	if ct.SizeBytes() <= before {
		t.Fatal("overflow buckets not accounted")
	}
}

func TestLinearTableFullPanics(t *testing.T) {
	lt := NewLinearTable(2, 1.0, hashfn.Identity, nil) // 4 slots
	for i := 0; i < 4; i++ {
		lt.Insert(tuple.Tuple{Key: tuple.Key(i), Payload: 0})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overfull insert did not panic")
		}
	}()
	lt.Insert(tuple.Tuple{Key: 99})
}

func TestLinearTableLookupTerminatesWhenFull(t *testing.T) {
	lt := NewLinearTable(2, 1.0, hashfn.Identity, nil)
	for i := 0; i < lt.Slots(); i++ {
		lt.Insert(tuple.Tuple{Key: tuple.Key(i), Payload: tuple.Payload(i)})
	}
	// Absent key in a 100%-full table must return a miss, not spin.
	if _, ok := lt.Lookup(1 << 20); ok {
		t.Fatal("phantom hit")
	}
	// Present keys still found.
	for i := 0; i < lt.Slots(); i++ {
		if _, ok := lt.Lookup(tuple.Key(i)); !ok {
			t.Fatalf("key %d lost in full table", i)
		}
	}
}

func TestArrayTableOutOfDomainPanics(t *testing.T) {
	at := NewArrayTable(0, 8, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain insert did not panic")
		}
	}()
	at.Insert(tuple.Tuple{Key: 8})
}
