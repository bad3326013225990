package hashtable

import (
	"testing"
	"testing/quick"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

func TestSparseTableDense(t *testing.T) {
	const n = 4096
	st := NewSparseTable(n, hashfn.Identity)
	for _, tp := range denseTuples(n) {
		st.Insert(tp)
	}
	if st.Len() != n {
		t.Fatalf("len = %d", st.Len())
	}
	for i := 0; i < n; i++ {
		p, ok := st.Lookup(tuple.Key(i))
		if !ok || p != tuple.Payload(i*3) {
			t.Fatalf("Lookup(%d) = %d,%v", i, p, ok)
		}
	}
	if _, ok := st.Lookup(n + 7); ok {
		t.Fatal("phantom hit")
	}
}

func TestSparseTableCollisions(t *testing.T) {
	// Every key has home bucket 8*3: the table spreads the hash over
	// its buckets by sparseBucketsPerTuple, so keys 3 + i*slots collide
	// for slots = buckets/sparseBucketsPerTuple.
	st := NewSparseTable(64, hashfn.Identity)
	slots := int(st.mask+1) / sparseBucketsPerTuple
	keys := collidingKeys(200, 1, slots)
	for i := range keys {
		keys[i] += 3
	}
	checkHomes(t, st, keys, 1)
	for i, k := range keys {
		st.Insert(tuple.Tuple{Key: k, Payload: tuple.Payload(i)})
	}
	for i, k := range keys {
		if p, ok := st.Lookup(k); !ok || p != tuple.Payload(i) {
			t.Fatalf("key %d lost under collisions", k)
		}
	}
}

func TestSparseTableDelete(t *testing.T) {
	st := NewSparseTable(256, hashfn.Murmur)
	for _, tp := range denseTuples(256) {
		st.Insert(tp)
	}
	// Delete the evens; odds must survive the run repairs.
	for i := 0; i < 256; i += 2 {
		if !st.Delete(tuple.Key(i)) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if st.Len() != 128 {
		t.Fatalf("len after deletes = %d", st.Len())
	}
	for i := 0; i < 256; i++ {
		p, ok := st.Lookup(tuple.Key(i))
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
		} else if !ok || p != tuple.Payload(i*3) {
			t.Fatalf("surviving key %d lost (ok=%v)", i, ok)
		}
	}
	if st.Delete(9999) {
		t.Fatal("deleted an absent key")
	}
	// Reinsert the evens.
	for i := 0; i < 256; i += 2 {
		st.Insert(tuple.Tuple{Key: tuple.Key(i), Payload: 7})
	}
	if p, ok := st.Lookup(0); !ok || p != 7 {
		t.Fatal("reinsert after delete failed")
	}
}

func TestSparseTableSpaceComparableToCHT(t *testing.T) {
	const n = 1 << 14
	tuples := denseTuples(n)
	st := NewSparseTable(n, hashfn.Identity)
	for _, tp := range tuples {
		st.Insert(tp)
	}
	lt := NewLinearTable(n, 0, hashfn.Identity, nil)
	for _, tp := range tuples {
		lt.Insert(tp)
	}
	// The dynamic sparse layout pays slice headers per group but must
	// still undercut the 50%-loaded linear table.
	if st.SizeBytes() >= lt.SizeBytes() {
		t.Fatalf("sparse %dB not below linear %dB", st.SizeBytes(), lt.SizeBytes())
	}
}

// Property: sparse table behaves like a map under random insert/delete
// interleavings (unique keys).
func TestSparseTableProperty(t *testing.T) {
	f := func(ops []uint16, seed uint8) bool {
		st := NewSparseTable(64, hashfn.Murmur)
		ref := map[tuple.Key]tuple.Payload{}
		for i, op := range ops {
			k := tuple.Key(op % 512)
			if op%3 == 0 {
				if _, exists := ref[k]; exists {
					delete(ref, k)
					if !st.Delete(k) {
						return false
					}
				}
			} else if _, exists := ref[k]; !exists {
				ref[k] = tuple.Payload(i)
				st.Insert(tuple.Tuple{Key: k, Payload: tuple.Payload(i)})
			}
		}
		if st.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if p, ok := st.Lookup(k); !ok || p != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRobinHoodDense(t *testing.T) {
	const n = 4096
	rh := NewRobinHoodTable(n, 0, hashfn.Identity, nil)
	for _, tp := range denseTuples(n) {
		rh.Insert(tp)
	}
	if rh.Len() != n {
		t.Fatalf("len = %d", rh.Len())
	}
	for i := 0; i < n; i++ {
		p, ok := rh.Lookup(tuple.Key(i))
		if !ok || p != tuple.Payload(i*3) {
			t.Fatalf("Lookup(%d) failed", i)
		}
	}
	if _, ok := rh.Lookup(n + 1); ok {
		t.Fatal("phantom hit")
	}
}

func TestRobinHoodHighLoadFactor(t *testing.T) {
	// Robin Hood's raison d'être: stays correct and bounded at 90% load
	// with a colliding hash.
	const n = 1000
	rh := NewRobinHoodTable(n, 0.9, hashfn.Multiplicative, nil)
	for i := 0; i < n; i++ {
		rh.Insert(tuple.Tuple{Key: tuple.Key(i * 13), Payload: tuple.Payload(i)})
	}
	for i := 0; i < n; i++ {
		p, ok := rh.Lookup(tuple.Key(i * 13))
		if !ok || p != tuple.Payload(i) {
			t.Fatalf("key %d lost at high load", i*13)
		}
	}
	if _, ok := rh.Lookup(7); ok {
		t.Fatal("phantom hit")
	}
}

func TestRobinHoodDuplicates(t *testing.T) {
	rh := NewRobinHoodTable(32, 0, hashfn.Identity, nil)
	for i := 0; i < 5; i++ {
		rh.Insert(tuple.Tuple{Key: 7, Payload: tuple.Payload(i)})
	}
	if rh.Len() != 5 {
		t.Fatalf("Len = %d after 5 duplicate inserts", rh.Len())
	}
	if p, ok := rh.Lookup(7); !ok || p >= 5 {
		t.Fatalf("Lookup(7) = %d,%v, want one of the duplicates", p, ok)
	}
}

func TestRobinHoodEqualizesProbeDistances(t *testing.T) {
	// With clustered keys — runs of 8 sharing one home — Robin Hood's
	// max probe distance must be at most the plain linear table's.
	const n = 512
	rh := NewRobinHoodTable(n, 0.7, hashfn.Identity, nil)
	lt := NewLinearTable(n, 0.7, hashfn.Identity, nil)
	// Key i has home i/8: i/8 + (i%8)*slots.
	keys := make([]tuple.Key, n)
	for i := range keys {
		keys[i] = tuple.Key(i/8 + i%8*lt.Slots())
	}
	for _, tbl := range []Table{rh, lt} {
		for i, k := range keys {
			if h, _ := homeOf(tbl, k); h != uint64(i/8) {
				t.Fatalf("%T: key %d has home %d, want %d", tbl, k, h, i/8)
			}
		}
	}
	for i, k := range keys {
		tp := tuple.Tuple{Key: k, Payload: tuple.Payload(i)}
		rh.Insert(tp)
		lt.Insert(tp)
	}
	maxRH := 0
	for _, d := range rh.dist {
		if int(d) > maxRH {
			maxRH = int(d)
		}
	}
	// Linear max displacement: walk each key's probe length.
	maxLT := 0
	for _, k := range keys {
		home, _ := homeOf(lt, k)
		j := home
		steps := 0
		for lt.keys[j] != uint32(k)+1 {
			j = (j + 1) & lt.mask
			steps++
		}
		if steps > maxLT {
			maxLT = steps
		}
	}
	if maxRH > maxLT {
		t.Fatalf("robin hood max distance %d exceeds linear %d", maxRH, maxLT)
	}
}

func TestRobinHoodProperty(t *testing.T) {
	f := func(keysRaw []uint16) bool {
		seen := map[tuple.Key]bool{}
		rh := NewRobinHoodTable(len(keysRaw)+1, 0, hashfn.Murmur, nil)
		var inserted []tuple.Tuple
		for i, kr := range keysRaw {
			k := tuple.Key(kr)
			if seen[k] {
				continue
			}
			seen[k] = true
			tp := tuple.Tuple{Key: k, Payload: tuple.Payload(i)}
			rh.Insert(tp)
			inserted = append(inserted, tp)
		}
		for _, tp := range inserted {
			if p, ok := rh.Lookup(tp.Key); !ok || p != tp.Payload {
				return false
			}
		}
		_, ok := rh.Lookup(1 << 18)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseMutationEndsTracking checks that Insert ends match
// tracking: the marks address a snapshot of the dense layout, so a
// lookup after the table grew must neither mark nor index past the
// bitmap.
func TestSparseMutationEndsTracking(t *testing.T) {
	const n = 1024
	tuples := denseTuples(n)
	st := NewSparseTable(n, hashfn.Murmur)
	for _, tp := range tuples[:64] {
		st.Insert(tp)
	}
	st.EnableMatchTracking()
	for _, tp := range tuples[64:] {
		st.Insert(tp)
	}
	keys := make([]tuple.Key, n)
	for i, tp := range tuples {
		keys[i] = tp.Key
		if p, ok := st.Lookup(tp.Key); !ok || p != tp.Payload {
			t.Fatalf("Lookup(%d) = %d,%v after growth", tp.Key, p, ok)
		}
	}
	var s BatchScratch
	payloads := make([]tuple.Payload, BatchSize)
	found := make([]bool, BatchSize)
	runBatched(n, func(lo, hi int) {
		st.LookupBatch(keys[lo:hi], &s, payloads, found)
	})
}
