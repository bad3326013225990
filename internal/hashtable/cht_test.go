package hashtable

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// chtCase is one hash setup of the CHT layout tests. Under "constant"
// the input's keys are respread by sameHomeKeys so that every key shares
// one home bucket, and all but the first chtMaxDisplacement tuples of a
// region overflow.
type chtCase struct {
	hash     hashfn.Hash
	sameHome bool
}

var chtCases = map[string]chtCase{
	"identity": {hashfn.Identity, false},
	"murmur":   {hashfn.Murmur, false},
	"constant": {hashfn.Identity, true},
}

// sameHomeKey maps the dense key index i of an n-tuple CHT to a key
// whose identity-hash home is bucket 8*5: key 5 + i*stride, with stride
// the bitmap's bucket count over chtBucketsPerTuple, shifts to
// 8*5 + i*bucketCount.
func sameHomeKey(n, i int) tuple.Key {
	stride := max(NextPow2(n)*chtBucketsPerTuple, 32) / chtBucketsPerTuple
	return tuple.Key(5 + i*stride)
}

// keysFor returns the case's input, and its key for a dense index.
func (c chtCase) keysFor(input []tuple.Tuple) ([]tuple.Tuple, func(int) tuple.Key) {
	if !c.sameHome {
		return input, func(i int) tuple.Key { return tuple.Key(i) }
	}
	out := make([]tuple.Tuple, len(input))
	for i, tp := range input {
		out[i] = tuple.Tuple{Key: sameHomeKey(len(input), int(tp.Key)), Payload: tp.Payload}
	}
	return out, func(i int) tuple.Key { return sameHomeKey(len(input), i) }
}

// checkSharedHome asserts, through the table's own hash and mask, that
// every input key has the same home bucket.
func checkSharedHome(t *testing.T, cht *CHT, input []tuple.Tuple) {
	t.Helper()
	for _, tp := range input {
		if h, h0 := cht.bucketOf(tp.Key), cht.bucketOf(input[0].Key); h != h0 {
			t.Fatalf("key %d has home %d, key %d has home %d: the keys do not collide", tp.Key, h, input[0].Key, h0)
		}
	}
}

// buildCHTRegions bulk-loads a CHT the way the CHTJ join does: the
// tuples are partitioned by RegionOf, each region's tuples are handed
// over as two segments, and the regions are claimed concurrently.
func buildCHTRegions(tuples []tuple.Tuple, regions int, hash hashfn.Hash) (*CHTBuilder, *CHT) {
	b := NewCHTBuilder(len(tuples), regions, hash, nil)
	parts := make([][]tuple.Tuple, b.Regions())
	for _, tp := range tuples {
		r := b.RegionOf(tp.Key)
		parts[r] = append(parts[r], tp)
	}
	var wg sync.WaitGroup
	for r, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.LoadRegion(r, p[:len(p)/2], p[len(p)/2:])
		}()
	}
	wg.Wait()
	return b, b.Finalize()
}

// checkCHTLayout asserts the CHT invariants: the prefixes are the
// population counts before each group, the dense array holds exactly
// one tuple per set bit, every placed tuple sits within the bounded
// displacement of its home, in its home's region, reachable from the
// home through occupied buckets only, and the array plus the overflow
// table hold exactly the input tuples.
func checkCHTLayout(t *testing.T, b *CHTBuilder, cht *CHT, input []tuple.Tuple) {
	t.Helper()
	occupied := func(pos uint64) bool { return cht.groups[pos>>5].bits&(1<<(pos&31)) != 0 }
	var running uint32
	for i, g := range cht.groups {
		if g.prefix != running {
			t.Fatalf("group %d: prefix %d, want %d", i, g.prefix, running)
		}
		running += uint32(bits.OnesCount32(g.bits))
	}
	if int(running) != len(cht.array) {
		t.Fatalf("%d set bits, dense array holds %d", running, len(cht.array))
	}
	want := map[tuple.Tuple]int{}
	for _, tp := range input {
		want[tp]++
	}
	for pos := uint64(0); pos <= cht.mask; pos++ {
		if !occupied(pos) {
			continue
		}
		g := cht.groups[pos>>5]
		tp := cht.array[int(g.prefix)+bits.OnesCount32(g.bits&(1<<(pos&31)-1))]
		home := cht.bucketOf(tp.Key)
		if home > pos || pos-home >= chtMaxDisplacement {
			t.Fatalf("bucket %d holds key %d with home %d: displacement out of bounds", pos, tp.Key, home)
		}
		if home>>b.shift != pos>>b.shift {
			t.Fatalf("bucket %d holds key %d whose home %d is in another region", pos, tp.Key, home)
		}
		for p := home; p < pos; p++ {
			if !occupied(p) {
				t.Fatalf("bucket %d (key %d, home %d) is unreachable: bucket %d is empty", pos, tp.Key, home, p)
			}
		}
		want[tp]--
	}
	for k, ps := range cht.overflow {
		for _, p := range ps {
			want[tuple.Tuple{Key: k, Payload: p}]--
		}
	}
	for tp, c := range want {
		if c != 0 {
			t.Fatalf("tuple %+v: %d more in the input than in the table", tp, c)
		}
	}
	if cht.Len() != len(input) {
		t.Fatalf("Len = %d, want %d", cht.Len(), len(input))
	}
}

// chtTestInputs returns the named inputs of the layout tests: dense
// unique keys of each size, plus a duplicate-key input.
func chtTestInputs() map[string][]tuple.Tuple {
	in := map[string][]tuple.Tuple{}
	for _, n := range []int{0, 1, 31, 32, 33, 1<<12 + 7} {
		in[fmt.Sprintf("n=%d", n)] = denseTuples(n)
	}
	dups := make([]tuple.Tuple, 3*1000)
	for i := range dups {
		dups[i] = tuple.Tuple{Key: tuple.Key(i / 3), Payload: tuple.Payload(i)}
	}
	in["dups"] = dups
	return in
}

func TestCHTBulkloadLayout(t *testing.T) {
	for name, input := range chtTestInputs() {
		for hname, c := range chtCases {
			input, _ := c.keysFor(input)
			for _, regions := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/regions=%d", name, hname, regions), func(t *testing.T) {
					b, cht := buildCHTRegions(input, regions, c.hash)
					if c.sameHome {
						checkSharedHome(t, cht, input)
					}
					checkCHTLayout(t, b, cht, input)
				})
			}
		}
	}
}

// TestCHTLookupBatchMatchesLookup holds LookupBatch to scalar Lookup on
// twin tables under match tracking: the same payload and hit flag per
// key, and afterwards the same unmatched set. It runs with prefetching
// off and at the default distance, and includes a table large enough
// for the kernels to prefetch.
func TestCHTLookupBatchMatchesLookup(t *testing.T) {
	inputs := chtTestInputs()
	inputs["n=2^18"] = denseTuples(1 << 18)
	for _, dist := range []int{0, PrefetchDistance()} {
		for name, input := range inputs {
			for hname, c := range chtCases {
				if c.sameHome && len(input) > 1<<13 {
					continue // all-overflow: the map path is covered by the small inputs
				}
				input, keyOf := c.keysFor(input)
				for _, regions := range []int{1, 8} {
					t.Run(fmt.Sprintf("dist=%d/%s/%s/regions=%d", dist, name, hname, regions), func(t *testing.T) {
						prev := SetPrefetchDistance(dist)
						defer SetPrefetchDistance(prev)
						_, scalar := buildCHTRegions(input, regions, c.hash)
						_, batch := buildCHTRegions(input, regions, c.hash)
						if c.sameHome {
							checkSharedHome(t, scalar, input)
						}
						scalar.EnableMatchTracking()
						batch.EnableMatchTracking()
						checkCHTLookupBatch(t, scalar, batch, len(input), keyOf)
					})
				}
			}
		}
	}
}

func checkCHTLookupBatch(t *testing.T, scalar, batch *CHT, n int, keyOf func(int) tuple.Key) {
	t.Helper()
	// Every third key of the domain and every key past it: hits, and
	// misses beyond the built keys.
	var keys []tuple.Key
	for i := 0; i < 2*n+BatchSize; i += 3 {
		keys = append(keys, keyOf(i))
	}
	var s BatchScratch
	pays := make([]tuple.Payload, BatchSize)
	found := make([]bool, BatchSize)
	for lo := 0; lo < len(keys); lo += BatchSize {
		hi := min(lo+BatchSize, len(keys))
		batch.LookupBatch(keys[lo:hi], &s, pays, found)
		for i, k := range keys[lo:hi] {
			p, ok := scalar.Lookup(k)
			if ok != found[i] || p != pays[i] {
				t.Fatalf("key %d: LookupBatch = %d,%v, Lookup = %d,%v", k, pays[i], found[i], p, ok)
			}
		}
	}
	unmatched := func(c *CHT) map[tuple.Tuple]int {
		m := map[tuple.Tuple]int{}
		c.ForEachUnmatched(func(k tuple.Key, p tuple.Payload) { m[tuple.Tuple{Key: k, Payload: p}]++ })
		return m
	}
	us, ub := unmatched(scalar), unmatched(batch)
	if len(us) != len(ub) {
		t.Fatalf("unmatched: scalar %d tuples, batch %d", len(us), len(ub))
	}
	for tp, c := range us {
		if ub[tp] != c {
			t.Fatalf("unmatched tuple %+v: scalar %d, batch %d", tp, c, ub[tp])
		}
	}
}

// TestCHTDenseIdentityRegionsBalanced pins the CHT's own x8 spread: with
// the identity hash key k's home is 8k, so 2^14 dense keys fill all 16
// regions evenly and none overflows.
func TestCHTDenseIdentityRegionsBalanced(t *testing.T) {
	const n, regions = 1 << 14, 16
	input := denseTuples(n)
	b, cht := buildCHTRegions(input, regions, hashfn.Identity)
	if b.Regions() != regions {
		t.Fatalf("Regions = %d, want %d", b.Regions(), regions)
	}
	perRegion := make([]int, regions)
	for _, tp := range input {
		perRegion[b.RegionOf(tp.Key)]++
	}
	for r, c := range perRegion {
		if c != n/regions {
			t.Errorf("region %d received %d keys, want %d", r, c, n/regions)
		}
	}
	if ov := cht.OverflowLen(); ov != 0 {
		t.Errorf("OverflowLen = %d, want 0", ov)
	}
	for _, tp := range input {
		if home, want := cht.bucketOf(tp.Key), (uint64(tp.Key)*8)&cht.mask; home != want {
			t.Fatalf("key %d: home %d, want 8k & mask = %d", tp.Key, home, want)
		}
	}
	checkCHTLayout(t, b, cht, input)
}
