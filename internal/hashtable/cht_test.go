package hashtable

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"mmjoin/internal/hashfn"
	"mmjoin/internal/tuple"
)

// chtHashes are the hash functions the CHT layout tests build with; the
// constant hash sends every key to one home, so all but the first
// chtMaxDisplacement tuples of a region overflow.
var chtHashes = map[string]hashfn.Func{
	"identity": hashfn.Identity,
	"murmur":   hashfn.Murmur,
	"constant": func(tuple.Key) uint64 { return 5 },
}

// buildCHTRegions bulk-loads a CHT the way the CHTJ join does: the
// tuples are partitioned by RegionOf, each region's tuples are handed
// over as two segments, and the regions are claimed concurrently.
func buildCHTRegions(tuples []tuple.Tuple, regions int, hash hashfn.Func) (*CHTBuilder, *CHT) {
	b := NewCHTBuilder(len(tuples), regions, hash)
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
		for hname, h := range chtHashes {
			for _, regions := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/regions=%d", name, hname, regions), func(t *testing.T) {
					b, cht := buildCHTRegions(input, regions, h)
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
			for hname, h := range chtHashes {
				if hname == "constant" && len(input) > 1<<13 {
					continue // all-overflow: the map path is covered by the small inputs
				}
				for _, regions := range []int{1, 8} {
					t.Run(fmt.Sprintf("dist=%d/%s/%s/regions=%d", dist, name, hname, regions), func(t *testing.T) {
						prev := SetPrefetchDistance(dist)
						defer SetPrefetchDistance(prev)
						_, scalar := buildCHTRegions(input, regions, h)
						_, batch := buildCHTRegions(input, regions, h)
						scalar.EnableMatchTracking()
						batch.EnableMatchTracking()
						checkCHTLookupBatch(t, scalar, batch, len(input))
					})
				}
			}
		}
	}
}

func checkCHTLookupBatch(t *testing.T, scalar, batch *CHT, n int) {
	t.Helper()
	// Every third key of the domain and every key past it: hits, and
	// misses beyond the built keys.
	var keys []tuple.Key
	for k := 0; k < 2*n+BatchSize; k += 3 {
		keys = append(keys, tuple.Key(k))
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
