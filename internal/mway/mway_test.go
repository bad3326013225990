package mway

import (
	"sort"
	"testing"
	"testing/quick"

	"mmjoin/internal/datagen"
	"mmjoin/internal/tuple"
)

// sortSizes cover the empty and single-tuple cases, one digit's worth of
// keys on either side of 256, and a size whose dense keys need three
// scatter passes.
var sortSizes = []int{0, 1, 2, 255, 256, 257, 1<<16 + 3}

// sortKeySets build an n-tuple relation with payloads 0..n-1 and keys
// drawn so that different digits are shared: all of them, the top one
// (dense), none (uniform over 32 bits), all but the top one, and a
// skewed FK column.
var sortKeySets = []struct {
	name string
	rel  func(t *testing.T, n int) tuple.Relation
}{
	{"equal", func(t *testing.T, n int) tuple.Relation {
		return keyed(n, func(int) tuple.Key { return 0xdeadbeef })
	}},
	{"dense", func(t *testing.T, n int) tuple.Relation {
		return keyed(n, func(i int) tuple.Key { return tuple.Key(n - 1 - i) })
	}},
	{"uniform32", func(t *testing.T, n int) tuple.Relation {
		return datagen.UniformRelation(n, 1<<32, uint64(n)+1)
	}},
	{"topbyte", func(t *testing.T, n int) tuple.Relation {
		rel := datagen.UniformRelation(n, 256, uint64(n)+2)
		for i := range rel {
			rel[i].Key = rel[i].Key<<24 | 0x5a5a5a
		}
		return rel
	}},
	{"zipf", func(t *testing.T, n int) tuple.Relation {
		w, err := datagen.Generate(datagen.Config{BuildSize: 1 << 12, ProbeSize: n, Zipf: 0.9, HoleFactor: 7, Seed: uint64(n) + 3})
		if err != nil {
			t.Fatal(err)
		}
		return w.Probe
	}},
}

func keyed(n int, key func(i int) tuple.Key) tuple.Relation {
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: key(i), Payload: tuple.Payload(i)}
	}
	return rel
}

// stdSorted returns a copy of rel ordered by key, then payload.
func stdSorted(rel tuple.Relation) tuple.Relation {
	out := append(tuple.Relation(nil), rel...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Payload < out[j].Payload
	})
	return out
}

// wantPasses counts the digits in which rel's keys are not all equal —
// the scatter passes Sort makes on it.
func wantPasses(rel tuple.Relation) int {
	passes := 0
	for shift := 0; shift < 32; shift += 8 {
		for _, tp := range rel {
			if uint8(tp.Key>>shift) != uint8(rel[0].Key>>shift) {
				passes++
				break
			}
		}
	}
	return passes
}

// TestSortRandom checks, for every size and key set, that Sort returns
// the key order of sort.Slice, and that SortPassBytes charges the
// histogram read plus the scatter passes for exactly the digits the keys
// do not share.
func TestSortRandom(t *testing.T) {
	for _, ks := range sortKeySets {
		for _, n := range sortSizes {
			rel := ks.rel(t, n)
			want := stdSorted(rel)
			passes := wantPasses(rel)
			got := Sort(rel)
			if len(got) != n {
				t.Fatalf("%s n=%d: len changed to %d", ks.name, n, len(got))
			}
			if !IsSorted(got) {
				t.Fatalf("%s n=%d: not sorted", ks.name, n)
			}
			for i := range want {
				if got[i].Key != want[i].Key {
					t.Fatalf("%s n=%d: key %d is %d, want %d", ks.name, n, i, got[i].Key, want[i].Key)
				}
			}
			wantBytes := int64(0)
			if n > 1 {
				wantBytes = int64(n)*tuple.Bytes + int64(passes)*2*int64(n)*tuple.Bytes
			}
			if b := SortPassBytes(got); b != wantBytes {
				t.Fatalf("%s n=%d: SortPassBytes = %d, want %d", ks.name, n, b, wantBytes)
			}
		}
	}
}

// TestSortPreservesMultiset checks that Sort neither loses, duplicates
// nor corrupts a tuple: its output, with ties put in payload order,
// equals the sort.Slice copy tuple for tuple.
func TestSortPreservesMultiset(t *testing.T) {
	for _, ks := range sortKeySets {
		for _, n := range sortSizes {
			rel := ks.rel(t, n)
			want := stdSorted(rel)
			got := stdSorted(Sort(rel))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: tuple %d is %v, want %v", ks.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortManyDuplicates(t *testing.T) {
	rel := make(tuple.Relation, 10000)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: tuple.Key(i % 3), Payload: tuple.Payload(i)}
	}
	got := Sort(rel)
	if !IsSorted(got) {
		t.Fatal("not sorted with heavy duplicates")
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	n := 10000
	asc := make(tuple.Relation, n)
	desc := make(tuple.Relation, n)
	for i := 0; i < n; i++ {
		asc[i] = tuple.Tuple{Key: tuple.Key(i)}
		desc[i] = tuple.Tuple{Key: tuple.Key(n - i)}
	}
	if !IsSorted(Sort(asc)) || !IsSorted(Sort(desc)) {
		t.Fatal("sort failed on monotone inputs")
	}
}

func TestSortPropertyAgainstStdlib(t *testing.T) {
	f := func(keys []uint32) bool {
		rel := make(tuple.Relation, len(keys))
		want := make([]uint32, len(keys))
		for i, k := range keys {
			rel[i] = tuple.Tuple{Key: k, Payload: tuple.Payload(i)}
			want[i] = k
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := Sort(rel)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if uint32(got[i].Key) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeJoinBasic(t *testing.T) {
	r := tuple.Relation{{Key: 1, Payload: 10}, {Key: 3, Payload: 30}, {Key: 5, Payload: 50}}
	s := tuple.Relation{{Key: 0, Payload: 100}, {Key: 3, Payload: 300}, {Key: 3, Payload: 301}, {Key: 6, Payload: 600}}
	var got []tuple.Pair
	MergeJoin(r, s, func(a, b tuple.Payload) {
		got = append(got, tuple.Pair{BuildPayload: a, ProbePayload: b})
	})
	want := []tuple.Pair{{BuildPayload: 30, ProbePayload: 300}, {BuildPayload: 30, ProbePayload: 301}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergeJoinCrossProductOfDuplicates(t *testing.T) {
	r := tuple.Relation{{Key: 7, Payload: 1}, {Key: 7, Payload: 2}}
	s := tuple.Relation{{Key: 7, Payload: 3}, {Key: 7, Payload: 4}, {Key: 7, Payload: 5}}
	count := 0
	MergeJoin(r, s, func(a, b tuple.Payload) { count++ })
	if count != 6 {
		t.Fatalf("cross product size %d, want 6", count)
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	r := tuple.Relation{{Key: 1, Payload: 1}}
	MergeJoin(r, nil, func(a, b tuple.Payload) { t.Fatal("emit on empty side") })
	MergeJoin(nil, r, func(a, b tuple.Payload) { t.Fatal("emit on empty side") })
}

// Property: merge join over sorted inputs equals a reference hash join.
func TestMergeJoinProperty(t *testing.T) {
	f := func(rKeys, sKeys []uint8) bool {
		r := make(tuple.Relation, len(rKeys))
		for i, k := range rKeys {
			r[i] = tuple.Tuple{Key: tuple.Key(k), Payload: tuple.Payload(i)}
		}
		s := make(tuple.Relation, len(sKeys))
		for i, k := range sKeys {
			s[i] = tuple.Tuple{Key: tuple.Key(k), Payload: tuple.Payload(i)}
		}
		r = Sort(r)
		s = Sort(s)
		got := 0
		MergeJoin(r, s, func(a, b tuple.Payload) { got++ })
		// Reference count: sum over keys of count_r * count_s.
		cr := map[tuple.Key]int{}
		for _, tp := range r {
			cr[tp.Key]++
		}
		want := 0
		for _, tp := range s {
			want += cr[tp.Key]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// MergeJoinBatched must emit exactly the pairs MergeJoin emits, in the
// same order, across flush boundaries: duplicate cross products larger
// than one batch exercise the mid-group flush.
func TestMergeJoinBatchedMatchesMergeJoin(t *testing.T) {
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for trial := 0; trial < 20; trial++ {
		r := make(tuple.Relation, next(900))
		for i := range r {
			r[i] = tuple.Tuple{Key: tuple.Key(next(64)), Payload: tuple.Payload(i)}
		}
		s := make(tuple.Relation, next(900))
		for i := range s {
			s[i] = tuple.Tuple{Key: tuple.Key(next(64)), Payload: tuple.Payload(1000 + i)}
		}
		r, s = Sort(r), Sort(s)
		var want []tuple.Pair
		MergeJoin(r, s, func(a, b tuple.Payload) {
			want = append(want, tuple.Pair{BuildPayload: a, ProbePayload: b})
		})
		var got []tuple.Pair
		flushes := 0
		MergeJoinBatched(r, s, func(as, bs []tuple.Payload) {
			flushes++
			if len(as) != len(bs) {
				t.Fatalf("flush with %d build vs %d probe payloads", len(as), len(bs))
			}
			for i := range as {
				got = append(got, tuple.Pair{BuildPayload: as[i], ProbePayload: bs[i]})
			}
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pairs batched vs %d scalar", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pair %d diverged: %v vs %v", trial, i, got[i], want[i])
			}
		}
		if wantFlushes := (len(want) + mergeBatch - 1) / mergeBatch; flushes != wantFlushes {
			t.Fatalf("trial %d: %d flushes for %d pairs, want %d", trial, flushes, len(want), wantFlushes)
		}
	}
}
