// Package mway provides the sort-merge machinery behind the MWAY join of
// Balkesen et al. (PVLDB 2013) as reproduced in Schuh et al.: sorting of
// a co-partition and the final merge-join over two sorted relations.
//
// The original forms sorted runs with AVX bitonic networks and merges
// them through a multiway tree. Go has no intrinsics, and a scalar
// comparison sort cost over 10x a radix partitioning pass per tuple, so
// Sort is an LSD radix sort instead — the run former of MPSM (Albutiu
// et al.). It sorts a whole co-partition, which leaves nothing to merge
// before the join (see DESIGN.md).
package mway

import (
	"math/bits"

	"mmjoin/internal/tuple"
)

// keyDigits is the number of 8-bit digits in a tuple.Key.
const keyDigits = 4

// Sort sorts rel by key (ascending; ties keep no particular order) and
// returns the sorted relation. rel is one of the two ping-pong buffers
// and may be reordered; the result is either rel or the scratch buffer.
//
// It is an LSD radix sort over 8-bit digits: one read pass builds all
// four digit histograms, then each digit in which the keys are not all
// equal takes one stable scatter pass into the other buffer.
func Sort(rel tuple.Relation) tuple.Relation {
	n := len(rel)
	if n <= 1 {
		return rel
	}
	var hist [keyDigits][256]int
	for _, t := range rel {
		k := t.Key
		hist[0][uint8(k)]++
		hist[1][uint8(k>>8)]++
		hist[2][uint8(k>>16)]++
		hist[3][uint8(k>>24)]++
	}
	k0 := rel[0].Key
	src, dst := rel, tuple.Relation(nil)
	for d := range hist {
		shift := 8 * uint(d)
		h := &hist[d]
		if h[uint8(k0>>shift)] == n {
			continue // every key shares this digit
		}
		if dst == nil {
			dst = make(tuple.Relation, n)
		}
		sum := 0
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, t := range src {
			b := uint8(t.Key >> shift)
			dst[h[b]] = t
			h[b]++
		}
		src, dst = dst, src
	}
	return src
}

// SortPassBytes is the byte traffic of the Sort that produced sorted: the
// histogram read plus a read and a write of every tuple per scatter
// pass. The join drivers charge it to the sort phase.
func SortPassBytes(sorted tuple.Relation) int64 {
	n := int64(len(sorted))
	if n <= 1 {
		return 0
	}
	return n*tuple.Bytes + int64(SortPasses(sorted))*2*n*tuple.Bytes
}

// SortPasses counts the scatter passes the Sort that produced sorted
// made: the digits in which the keys are not all equal (0 for fewer than
// two tuples). Because sorted is in key order, the first and last key
// agree on every digit above the highest one that differs; the digits
// below it are checked by a scan that stops once each has shown a second
// value, which dense and uniform keys do at once.
func SortPasses(sorted tuple.Relation) int {
	if len(sorted) <= 1 {
		return 0
	}
	k0 := sorted[0].Key
	top := k0 ^ sorted[len(sorted)-1].Key
	if top == 0 {
		return 0
	}
	want := (bits.Len32(top) + 7) / 8 // every digit up to the highest differing one
	var diff tuple.Key
	for _, t := range sorted {
		diff |= t.Key ^ k0
		if differingDigits(diff) == want {
			break
		}
	}
	return differingDigits(diff)
}

// differingDigits counts the nonzero 8-bit digits of diff.
func differingDigits(diff tuple.Key) int {
	c := 0
	for ; diff != 0; diff >>= 8 {
		if uint8(diff) != 0 {
			c++
		}
	}
	return c
}

// IsSorted reports whether rel is ascending by key.
func IsSorted(rel tuple.Relation) bool {
	for i := 1; i < len(rel); i++ {
		if rel[i-1].Key > rel[i].Key {
			return false
		}
	}
	return true
}

// mergeBatch is the flush granularity of MergeJoinBatched — the same
// 256 lanes as hashtable.BatchSize (kept as a local constant so mway
// does not depend on the hash-table package).
const mergeBatch = 256

// MergeJoinBatched is MergeJoin with batched emission: matching payload
// pairs accumulate in two fixed buffers and are handed to flush in
// groups of up to mergeBatch lanes (lane i of the two slices is one
// pair), replacing a call per result tuple with one per batch. The
// slices are reused across flushes; flush must not retain them.
func MergeJoinBatched(r, s tuple.Relation, flush func(rPayloads, sPayloads []tuple.Payload)) {
	var rbuf, sbuf [mergeBatch]tuple.Payload
	m := 0
	i, j := 0, 0
	for i < len(r) && j < len(s) {
		rk, sk := r[i].Key, s[j].Key
		switch {
		case rk < sk:
			i++
		case rk > sk:
			j++
		default:
			i2 := i + 1
			for i2 < len(r) && r[i2].Key == rk {
				i2++
			}
			j2 := j + 1
			for j2 < len(s) && s[j2].Key == rk {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					rbuf[m] = r[a].Payload
					sbuf[m] = s[b].Payload
					m++
					if m == mergeBatch {
						flush(rbuf[:], sbuf[:])
						m = 0
					}
				}
			}
			i, j = i2, j2
		}
	}
	if m > 0 {
		flush(rbuf[:m], sbuf[:m])
	}
}

// MergeEvents receives the index-level events of MergeJoinEvents. All
// callbacks are optional; a nil field skips its events, so a caller pays
// only for the event classes its join kind needs. Indices refer to the
// input relations, letting the caller decide what to emit (payloads,
// padding, or nothing) without this package knowing about join kinds.
type MergeEvents struct {
	// Pair fires once per matching (r[ri], s[si]) combination — the full
	// cross product over duplicate groups, like MergeJoin's emit.
	Pair func(ri, si int)
	// SOnly fires once per s tuple whose key has no partner in r, in
	// stream order. Left outer, full outer and anti joins pad from it.
	SOnly func(si int)
	// ROnly fires once per r tuple whose key has no partner in s, in
	// stream order. Right and full outer joins pad from it.
	ROnly func(ri int)
	// SemiS fires once per s tuple whose key has at least one partner in
	// r — the semi-join projection (at most one event per s tuple, unlike
	// Pair).
	SemiS func(si int)
}

// MergeJoinEvents walks two relations sorted by key once, firing the
// requested events. The traversal (and therefore the memory traffic) is
// identical to MergeJoin's; only the emission differs, which is what
// keeps the byte accounting of the sort-merge joins' kind variants equal
// to their inner form.
func MergeJoinEvents(r, s tuple.Relation, ev MergeEvents) {
	i, j := 0, 0
	for i < len(r) && j < len(s) {
		rk, sk := r[i].Key, s[j].Key
		switch {
		case rk < sk:
			if ev.ROnly != nil {
				ev.ROnly(i)
			}
			i++
		case rk > sk:
			if ev.SOnly != nil {
				ev.SOnly(j)
			}
			j++
		default:
			i2 := i + 1
			for i2 < len(r) && r[i2].Key == rk {
				i2++
			}
			j2 := j + 1
			for j2 < len(s) && s[j2].Key == rk {
				j2++
			}
			if ev.Pair != nil {
				for a := i; a < i2; a++ {
					for b := j; b < j2; b++ {
						ev.Pair(a, b)
					}
				}
			}
			if ev.SemiS != nil {
				for b := j; b < j2; b++ {
					ev.SemiS(b)
				}
			}
			i, j = i2, j2
		}
	}
	if ev.ROnly != nil {
		for ; i < len(r); i++ {
			ev.ROnly(i)
		}
	}
	if ev.SOnly != nil {
		for ; j < len(s); j++ {
			ev.SOnly(j)
		}
	}
}

// MergeJoin joins two relations sorted by key, emitting every matching
// payload pair. Duplicate keys on both sides produce the full cross
// product of the duplicate groups, as the relational join requires.
func MergeJoin(r, s tuple.Relation, emit func(rPayload, sPayload tuple.Payload)) {
	i, j := 0, 0
	for i < len(r) && j < len(s) {
		rk, sk := r[i].Key, s[j].Key
		switch {
		case rk < sk:
			i++
		case rk > sk:
			j++
		default:
			// Find the duplicate groups on both sides.
			i2 := i + 1
			for i2 < len(r) && r[i2].Key == rk {
				i2++
			}
			j2 := j + 1
			for j2 < len(s) && s[j2].Key == rk {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(r[a].Payload, s[b].Payload)
				}
			}
			i, j = i2, j2
		}
	}
}
