// Package hashfn provides the hash functions used across the join
// algorithms. The paper's microbenchmarks use the identity function
// modulo the table size (Section 7.1), which is effective for the dense
// primary-key distributions of the workloads and was also the choice of
// the prior studies being reproduced. Scrambling functions are provided
// for the hash-function ablation and for non-dense domains.
package hashfn

import (
	"fmt"

	"mmjoin/internal/tuple"
)

// Hash names one of the four hash functions. It is a plain value, so a
// table stores it by value and its kernels call it directly: Scalar
// inlines (the identity case costs no call at all) and Batch switches
// once per batch onto a specialized loop. The zero value is Identity,
// the paper's default. Every hash maps a join key to an unbounded
// 64-bit value; the tables reduce it with a mask.
type Hash uint8

const (
	// Identity returns the key unchanged. With dense keys and
	// power-of-two table sizes this gives perfectly uniform,
	// collision-free placement.
	Identity Hash = iota
	// Multiplicative is Knuth-style multiplicative hashing with the
	// golden ratio of 2^64. Its quality sits in the high bits while the
	// tables mask low bits, so the high half is folded down.
	Multiplicative
	// Murmur applies the 64-bit Murmur3 finalizer, a strong scrambler
	// with full avalanche, comparable to the Murmur variant evaluated
	// by Lang et al.
	Murmur
	// CRC mimics the CRC32-based hashing evaluated by Lang et al. using
	// a software Castagnoli reduction over the four key bytes.
	CRC
)

// names are the configuration names ByName accepts, indexed by Hash.
var names = [...]string{Identity: "identity", Multiplicative: "multiplicative", Murmur: "murmur", CRC: "crc"}

// String returns the name ByName resolves back to h.
func (h Hash) String() string {
	if int(h) < len(names) {
		return names[h]
	}
	return fmt.Sprintf("Hash(%d)", uint8(h))
}

// ByName resolves a hash by the names used in experiment
// configurations; the empty name is the default, Identity.
func ByName(name string) (Hash, error) {
	if name == "" {
		return Identity, nil
	}
	for h, n := range names {
		if n == name {
			return Hash(h), nil
		}
	}
	return Identity, fmt.Errorf("hashfn: unknown hash %q", name)
}

// Scalar hashes one key.
//
//mmjoin:hotpath
//mmjoin:inline
func (h Hash) Scalar(k tuple.Key) uint64 {
	if h == Identity {
		return uint64(k)
	}
	return h.scramble(k)
}

// scramble is Scalar's out-of-line half for the three scramblers.
func (h Hash) scramble(k tuple.Key) uint64 {
	switch h {
	case Multiplicative:
		return multiplicative(k)
	case Murmur:
		return murmur(k)
	case CRC:
		return crc(k)
	}
	panic("hashfn: unknown Hash")
}

func multiplicative(k tuple.Key) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ (h >> 32)
}

func murmur(k tuple.Key) uint64 {
	h := uint64(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// crc is CRC32-C over the four little-endian key bytes, with the four
// byte steps unrolled.
func crc(k tuple.Key) uint64 {
	c := ^uint32(0)
	c = crcTable[byte(c)^byte(k)] ^ (c >> 8)
	c = crcTable[byte(c)^byte(k>>8)] ^ (c >> 8)
	c = crcTable[byte(c)^byte(k>>16)] ^ (c >> 8)
	c = crcTable[byte(c)^byte(k>>24)] ^ (c >> 8)
	return uint64(^c)
}

// crcTable is the byte-wise lookup table for the Castagnoli polynomial
// (0x1EDC6F41, reflected 0x82F63B78), built at init time.
var crcTable = func() [256]uint32 {
	var t [256]uint32
	const poly = 0x82F63B78
	for i := range t {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}()
