package hashfn

import "mmjoin/internal/tuple"

// Batch hashes a batch of keys at once: dst[i] receives h.Scalar(keys[i]).
// It switches once per batch onto one specialized loop per hash — no
// per-key call — so the compiler keeps the whole batch in one tight
// loop with the bounds checks hoisted. len(dst) must be >= len(keys).
func (h Hash) Batch(dst []uint64, keys []tuple.Key) {
	switch h {
	case Identity:
		identityBatch(dst, keys)
	case Multiplicative:
		multiplicativeBatch(dst, keys)
	case Murmur:
		murmurBatch(dst, keys)
	case CRC:
		crcBatch(dst, keys)
	default:
		panic("hashfn: unknown Hash")
	}
}

// checkDst makes the len(dst) >= len(keys) contract visible to the
// compiler's prove pass: after the guard, the dst[:len(keys)] reslice
// in every batch loop is provably in bounds.
//
//mmjoin:hotpath
//mmjoin:inline
func checkDst(have, need int) {
	if have < need {
		//mmjoin:allow(hotalloc) cold failure path: the boxed panic argument only materializes on contract violation
		panic("hashfn: dst shorter than the key batch")
	}
}

//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
//mmjoin:inline
func identityBatch(dst []uint64, keys []tuple.Key) {
	checkDst(len(dst), len(keys))
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = uint64(k)
	}
}

//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
//mmjoin:inline
func multiplicativeBatch(dst []uint64, keys []tuple.Key) {
	checkDst(len(dst), len(keys))
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = multiplicative(k)
	}
}

//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
//mmjoin:inline
func murmurBatch(dst []uint64, keys []tuple.Key) {
	checkDst(len(dst), len(keys))
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = murmur(k)
	}
}

//mmjoin:hotpath
//mmjoin:noescape
//mmjoin:bce
func crcBatch(dst []uint64, keys []tuple.Key) {
	checkDst(len(dst), len(keys))
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = crc(k)
	}
}
