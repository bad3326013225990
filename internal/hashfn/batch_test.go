package hashfn

import (
	"math"
	"math/rand"
	"testing"

	"mmjoin/internal/tuple"
)

var allHashes = []Hash{Identity, Multiplicative, Murmur, CRC}

// TestBatchMatchesScalar checks every specialized batch loop against
// Scalar on edge keys and on random keys.
func TestBatchMatchesScalar(t *testing.T) {
	keys := []tuple.Key{0, 1, 2, 3, 7, 8, 255, 256, 1 << 20, 1 << 31, math.MaxUint32 - 1, 0xdeadbeef, math.MaxUint32}
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		keys = append(keys, tuple.Key(rng.Uint32()))
	}
	for _, h := range allHashes {
		dst := make([]uint64, len(keys))
		h.Batch(dst, keys)
		for i, k := range keys {
			if want := h.Scalar(k); dst[i] != want {
				t.Errorf("%v: key %d: batch %#x, scalar %#x", h, k, dst[i], want)
			}
		}
	}
}

// TestBatchShortDstPanics checks the len(dst) >= len(keys) contract.
func TestBatchShortDstPanics(t *testing.T) {
	for _, h := range allHashes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: short dst did not panic", h)
				}
			}()
			h.Batch(make([]uint64, 1), []tuple.Key{1, 2})
		}()
	}
}
