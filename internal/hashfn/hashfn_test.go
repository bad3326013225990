package hashfn

import (
	"hash/crc32"
	"testing"
	"testing/quick"

	"mmjoin/internal/tuple"
)

func TestIdentity(t *testing.T) {
	if Identity.Scalar(12345) != 12345 {
		t.Fatal("identity changed the key")
	}
}

func TestMultiplicativeDeterministicAndSpreads(t *testing.T) {
	if Multiplicative.Scalar(1) == Multiplicative.Scalar(2) {
		t.Fatal("collision on adjacent keys")
	}
	if Multiplicative.Scalar(7) != Multiplicative.Scalar(7) {
		t.Fatal("not deterministic")
	}
}

func TestMurmurAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Murmur.Scalar(0x12345678)
	flipped := Murmur.Scalar(0x12345679)
	diff := base ^ flipped
	pop := 0
	for diff != 0 {
		pop += int(diff & 1)
		diff >>= 1
	}
	if pop < 16 || pop > 48 {
		t.Fatalf("murmur avalanche weak: %d bits flipped", pop)
	}
}

func TestCRCMatchesStdlib(t *testing.T) {
	// Our software CRC32C over the 4 little-endian key bytes must agree
	// with the standard library's Castagnoli implementation.
	tab := crc32.MakeTable(crc32.Castagnoli)
	keys := []tuple.Key{0, 1, 0xdeadbeef, 0xffffffff, 42}
	for _, k := range keys {
		b := []byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)}
		want := uint64(crc32.Checksum(b, tab))
		if got := CRC.Scalar(k); got != want {
			t.Fatalf("CRC(%#x) = %#x, want %#x", k, got, want)
		}
	}
}

func TestCRCPropertyMatchesStdlib(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	f := func(k uint32) bool {
		b := []byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)}
		return CRC.Scalar(k) == uint64(crc32.Checksum(b, tab))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestByName round-trips every hash through its name and rejects an
// unknown name instead of defaulting it.
func TestByName(t *testing.T) {
	for _, h := range allHashes {
		got, err := ByName(h.String())
		if err != nil || got != h {
			t.Fatalf("ByName(%q) = %v, %v; want %v", h.String(), got, err, h)
		}
	}
	if h, err := ByName(""); err != nil || h != Identity {
		t.Fatalf("ByName(\"\") = %v, %v; want identity", h, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

func TestScramblersSpreadLowBits(t *testing.T) {
	// Keys that collide in their low bits must separate after Murmur /
	// Multiplicative — the property that matters for radix partitioning
	// of sparse domains.
	for _, h := range []Hash{Murmur, Multiplicative} {
		buckets := make(map[uint64]int)
		for i := 0; i < 1024; i++ {
			k := tuple.Key(i << 10) // all zero in the low 10 bits
			buckets[h.Scalar(k)&1023]++
		}
		if len(buckets) < 256 {
			t.Fatalf("%s left %d/1024 low-bit buckets used", h, len(buckets))
		}
	}
}
