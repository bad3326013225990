package bench

import (
	"runtime"
	"testing"

	"mmjoin/internal/datagen"
	"mmjoin/internal/exec"
	"mmjoin/internal/hashfn"
	"mmjoin/internal/hashtable"
	"mmjoin/internal/offheap"
)

// TestOffHeapHeapFootprint is the acceptance check of the off-heap
// arenas: materializing a 2^24-key build relation plus its chained
// table off-heap must shrink the GC-visible heap growth by at least
// 10x compared to the plain heap allocation of the same structures.
func TestOffHeapHeapFootprint(t *testing.T) {
	if !offheap.Available() {
		t.Skip("off-heap allocator unavailable (platform or MMJOIN_OFFHEAP=off); heap fallback has no footprint win by design")
	}
	if testing.Short() {
		t.Skip("2^24-key materialization is slow under -short")
	}
	const n = 1 << 24

	footprint := func(arena *exec.Arena) (delta int64, free func()) {
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w, err := datagen.GenerateArena(datagen.Config{BuildSize: n, ProbeSize: 1, Seed: 9}, arena)
		if err != nil {
			t.Fatal(err)
		}
		ht := hashtable.NewChainedTable(n, hashfn.Murmur, arena)
		for _, tp := range w.Build {
			ht.Insert(tp)
		}
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		return int64(m1.HeapInuse) - int64(m0.HeapInuse), func() {
			ht.Free()
			w.Free()
		}
	}

	heapDelta, freeHeap := footprint(nil)
	freeHeap()

	arena := exec.NewArenaOffHeap()
	offDelta, freeOff := footprint(arena)
	freeOff()
	if out := arena.Outstanding(); out != 0 {
		t.Fatalf("off-heap run leaked %d arena buffers", out)
	}
	arena.Destroy()

	// The structures alone are ~640 MiB at 2^24 keys; require the heap
	// run to have actually paid for them before trusting the ratio.
	if heapDelta < int64(n)*8 {
		t.Fatalf("heap-mode growth %d B implausibly small for 2^24 keys", heapDelta)
	}
	if offDelta < 0 {
		offDelta = 0
	}
	if offDelta*10 > heapDelta {
		t.Fatalf("GC-visible growth off-heap = %d B, heap = %d B; want >=10x reduction", offDelta, heapDelta)
	}
	t.Logf("GC-visible heap growth: heap %.1f MiB, off-heap %.1f MiB", float64(heapDelta)/(1<<20), float64(offDelta)/(1<<20))
}
