package service

import (
	"fmt"
	"runtime"
	"testing"
)

// TestDistinctAlphaSoakHeapFlat builds a stream of LP-backed choose
// specs that differ only in α through a two-entry cache. α is a free
// float, so any memo keyed on it below the LRU grows by one mechanism
// per spec forever; with the LRU as the only mechanism cache, the heap
// after GC must stay flat once the cache is full.
func TestDistinctAlphaSoakHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const n, specs = 128, 20
	svc := New(Config{Capacity: 2, Shards: 1, Seed: 3})
	t.Cleanup(svc.Close)
	build := func(alpha float64) {
		t.Helper()
		spec, err := ParseSpec(fmt.Sprintf("choose:n=%d:a=%g:CM", n, alpha))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Get(spec); err != nil {
			t.Fatalf("alpha %g: %v", alpha, err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Fill the cache (and the warm-basis cache) before the baseline.
	for i := 0; i < 4; i++ {
		build(0.6 + 0.001*float64(i))
	}
	before := heap()
	for i := 0; i < specs; i++ {
		build(0.7 + 0.001*float64(i))
	}
	after := heap()

	// A mechanism holds at least its (n+1)×(n+1) float64 matrix.
	mech := uint64((n + 1) * (n + 1) * 8)
	if after > before && after-before >= 4*mech {
		t.Fatalf("heap grew %d bytes over %d distinct-α specs; bound is 4 mechanisms (%d bytes)",
			after-before, specs, 4*mech)
	}
	t.Logf("heap %d -> %d bytes over %d specs (bound +%d)", before, after, specs, 4*mech)
}
