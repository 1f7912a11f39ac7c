package memsys

import (
	"testing"

	"repro/internal/cache"
)

// BenchmarkHomeOf measures the page→home lookup on a blocked region,
// scattered across the whole region as the sorts' permutation phases
// are (every lookup a different page, defeating any memo). The address
// space holds a dozen regions, like a real sorting run's (keys,
// destination, histograms, per-proc heaps), so a region-walk lookup
// pays a realistic search.
func BenchmarkHomeOf(b *testing.B) {
	as, err := New(1024, 8, func(p int) int { return p / 2 })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		as.AllocRoundRobin("pre", 64<<10)
	}
	r := as.AllocBlocked("keys", 1<<22, 16)
	for i := 0; i < 6; i++ {
		as.AllocOnNode("post", 64<<10, i)
	}
	span := uint64(r.Size())
	base := uint64(r.Base())
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		as.HomeOf(cache.Addr(base + x%span))
	}
}

// BenchmarkReferenceHomeOf measures the region walk HomeOf takes on a
// page a blocked partition boundary straddles: a binary search over the
// regions and a closure call, with no memo.
func BenchmarkReferenceHomeOf(b *testing.B) {
	as, err := New(1024, 8, func(p int) int { return p / 2 })
	if err != nil {
		b.Fatal(err)
	}
	var regions []*Region
	for i := 0; i < 8; i++ {
		regions = append(regions, as.AllocBlocked("r", 1<<16, 16))
	}
	r := regions[4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.ReferenceHomeOf(r.Addr(i % r.Size()))
	}
}
