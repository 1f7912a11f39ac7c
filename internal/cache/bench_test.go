package cache

import "testing"

// Benchmark geometries mirror the scaled Origin2000 preset the
// experiments run on: 256 KB, 2-way, 128-byte lines; 64-entry TLB with
// 1 KB pages.
func benchCache() *Cache {
	return New(Config{Size: 256 << 10, LineSize: 128, Ways: 2})
}

// BenchmarkAccessHit measures the cache hit path (set probe) on a
// rotation of resident lines.
func BenchmarkAccessHit(b *testing.B) {
	c := benchCache()
	const lines = 64
	for i := 0; i < lines; i++ {
		c.Access(Addr(i*128), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Addr((i%lines)*128), false)
	}
}

// BenchmarkAccessMiss measures the miss/fill path with dirty evictions,
// using a scattered write pattern much larger than the cache (the radix
// permutation phase).
func BenchmarkAccessMiss(b *testing.B) {
	c := benchCache()
	// Footprint 16x the cache so nearly every access misses.
	const span = 16 * (256 << 10)
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.Access(Addr(x%span), true)
	}
}

// BenchmarkTLBHit measures a resident-page translation (hash probe) on
// a rotation of resident pages.
func BenchmarkTLBHit(b *testing.B) {
	t := NewTLB(TLBConfig{Entries: 64, PageSize: 1 << 10})
	for i := 0; i < 32; i++ {
		t.Access(Addr(i << 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(Addr((i % 32) << 10))
	}
}

// BenchmarkTLBMiss measures the refill path: scattered pages spanning
// far more than the TLB's 64 entries, as in the permutation phase.
func BenchmarkTLBMiss(b *testing.B) {
	t := NewTLB(TLBConfig{Entries: 64, PageSize: 1 << 10})
	const pages = 1024
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		t.Access(Addr((x % pages) << 10))
	}
}

// BenchmarkTLBLaneHit measures a translation resolved by a lane: the
// slot the lane points at still holds the page.
func BenchmarkTLBLaneHit(b *testing.B) {
	t := NewTLB(TLBConfig{Entries: 64, PageSize: 1 << 10})
	var lane TLBLane
	t.AttachLane(&lane)
	t.AccessLane(&lane, 0)
	misses := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.AccessLane(&lane, Addr(i&1023)) {
			misses++
		}
	}
	if misses != 0 {
		b.Fatalf("%d of %d same-page translations missed", misses, b.N)
	}
}
