package machine

import "testing"

// BenchmarkWalkBlock measures the page-run block walk (LoadBlock) over
// a blocked array far larger than the cache, the shape of the sorts'
// sequential key sweeps. The per-iteration unit is one 64 KB block
// (512 lines), so ns/op divides by 512 for a per-line cost.
func BenchmarkWalkBlock(b *testing.B) {
	m, err := New(Origin2000Scaled(4))
	if err != nil {
		b.Fatal(err)
	}
	arr := NewArrayBlocked[uint32](m, "keys", 1<<22) // 16 MB
	const block = 64 << 10
	elems := block / 4
	n := arr.Len()
	b.ResetTimer()
	mustRun(b, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		lo := 0
		for i := 0; i < b.N; i++ {
			arr.LoadRange(p, lo, lo+elems, SharedRead)
			lo += elems
			if lo+elems > n {
				lo = 0
			}
		}
	})
}

// BenchmarkScatterStore measures the scattered store path (one access
// with write-buffer overlap per element) over a footprint far larger
// than cache and TLB, the shape of the radix permutation phase.
func BenchmarkScatterStore(b *testing.B) {
	m, err := New(Origin2000Scaled(4))
	if err != nil {
		b.Fatal(err)
	}
	arr := NewArrayBlocked[uint32](m, "dst", 1<<22)
	n := arr.Len()
	b.ResetTimer()
	mustRun(b, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		x := uint64(1)
		for i := 0; i < b.N; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			store(p, arr, int(x%uint64(n)), uint32(x), ConflictWrite)
		}
	})
}
