//go:build linux && !race

package machine

import (
	"runtime"
	"testing"
)

// TestSlabsOffHeap: in this build a 64 KiB slab is mapped memory, which
// the Go heap — and so the collector's heap goal — never counts.
func TestSlabsOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := mapSlab(offHeapBytes / 8)
	runtime.ReadMemStats(&after)
	defer unmapSlab(s)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= offHeapBytes {
		t.Errorf("mapping a %d-byte slab grew the Go heap by %d bytes", offHeapBytes, grew)
	}
}

// TestUnmapPieceKeepsSibling: madvise gives back one half of a mapped
// slab — its pages read as zero-fill afterwards — while the other half
// keeps its contents and takes writes.
func TestUnmapPieceKeepsSibling(t *testing.T) {
	const words = 2 * offHeapBytes / 8
	s := mapSlab(words)
	defer unmapSlab(s)
	for i := range s {
		s[i] = uint64(i) + 1
	}
	lo, hi := s[:words/2], s[words/2:]
	unmapPiece(s, hi)
	for i, v := range hi {
		if v != 0 {
			t.Fatalf("the unmapped half still holds %d at %d", v, i)
		}
	}
	for i, v := range lo {
		if v != uint64(i)+1 {
			t.Fatalf("the kept half reads %d at %d, want %d", v, i, i+1)
		}
		lo[i] = ^v
	}
	for i, v := range lo {
		if v != ^(uint64(i) + 1) {
			t.Fatalf("the kept half lost a write at %d", i)
		}
	}
}
