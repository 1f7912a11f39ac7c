//go:build unix && !race

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
