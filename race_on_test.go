//go:build race

package repro

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true

// TestRaceSeesArrayData: under the race detector array memory is Go
// heap, which the detector instruments — it does not see the anonymous
// mappings other unix builds back large slabs with. A newly mapped slab
// of 64 KiB (the smallest those builds map off the heap) must therefore
// grow the heap by its size.
func TestRaceSeesArrayData(t *testing.T) {
	const keys = 1 << 14 // 64 KiB
	m, err := machine.New(machine.Origin2000Scaled(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	// Idle slabs of this class or larger serve the first borrows; keep
	// borrowing until one maps.
	for i := 0; i < 1000; i++ {
		maps := machine.ArenaStats().Maps
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		machine.NewArrayOnProc[uint32](m, "k", keys, 0)
		runtime.ReadMemStats(&after)
		if machine.ArenaStats().Maps == maps {
			continue
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew < keys*4 {
			t.Errorf("a new %d-byte slab grew the Go heap by %d bytes: the race detector cannot see Array.Data", keys*4, grew)
		}
		return
	}
	t.Fatal("no array took a new slab")
}
