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
// mappings linux builds back large slabs with. A newly mapped slab of
// 64 KiB (the smallest those builds map off the heap) must therefore
// grow the heap by its size.
func TestRaceSeesArrayData(t *testing.T) {
	const keys = 1 << 14 // 64 KiB
	m, err := machine.New(machine.Origin2000Scaled(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	// The pool's idle memory, cut into pieces of this class, serves the
	// first borrows; keep borrowing until one maps.
	st := machine.ArenaStats()
	for i := int64(0); i*keys*4 <= st.Mapped-st.InUse; i++ {
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
