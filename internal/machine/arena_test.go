package machine

import (
	"runtime"
	"testing"
	"unsafe"
)

// collectDropped runs the collector until every machine dropped so far
// has been finalized. Finalizers run one batch at a time on one
// goroutine, so once a sentinel queued by a second collection has run,
// the batch the first collection queued has finished.
func collectDropped() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(new([32]byte), func(*[32]byte) { close(done) })
		runtime.GC()
		<-done
	}
}

// TestArenaReuse proves Release recycles array backing memory: after a
// machine releases its slabs, a second machine allocating the same
// array footprint gets the same backing slab back from the pool (LIFO),
// and its contents arrive zeroed despite the first machine's writes.
func TestArenaReuse(t *testing.T) {
	m1 := testMachine(t, 2)
	a1 := NewArrayBlocked[uint32](m1, "k", 1<<12)
	for i := range a1.Data {
		a1.Data[i] = 0xDEADBEEF
	}
	p1 := unsafe.Pointer(&a1.Data[0])
	m1.Release()

	m2 := testMachine(t, 2)
	a2 := NewArrayBlocked[uint32](m2, "k", 1<<12)
	if unsafe.Pointer(&a2.Data[0]) != p1 {
		t.Error("released slab was not reused for an identical allocation")
	}
	for i, v := range a2.Data {
		if v != 0 {
			t.Fatalf("reused slab not zeroed at %d: %#x", i, v)
		}
	}
	m2.Release()
}

// TestArenaBound runs a sequence of machines whose arrays hit heap and
// off-heap size classes, one of them grown in place and then moved,
// until a pass maps no slab. After every borrow the pool maps no more
// than its high-water mark; after every Release nothing is in use; every
// array reads as zero although the borrower before filled its slab; and
// a pass that maps nothing stays that way.
func TestArenaBound(t *testing.T) {
	collectDropped()
	base := ArenaStats().InUse
	shapes := [][]int{ // uint32 keys per array, one machine each
		{1 << 10, 1 << 16},
		{1 << 18, 1 << 18},
		{1 << 19},
		{1 << 12, 3 << 15, 1 << 17},
	}
	bounded := func(what string) {
		if st := ArenaStats(); st.Mapped > st.HighWater {
			t.Fatalf("after %s: %d bytes mapped, high-water mark %d", what, st.Mapped, st.HighWater)
		}
	}
	zeroThenFill := func(what string, data []uint32) {
		for i, v := range data {
			if v != 0 {
				t.Fatalf("%s reads %#x at %d, want a zeroed slab", what, v, i)
			}
			data[i] = 0xDEADBEEF
		}
	}
	pass := func() uint64 {
		maps := ArenaStats().Maps
		for _, shape := range shapes {
			m := testMachine(t, 2)
			for _, n := range shape {
				a := NewArrayBlocked[uint32](m, "a", n)
				bounded("a borrow")
				zeroThenFill("a new array", a.Data)
			}
			r := NewArrayReserve[uint32](m, "r", 1<<17, 1)
			for _, n := range []int{1 << 12, 3 << 12, 1 << 17} {
				old := len(r.Data)
				r.Grow(n)
				bounded("a Grow")
				zeroThenFill("a grown tail", r.Data[old:])
			}
			m.Release()
			if got := ArenaStats().InUse; got != base {
				t.Fatalf("after Release %d bytes in use, want %d", got, base)
			}
		}
		return ArenaStats().Maps - maps
	}
	for n := 1; ; n++ {
		maps := pass()
		t.Logf("pass %d mapped %d slabs: %+v", n, maps, ArenaStats())
		if maps == 0 {
			break
		}
		if n == 4 {
			t.Fatalf("pass %d still mapped %d slabs", n, maps)
		}
	}
	if maps := pass(); maps != 0 {
		t.Errorf("a pass after a pass that mapped nothing mapped %d slabs", maps)
	}
}

// TestArenaDroppedMachines: machines nobody releases give their slabs
// back to the host once the collector finds them unreachable.
func TestArenaDroppedMachines(t *testing.T) {
	collectDropped()
	base := ArenaStats()
	const dropped = 8
	for i := 0; i < dropped; i++ {
		m := testMachine(t, 2)
		NewArrayBlocked[uint32](m, "k", 1<<16)
		NewArrayOnProc[int64](m, "h", 1<<10, 1)
	}
	if ArenaStats().InUse == base.InUse {
		t.Fatal("the machines borrowed no slab")
	}
	collectDropped()
	st := ArenaStats()
	if st.InUse != base.InUse {
		t.Errorf("%d bytes in use after the dropped machines were collected, want %d", st.InUse, base.InUse)
	}
	if st.Unmaps-base.Unmaps < 2*dropped {
		t.Errorf("%d slabs unmapped, want the dropped machines' %d", st.Unmaps-base.Unmaps, 2*dropped)
	}
}
