package machine

import (
	"fmt"
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

// freshPool gives every idle piece back to the host and lowers the
// high-water marks to what is in use, so that a test sees the pool a
// fresh process would.
func freshPool() {
	collectDropped()
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	for i := range slabPool.tiers {
		t := &slabPool.tiers[i]
		for slabPool.unmapOldest(t) {
		}
		t.highWater = t.inUse
	}
}

// TestArenaNoRatchet alternates two machines that each need 4 MiB of
// slabs, in different classes: eight 512 KiB arrays, then sixteen of
// 256 KiB. The pool must hold no more than one of them needs — a pool
// that lends a whole 512 KiB slab to a 256 KiB borrow climbs to 6 MiB —
// and must serve every pass after the first without mapping — a pool
// that splits slabs but never merges them re-maps the 512 KiB ones on
// every pass.
func TestArenaNoRatchet(t *testing.T) {
	freshPool()
	base := ArenaStats()
	for pass := 1; pass <= 4; pass++ {
		maps := ArenaStats().Maps
		for _, shape := range []struct{ keys, arrays int }{{1 << 17, 8}, {1 << 16, 16}} {
			m := testMachine(t, 2)
			for i := 0; i < shape.arrays; i++ {
				NewArrayBlocked[uint32](m, "a", shape.keys)
			}
			m.Release()
		}
		st := ArenaStats()
		if grew := st.HighWater - base.HighWater; grew > 4<<20 {
			t.Errorf("pass %d: high-water mark grew %.1f MiB, want at most 4", pass, float64(grew)/(1<<20))
		}
		if n := st.Maps - maps; pass > 1 && n != 0 {
			t.Errorf("pass %d mapped %d slabs, want 0", pass, n)
		}
	}
	t.Logf("%+v", ArenaStats())
}

// TestArenaUnmapsPiece: a miss that must fit under the high-water mark
// gives back the idle half of a slab whose other half a machine still
// holds; the held half keeps its contents and takes writes, and it
// merges with nothing when it comes back.
func TestArenaUnmapsPiece(t *testing.T) {
	freshPool()
	m := testMachine(t, 2)
	NewArrayBlocked[uint32](m, "whole", 1<<18) // one 1 MiB slab
	m.Release()

	m = testMachine(t, 2)
	before := ArenaStats()
	half := NewArrayBlocked[uint32](m, "half", 1<<17)
	if st := ArenaStats(); st.Maps != before.Maps || st.Splits != before.Splits+1 {
		t.Fatalf("a 512 KiB borrow from an idle 1 MiB slab: %+v, want one split and no map (before %+v)", st, before)
	}
	for i := range half.Data {
		half.Data[i] = uint32(i)
	}
	before = ArenaStats()
	NewArrayBlocked[uint32](m, "big", 1<<19) // a 2 MiB miss
	st := ArenaStats()
	if st.Unmaps != before.Unmaps+1 || st.Mapped != before.Mapped-(512<<10)+(2<<20) {
		t.Fatalf("a 2 MiB miss: %+v, want the idle 512 KiB half unmapped (before %+v)", st, before)
	}
	if st.Mapped > st.HighWater {
		t.Fatalf("%d bytes mapped, high-water mark %d", st.Mapped, st.HighWater)
	}
	for i, v := range half.Data {
		if v != uint32(i) {
			t.Fatalf("the held half reads %d at %d after its buddy was unmapped", v, i)
		}
		half.Data[i] = ^v
	}
	for i, v := range half.Data {
		if v != ^uint32(i) {
			t.Fatalf("the held half lost a write at %d", i)
		}
	}
	before = ArenaStats()
	m.Release()
	if st := ArenaStats(); st.Merges != before.Merges {
		t.Errorf("a piece whose buddy was unmapped merged: %+v", st)
	}
	freshPool()
}

// TestArenaTiersShareNothing: a small borrow maps a small slab rather
// than split an idle big one, and a big miss gives back idle big memory
// only, never the small slabs, which the collector counts in its goal.
func TestArenaTiersShareNothing(t *testing.T) {
	freshPool()
	m := testMachine(t, 2)
	NewArrayBlocked[uint32](m, "big", 1<<16) // one 256 KiB slab
	m.Release()

	m = testMachine(t, 2)
	before := ArenaStats()
	NewArrayBlocked[uint32](m, "small", 1<<10) // 4 KiB
	st := ArenaStats()
	if st.Maps != before.Maps+1 || st.Splits != before.Splits || st.Unmaps != before.Unmaps {
		t.Fatalf("a 4 KiB borrow beside an idle 256 KiB slab: %+v, want one map, no split, no unmap (before %+v)", st, before)
	}
	m.Release()

	m = testMachine(t, 2)
	before = ArenaStats()
	NewArrayBlocked[uint32](m, "bigger", 1<<17) // a 512 KiB miss
	st = ArenaStats()
	if st.Unmaps != before.Unmaps+1 || st.Mapped != before.Mapped-(256<<10)+(512<<10) {
		t.Fatalf("a 512 KiB miss: %+v, want the idle 256 KiB slab unmapped and the 4 KiB one kept (before %+v)", st, before)
	}
	if st.Mapped > st.HighWater {
		t.Fatalf("%d bytes mapped, high-water mark %d", st.Mapped, st.HighWater)
	}
	m.Release()
	freshPool()
}

// TestArenaConcurrentGrow: eight processors grow reserve arrays inside
// one Run, so they split and merge pool pieces at the same time, while
// another goroutine builds and releases machines. Every processor's
// array keeps what it wrote through every reallocation.
func TestArenaConcurrentGrow(t *testing.T) {
	const procs, keys = 8, 1 << 16
	m := testMachine(t, procs)
	defer m.Release()
	arrays := make([]*Array[uint32], procs)
	for i := range arrays {
		arrays[i] = NewArrayReserve[uint32](m, "r", keys, i)
	}
	stop := make(chan struct{})
	churned := make(chan error)
	go func() { churned <- churnMachines(stop) }()
	_, err := m.Run(func(p *Proc) {
		a, mark := arrays[p.ID], uint32(p.ID)<<24
		for n := 1; n <= keys; n += n/3 + 1 {
			old := a.Len()
			a.Grow(n)
			for i := old; i < n; i++ {
				a.Data[i] = mark | uint32(i)
			}
		}
		for i, v := range a.Data {
			if v != mark|uint32(i) {
				panic(fmt.Sprintf("processor %d reads %#x at %d", p.ID, v, i))
			}
		}
	})
	close(stop)
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// churnMachines builds machines with arrays of changing sizes, fills
// and releases them, until stop is closed.
func churnMachines(stop <-chan struct{}) error {
	for n := 1 << 8; ; n = n%(1<<16) + n/2 + 1 {
		select {
		case <-stop:
			return nil
		default:
		}
		m, err := New(Origin2000Scaled(2))
		if err != nil {
			return err
		}
		for _, a := range []*Array[uint32]{NewArrayBlocked[uint32](m, "o", n), NewArrayOnProc[uint32](m, "p", 2*n, 1)} {
			for i := range a.Data {
				a.Data[i] = ^uint32(i)
			}
		}
		m.Release()
	}
}
