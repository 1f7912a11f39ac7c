package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

// testAS builds an address space with 4 KB pages, 8 nodes, 2 procs/node.
func testAS(t *testing.T) *AddressSpace {
	t.Helper()
	as, err := New(4096, 8, func(p int) int { return p / 2 })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return as
}

func TestNewValidation(t *testing.T) {
	nodeOf := func(p int) int { return 0 }
	if _, err := New(0, 8, nodeOf); err == nil {
		t.Error("accepted zero page size")
	}
	if _, err := New(3000, 8, nodeOf); err == nil {
		t.Error("accepted non-power-of-two page size")
	}
	if _, err := New(4096, 0, nodeOf); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := New(4096, 8, nil); err == nil {
		t.Error("accepted nil nodeOfProc")
	}
}

func TestRegionsDisjointAndPageAligned(t *testing.T) {
	as := testAS(t)
	r1 := as.AllocBlocked("a", 10000, 4)
	r2 := as.AllocRoundRobin("b", 123)
	r3 := as.AllocOnNode("c", 4096, 3)
	for i, r := range []*Region{r1, r2, r3} {
		if uint64(r.Base())%4096 != 0 {
			t.Errorf("region %d base %#x not page aligned", i, r.Base())
		}
		if got := as.regionOf(r.Base()); got != r {
			t.Errorf("region %d's first byte belongs to %v", i, got)
		}
		if got := as.regionOf(r.Addr(r.Size() - 1)); got != r {
			t.Errorf("region %d's last byte belongs to %v", i, got)
		}
	}
	if as.regionOf(0) != nil {
		t.Error("address 0 must not belong to any region")
	}
}

func TestBlockedPlacement(t *testing.T) {
	as := testAS(t)
	// 16 partitions of 4 KB each across 16 procs on 8 nodes.
	r := as.AllocBlocked("keys", 16*4096, 16)
	for proc := 0; proc < 16; proc++ {
		off := proc*4096 + 100
		if got, want := as.HomeOf(r.Addr(off)), proc/2; got != want {
			t.Errorf("partition %d homed on node %d, want %d", proc, got, want)
		}
	}
	// Last byte belongs to the last partition.
	if got := as.HomeOf(r.Addr(16*4096 - 1)); got != 7 {
		t.Errorf("last byte homed on node %d, want 7", got)
	}
}

func TestBlockedPlacementTinyRegion(t *testing.T) {
	as := testAS(t)
	// Fewer bytes than processors must not panic or divide by zero.
	r := as.AllocBlocked("tiny", 4, 16)
	for off := 0; off < 4; off++ {
		home := as.HomeOf(r.Addr(off))
		if home < 0 || home >= 8 {
			t.Errorf("offset %d homed on invalid node %d", off, home)
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	as := testAS(t)
	r := as.AllocRoundRobin("hist", 10*4096)
	first := as.HomeOf(r.Addr(0))
	for page := 0; page < 10; page++ {
		if got, want := as.HomeOf(r.Addr(page*4096)), (first+page)%8; got != want {
			t.Errorf("page %d homed on node %d, want %d", page, got, want)
		}
	}
	// A second round-robin region continues the rotation rather than
	// piling onto node 0.
	r2 := as.AllocRoundRobin("hist2", 4096)
	if got, want := as.HomeOf(r2.Addr(0)), (first+10)%8; got != want {
		t.Errorf("second region first page on node %d, want %d", got, want)
	}
}

func TestOnNodePlacement(t *testing.T) {
	as := testAS(t)
	r := as.AllocOnNode("buf", 3*4096, 5)
	for off := 0; off < 3*4096; off += 1111 {
		if got := as.HomeOf(r.Addr(off)); got != 5 {
			t.Errorf("offset %d homed on node %d, want 5", off, got)
		}
	}
}

func TestOnNodePanicsOutOfRange(t *testing.T) {
	as := testAS(t)
	defer func() {
		if recover() == nil {
			t.Error("AllocOnNode(8 nodes, node 9) did not panic")
		}
	}()
	as.AllocOnNode("bad", 4096, 9)
}

func TestRegionOfAndHomeOf(t *testing.T) {
	as := testAS(t)
	r1 := as.AllocOnNode("a", 4096, 1)
	r2 := as.AllocOnNode("b", 4096, 2)
	if got := as.regionOf(r1.Addr(100)); got != r1 {
		t.Errorf("regionOf(r1+100) = %v, want r1", got)
	}
	if got := as.regionOf(r2.Addr(0)); got != r2 {
		t.Errorf("regionOf(r2) = %v, want r2", got)
	}
	if got := as.regionOf(0); got != nil {
		t.Errorf("regionOf(0) = %v, want nil", got)
	}
	if got := as.HomeOf(r1.Addr(50)); got != 1 {
		t.Errorf("HomeOf(r1+50) = %d, want 1", got)
	}
	if got := as.HomeOf(r2.Addr(50)); got != 2 {
		t.Errorf("HomeOf(r2+50) = %d, want 2", got)
	}
	if got := as.HomeOf(0); got != 0 {
		t.Errorf("HomeOf(unmapped) = %d, want fallback 0", got)
	}
}

func TestHomeOfAlwaysValidNode(t *testing.T) {
	as := testAS(t)
	as.AllocBlocked("k", 100000, 16)
	as.AllocRoundRobin("h", 55555)
	as.AllocOnNode("b", 8192, 7)
	f := func(raw uint32) bool {
		home := as.HomeOf(cache.Addr(raw))
		return home >= 0 && home < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionAccessors(t *testing.T) {
	as := testAS(t)
	r := as.AllocOnNode("named", 100, 0)
	if r.Name() != "named" {
		t.Errorf("Name() = %q", r.Name())
	}
	if r.Size() != 100 {
		t.Errorf("Size() = %d", r.Size())
	}
	if r.Addr(10) != r.Base()+10 {
		t.Error("Addr arithmetic wrong")
	}
}
