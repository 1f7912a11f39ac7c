package shmem

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
)

func comm(t *testing.T, procs int) *Comm {
	t.Helper()
	m, err := machine.New(machine.Origin2000Scaled(procs))
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return New(m)
}

// mustRun runs body on m and fails the test if the run failed.
func mustRun(tb testing.TB, m *machine.Machine, body func(p *machine.Proc)) *machine.Result {
	tb.Helper()
	res, err := m.Run(body)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestGetMovesDataAndCharges(t *testing.T) {
	c := comm(t, 4)
	sym := NewSym[uint32](c, "buf", 1024)
	res := mustRun(t, c.Machine(), func(p *machine.Proc) {
		// Rank 3 fills its segment; rank 0 gets it after a barrier.
		if p.ID == 3 {
			for i := range sym.Local(p).Data {
				sym.Local(p).Data[i] = uint32(i) * 7
			}
			sym.Local(p).StoreRange(p, 0, 1024, machine.Private)
		}
		c.Barrier(p)
		if p.ID == 0 {
			sym.Get(p, 0, 3, 0, 1024)
			for i, v := range sym.Local(p).Data {
				if v != uint32(i)*7 {
					t.Errorf("element %d = %d, want %d", i, v, uint32(i)*7)
					break
				}
			}
			// Get fills the requester's cache.
			if !p.CacheContains(sym.Local(p).Addr(0)) {
				t.Error("get did not install lines in the caller's cache")
			}
		}
	})
	if res.PerProc[0].Breakdown.RMem == 0 {
		t.Error("get from a remote rank charged no RMem")
	}
	if res.PerProc[0].Traffic.Messages == 0 {
		t.Error("get recorded no message")
	}
}

func TestPutMovesDataWithoutCachingAtDest(t *testing.T) {
	c := comm(t, 4)
	sym := NewSym[uint32](c, "buf", 256)
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 1 {
			for i := range sym.Local(p).Data {
				sym.Local(p).Data[i] = 42
			}
			sym.Put(p, 2, 0, 0, 256)
		}
		c.Barrier(p)
		if p.ID == 2 {
			if sym.Local(p).Data[0] != 42 {
				t.Errorf("put data did not arrive: %d", sym.Local(p).Data[0])
			}
			// Put does not deposit into the destination cache.
			if p.CacheContains(sym.Local(p).Addr(0)) {
				t.Error("put deposited lines into destination cache")
			}
		}
	})
}

func TestGetZeroLengthIsFree(t *testing.T) {
	c := comm(t, 2)
	sym := NewSym[uint32](c, "buf", 16)
	res := mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 0 {
			sym.Get(p, 0, 1, 0, 0)
		}
	})
	if got := res.PerProc[0].Breakdown.Total(); got != 0 {
		t.Errorf("zero-length get cost %v, want 0", got)
	}
}

func TestGetIntoPrivateBuffer(t *testing.T) {
	c := comm(t, 4)
	sym := NewSym[uint32](c, "src", 64)
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 2 {
			for i := range sym.Local(p).Data {
				sym.Local(p).Data[i] = 9
			}
		}
		c.Barrier(p)
		if p.ID == 0 {
			buf := machine.NewArrayOnProc[uint32](c.Machine(), "priv", 64, 0)
			sym.GetInto(p, buf, 0, 2, 0, 64)
			if buf.Data[0] != 9 || buf.Data[63] != 9 {
				t.Errorf("GetInto data wrong: %d, %d", buf.Data[0], buf.Data[63])
			}
		}
	})
}

func TestCollectGathersAll(t *testing.T) {
	const procs, count = 8, 4
	c := comm(t, procs)
	src := NewSym[int64](c, "src", count)
	dst := NewSymReserve[int64](c, "dst", count*procs)
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		for i := 0; i < count; i++ {
			src.Local(p).Data[i] = int64(p.ID*100 + i)
		}
		src.Local(p).StoreRange(p, 0, count, machine.Private)
		rows := Collect(p, src, dst, count)
		if len(rows) != procs {
			t.Errorf("proc %d got %d rows, want %d", p.ID, len(rows), procs)
			return
		}
		for r, row := range rows {
			if len(row) != count {
				t.Errorf("proc %d row %d has %d elements, want %d", p.ID, r, len(row), count)
				return
			}
			for i, got := range row {
				if want := int64(r*100 + i); got != want {
					t.Errorf("proc %d row[%d][%d] = %d, want %d", p.ID, r, i, got, want)
					return
				}
			}
		}
	})
	// The collection is an address range: no rank holds a host copy.
	for r, seg := range dst.Seg {
		if seg.Data != nil {
			t.Errorf("collection segment %d holds %d host elements", r, len(seg.Data))
		}
	}
}

// TestCollectRejectsShortSegment: a collection segment too small for
// count·Ranks() elements, or a source shorter than count, would charge
// lines past its region with no slice bound to catch it; Collect panics
// naming the segment, and Run returns that processor's failure.
func TestCollectRejectsShortSegment(t *testing.T) {
	const procs = 4
	for _, tc := range []struct {
		name           string
		srcLen, dstLen int
		count          int
		want           string
	}{
		{"short collection", 8, 8*procs - 1, 8, `segment "dst[0]" capacity 31 elems`},
		{"short source", 4, 8 * procs, 8, `segment "src[0]" length 4`},
	} {
		c := comm(t, procs)
		src := NewSym[int32](c, "src", tc.srcLen)
		dst := NewSymReserve[int32](c, "dst", tc.dstLen)
		_, err := c.Machine().Run(func(p *machine.Proc) {
			Collect(p, src, dst, tc.count)
		})
		var pp *machine.ProcPanic
		if !errors.As(err, &pp) {
			t.Fatalf("%s: Run returned %v, want a *machine.ProcPanic", tc.name, err)
		}
		if pp.Proc != 0 || !strings.Contains(fmt.Sprint(pp.Value), tc.want) {
			t.Errorf("%s: processor %d panicked with %v, want processor 0 naming %s",
				tc.name, pp.Proc, pp.Value, tc.want)
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	run := func() float64 {
		c := comm(t, 8)
		src := NewSym[int64](c, "s", 16)
		dst := NewSymReserve[int64](c, "d", 16*8)
		res := mustRun(t, c.Machine(), func(p *machine.Proc) {
			for i := range src.Local(p).Data {
				src.Local(p).Data[i] = int64(p.ID + i)
			}
			Collect(p, src, dst, 16)
		})
		return res.TimeNs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic collect: %v vs %v", a, b)
	}
}

func TestSymSegmentHoming(t *testing.T) {
	c := comm(t, 8)
	sym := NewSym[uint32](c, "seg", 1024)
	as := c.Machine().AddressSpace()
	top := c.Machine().Topology()
	for r := 0; r < 8; r++ {
		if got, want := as.HomeOf(sym.Seg[r].Addr(0)), top.NodeOf(r); got != want {
			t.Errorf("rank %d segment homed on node %d, want %d", r, got, want)
		}
	}
}

func TestPutRemoteCostsMoreThanLocalNode(t *testing.T) {
	c := comm(t, 8) // 4 nodes
	sym := NewSym[uint32](c, "b", 4096)
	res := mustRun(t, c.Machine(), func(p *machine.Proc) {
		switch p.ID {
		case 0:
			sym.Put(p, 1, 0, 0, 4096) // rank 1 shares node 0
		case 4:
			sym.Put(p, 7, 0, 0, 4096) // ranks 4,7 on different nodes
		}
	})
	sameNode := res.PerProc[0].Breakdown.Total()
	crossNode := res.PerProc[4].Breakdown.Total()
	if sameNode >= crossNode {
		t.Errorf("same-node put (%v) should be cheaper than cross-node (%v)", sameNode, crossNode)
	}
}

// TestScaledDividesFixedCosts: a context pays the library's full-size
// fixed costs on the full-size machine, and the scaled machine divides
// them by its scale.
func TestScaledDividesFixedCosts(t *testing.T) {
	m, err := machine.New(machine.Origin2000(2))
	if err != nil {
		t.Fatal(err)
	}
	full, scaled := New(m), comm(t, 2)
	if full.getNs != GetOverheadNs || full.putNs != putOverheadNs || full.entryNs != CollectiveEntryNs {
		t.Errorf("full size: get %v, put %v, entry %v", full.getNs, full.putNs, full.entryNs)
	}
	if full.getNs/scaled.getNs != machine.ScaleFactor || full.putNs/scaled.putNs != machine.ScaleFactor ||
		full.entryNs/scaled.entryNs != machine.ScaleFactor {
		t.Errorf("scaled: get %v, put %v, entry %v", scaled.getNs, scaled.putNs, scaled.entryNs)
	}
}

func TestGetFromSameNodeRankIsLocal(t *testing.T) {
	c := comm(t, 4)
	sym := NewSym[uint32](c, "l", 256)
	res := mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 0 {
			sym.Get(p, 0, 1, 0, 256) // rank 1 shares node 0
		}
	})
	if res.PerProc[0].Breakdown.RMem != 0 {
		t.Errorf("same-node get charged RMem %v", res.PerProc[0].Breakdown.RMem)
	}
	if res.PerProc[0].Breakdown.LMem == 0 {
		t.Error("same-node get charged nothing")
	}
}
