package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func testTopo(t *testing.T) topology.Network {
	t.Helper()
	top, err := topology.New(topology.Config{Processors: 64, ProcsPerNode: 2})
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return top
}

func testProto(t *testing.T) *Protocol {
	t.Helper()
	return NewProtocol(testTopo(t), 128)
}

func TestReadUnownedLocal(t *testing.T) {
	p := testProto(t)
	res := p.Read(0, 0, -1, Unowned, nil)
	// Local fill: local latency + occupancy + data wire time.
	want := 313 + 16/0.8 + 40 + 144/0.8
	if !close(res.Latency, want) {
		t.Errorf("latency = %v, want %v", res.Latency, want)
	}
	if res.NewState != Exclusive {
		t.Errorf("new state = %v, want Exclusive (Origin grants exclusive to first reader)", res.NewState)
	}
	if res.Messages != 2 {
		t.Errorf("messages = %d, want 2", res.Messages)
	}
}

func TestReadUnownedRemoteCostsMore(t *testing.T) {
	p := testProto(t)
	local := p.Read(0, 0, -1, Unowned, nil)
	oneHop := p.Read(0, 2, -1, Unowned, nil)   // node 2: router 1, 1 hop
	fourHop := p.Read(0, 30, -1, Unowned, nil) // node 30: router 15, 4 hops
	if !(local.Latency < oneHop.Latency && oneHop.Latency < fourHop.Latency) {
		t.Errorf("latencies not monotone in distance: %v, %v, %v",
			local.Latency, oneHop.Latency, fourHop.Latency)
	}
}

func TestReadDirtyRemoteIsThreeHop(t *testing.T) {
	p := testProto(t)
	// Line homed at node 4, dirty in node 8's cache, read by node 0.
	threeHop := p.Read(0, 4, 8, Exclusive, nil)
	twoHop := p.Read(0, 4, -1, Unowned, nil)
	if threeHop.Latency <= twoHop.Latency {
		t.Errorf("3-hop read (%v) should cost more than 2-hop (%v)",
			threeHop.Latency, twoHop.Latency)
	}
	if threeHop.Messages != 4 {
		t.Errorf("3-hop read messages = %d, want 4", threeHop.Messages)
	}
	if threeHop.NewState != Shared {
		t.Errorf("3-hop read new state = %v, want Shared", threeHop.NewState)
	}
}

func TestReadOwnLineCheap(t *testing.T) {
	p := testProto(t)
	res := p.Read(3, 5, 3, Exclusive, nil)
	if res.Latency != 40 {
		t.Errorf("re-read of own exclusive line latency = %v, want just occupancy 40", res.Latency)
	}
	if res.Messages != 0 {
		t.Errorf("messages = %d, want 0", res.Messages)
	}
}

func TestWriteSharedInvalidations(t *testing.T) {
	p := testProto(t)
	none := p.Write(0, 4, -1, Unowned, nil)
	one := p.Write(0, 4, -1, Shared, []int{9})
	three := p.Write(0, 4, -1, Shared, []int{9, 17, 30})
	if !(none.Latency < one.Latency) {
		t.Errorf("write with 1 invalidation (%v) should cost more than none (%v)",
			one.Latency, none.Latency)
	}
	if one.Latency > three.Latency {
		t.Errorf("write with 3 invalidations (%v) should cost at least as much as 1 (%v)",
			three.Latency, one.Latency)
	}
	if three.Messages != 2+2*3 {
		t.Errorf("messages = %d, want 8", three.Messages)
	}
	if three.NewState != Exclusive {
		t.Errorf("new state = %v, want Exclusive", three.NewState)
	}
}

func TestWriteSharedRequesterAmongSharersNotInvalidated(t *testing.T) {
	p := testProto(t)
	res := p.Write(0, 4, -1, Shared, []int{0})
	if res.Messages != 2 {
		t.Errorf("requester-only sharer should need no invalidations; messages = %d, want 2", res.Messages)
	}
}

func TestWriteExclusiveTransfer(t *testing.T) {
	p := testProto(t)
	res := p.Write(0, 4, 8, Exclusive, nil)
	if res.NewState != Exclusive {
		t.Errorf("new state = %v, want Exclusive", res.NewState)
	}
	twoHop := p.Write(0, 4, -1, Unowned, nil)
	if res.Latency <= twoHop.Latency {
		t.Errorf("ownership transfer (%v) should cost more than unowned write (%v)",
			res.Latency, twoHop.Latency)
	}
}

func TestUpgradeCheaperThanWriteMiss(t *testing.T) {
	p := testProto(t)
	up := p.Upgrade(0, 4, []int{0, 9})
	miss := p.Write(0, 4, -1, Shared, []int{9})
	if up.Latency > miss.Latency {
		t.Errorf("upgrade (%v) should not cost more than a full write miss (%v)",
			up.Latency, miss.Latency)
	}
	if up.TrafficBytes >= miss.TrafficBytes {
		t.Errorf("upgrade traffic (%d) should be less than write-miss traffic (%d): no data transfer",
			up.TrafficBytes, miss.TrafficBytes)
	}
}

func TestWritebackCost(t *testing.T) {
	p := testProto(t)
	local := p.Writeback(4, 4)
	remote := p.Writeback(4, 30)
	if local.Latency >= remote.Latency {
		t.Errorf("local writeback (%v) should be cheaper than remote (%v)",
			local.Latency, remote.Latency)
	}
	if remote.NewState != Unowned {
		t.Errorf("writeback new state = %v, want Unowned", remote.NewState)
	}
}

func TestLatencyAlwaysPositive(t *testing.T) {
	p := testProto(t)
	f := func(req, home, owner uint8, st uint8, nSharers uint8) bool {
		r := int(req) % 32
		h := int(home) % 32
		o := int(owner) % 32
		state := DirState(int(st) % 3)
		if state == Exclusive && o == r {
			// own-line re-access has occupancy-only latency; still positive
		}
		sharers := make([]int, int(nSharers)%8)
		for i := range sharers {
			sharers[i] = (h + i + 1) % 32
		}
		read := p.Read(r, h, o, state, sharers)
		write := p.Write(r, h, o, state, sharers)
		return read.Latency > 0 && write.Latency > 0 &&
			read.TrafficBytes >= 0 && write.TrafficBytes >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6
}
