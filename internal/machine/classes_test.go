package machine

import (
	"testing"

	"repro/internal/coherence"
)

// TestDeclaredClassesMatchLiveDirectory validates the central modeling
// shortcut (DESIGN.md §4): pricing misses by declared sharing class must
// agree with driving the live directory protocol through the same access
// sequence.
func TestDeclaredClassesMatchLiveDirectory(t *testing.T) {
	m := testMachine(t, 8)
	cfg := m.Config()
	proto := coherence.NewProtocol(m.Topology(), cfg.Cache.LineSize)

	// A line homed on node 2 (proc 4's node), previously written by its
	// owner, then read by proc 0 (node 0).
	arr := NewArrayOnProc[uint32](m, "line", 64, 4)
	addr := arr.Addr(0)
	line := uint64(addr) / uint64(cfg.Cache.LineSize)
	home := m.AddressSpace().HomeOf(addr)

	dir := coherence.NewDirectory(proto, func(uint64) int { return home })
	// Owner (node 2) writes: Unowned -> Exclusive.
	dir.Write(2, line)
	// Reader on node 0: 3-hop intervention.
	want := dir.Read(0, line)

	var got float64
	mustRun(t, m, func(p *Proc) {
		switch p.ID {
		case 4:
			store(p, arr, 0, 7, Private)
		case 0:
			m.Barrier(p)
			before := p.Stats().Breakdown.RMem
			arr.Load(p, 0, RemoteProduced)
			got = p.Stats().Breakdown.RMem - before
		}
		if p.ID != 0 {
			m.Barrier(p)
		}
	})
	if diff := got - want.Latency; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("declared-class charge %v != live-directory charge %v", got, want.Latency)
	}
}

// TestDeclaredWriteMatchesOwnershipTransfer does the same for the
// ConflictWrite class: writing into a partition whose owner caches it.
func TestDeclaredWriteMatchesOwnershipTransfer(t *testing.T) {
	m := testMachine(t, 8)
	cfg := m.Config()
	proto := coherence.NewProtocol(m.Topology(), cfg.Cache.LineSize)

	arr := NewArrayOnProc[uint32](m, "wline", 64, 6) // homed on node 3
	addr := arr.Addr(0)
	home := m.AddressSpace().HomeOf(addr)

	// Live protocol: requester node 0, line Exclusive at its home node.
	want := proto.Write(0, home, home, coherence.Exclusive, nil)

	var got float64
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		before := p.Stats().Breakdown.RMem
		arr.Load(p, 0, Private) // fill... (read first so the write below is a write hit?)
		_ = before
		// Use a distinct line for the pure write-miss measurement.
		before = p.Stats().Breakdown.RMem
		store(p, arr, 32, 1, ConflictWrite) // second cache line of the array
		got = p.Stats().Breakdown.RMem - before
	})
	// Stores post through the write buffer: the charge is the protocol
	// latency divided by the machine's miss overlap.
	wantNs := want.Latency / MissOverlap
	if diff := got - wantNs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("ConflictWrite charge %v != ownership-transfer charge %v (latency %v / overlap %v)",
			got, wantNs, want.Latency, MissOverlap)
	}
}
