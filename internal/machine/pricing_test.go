package machine

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/topology"
)

// allSharings lists every Sharing class. The length check in
// TestPriceTableMatchesProtocol ties it to numPriceClasses, so adding a
// class without extending the pricing table (and this test) fails.
var allSharings = []Sharing{Private, RemoteProduced, SharedRead, ConflictWrite, DirtyElsewhere}

// TestPriceTableMatchesProtocol replays every pricing-table entry
// against the live coherence.Protocol, reproducing the legacy
// per-miss switch term for term. Comparisons are exact (==): the table
// must charge bit-identical floats, or simulated virtual times drift.
// It covers 100% of the Sharing classes and every (requester, home)
// node pair at 1-, 4-, 16- and 64-processor topologies.
//
// Protocol.Upgrade has no pricing-table row because missCharge never
// issued it: a store to SharedRead data is priced as a full Write with
// the home as sharer (the row checked here), matching the legacy
// switch.
func TestPriceTableMatchesProtocol(t *testing.T) {
	if len(allSharings)*2 != numPriceClasses {
		t.Fatalf("allSharings covers %d rows, pricing table has %d",
			len(allSharings)*2, numPriceClasses)
	}
	for _, procs := range []int{1, 4, 16, 64} {
		m := testMachine(t, procs)
		top := m.top
		proto := m.proto
		n := top.Nodes()
		avg := top.AverageReadLatency()
		for req := 0; req < n; req++ {
			for home := 0; home < n; home++ {
				remote := home != req
				for _, sh := range allSharings {
					for _, write := range []bool{false, true} {
						// The legacy missCharge transaction for this class.
						var res coherence.Result
						switch sh {
						case Private:
							if write {
								res = proto.Write(req, home, -1, coherence.Unowned, nil)
							} else {
								res = proto.Read(req, home, -1, coherence.Unowned, nil)
							}
						case RemoteProduced:
							if write {
								res = proto.Write(req, home, home, coherence.Exclusive, nil)
							} else {
								res = proto.Read(req, home, home, coherence.Exclusive, nil)
							}
						case SharedRead:
							if write {
								res = proto.Write(req, home, -1, coherence.Shared, []int{home})
							} else {
								res = proto.Read(req, home, -1, coherence.Shared, nil)
							}
						case ConflictWrite:
							res = proto.Write(req, home, home, coherence.Exclusive, nil)
						case DirtyElsewhere:
							res = coherence.Result{
								Latency: top.ReadLatency(req, home) + coherence.DirOccupancy +
									avg + avg + topology.TransferTime(proto.DataBytes()),
								TrafficBytes: 2*coherence.CtrlBytes + 2*proto.DataBytes(),
							}
						}
						wantRemote := remote || sh == DirtyElsewhere
						e := m.missEntry(sh, write, req, home)
						if want := [2]int64{psOf(res.Latency), psOf(res.Latency / MissOverlap)}; e.ps != want {
							t.Fatalf("procs=%d %v write=%v req=%d home=%d: latency %vps, protocol %vps",
								procs, sh, write, req, home, e.ps, want)
						}
						if e.remote != wantRemote {
							t.Fatalf("procs=%d %v write=%v req=%d home=%d: remote=%v, want %v",
								procs, sh, write, req, home, e.remote, wantRemote)
						}
						if wantRemote && e.trafficBytes != int64(res.TrafficBytes) {
							t.Fatalf("procs=%d %v write=%v req=%d home=%d: traffic %d, protocol %d",
								procs, sh, write, req, home, e.trafficBytes, res.TrafficBytes)
						}
					}
				}
				// Writeback row: legacy chargeWriteback arithmetic.
				wbe := m.writebackEntry(req, home)
				if !remote {
					if wbe.ps[scattered] != psOf(coherence.DirOccupancy) || wbe.remote {
						t.Fatalf("procs=%d writeback req=%d home=%d: got %+v, want local DirOccupancy",
							procs, req, home, wbe)
					}
				} else {
					wb := proto.Writeback(req, home)
					wantLat := coherence.DirOccupancy + topology.TransferTime(wb.TrafficBytes)
					if wbe.ps[scattered] != psOf(wantLat) || !wbe.remote || wbe.trafficBytes != int64(wb.TrafficBytes) {
						t.Fatalf("procs=%d writeback req=%d home=%d: got %+v, want latency %v traffic %d",
							procs, req, home, wbe, wantLat, wb.TrafficBytes)
					}
				}
			}
		}
	}
}

// missEntry returns the memoized charge for one miss (the hot path
// indexes the rows through Proc.classRow).
func (m *Machine) missEntry(sh Sharing, write bool, requester, home int) priceEntry {
	return m.prices.miss[priceClass(sh, write)][m.top.DistanceClass(requester, home)]
}

// writebackEntry returns the memoized charge for one dirty eviction.
func (m *Machine) writebackEntry(owner, home int) priceEntry {
	return m.prices.writeback[m.top.DistanceClass(owner, home)]
}
