package machine

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/topology"
)

// This file implements the memoized coherence pricing table (ISSUE 4).
//
// Every charge missCharge ever computes is a pure function of a small
// tuple — (Sharing class, read/write, requester node, home node) — plus
// the run-constant topology and protocol parameters, so the whole price
// matrix is computed once at Machine.New by calling the live
// coherence.Protocol, and the per-miss hot path becomes one slice
// lookup. coherence.Protocol remains the reference oracle:
// TestPriceTableMatchesProtocol replays every entry against it.

// overlap indexes a priceEntry's latencies: a scattered dependent
// access pays a miss's full latency, a streamed one 1/MissOverlap of it.
type overlap uint8

const (
	scattered overlap = iota
	streamed
)

// priceEntry is one precomputed coherence charge.
type priceEntry struct {
	// ps is the transaction's critical-path latency in picoseconds at
	// each overlap, converted once from the protocol's nanoseconds.
	ps [2]int64
	// trafficBytes is added to Traffic.RemoteBytes when remote is true.
	trafficBytes int64
	// remote selects chargeRemote (contention-scaled RMEM) vs an
	// unscaled LMEM charge.
	remote bool
}

// numPriceClasses is one row pair (read, write) per Sharing class.
const numPriceClasses = 2 * (int(DirtyElsewhere) + 1)

// priceClass maps (sharing class, write) to a row index.
func priceClass(sh Sharing, write bool) int {
	i := int(sh) * 2
	if write {
		i++
	}
	return i
}

// priceTable holds the precomputed charges, memoized per topology
// distance class rather than per (requester, home) node pair: every
// charge below depends on the pair only through quantities the Network
// contract guarantees are constant within a distance class (ReadLatency,
// the remote/local split, and run-constant scalars), so one entry per
// class is exact and the memo stays O(classes) — not O(nodes²) — on
// 128–1024-proc machines. The pair→class map the hot path indexes
// through is the network's own (topology.Network.ClassRow). Immutable
// after construction and shared by all processors.
type priceTable struct {
	// miss[class][distanceClass] prices one cache miss.
	miss [numPriceClasses][]priceEntry
	// writeback[distanceClass] prices one dirty-line eviction
	// (directory occupancy plus wire time; the round-trip latency is
	// off the processor's critical path).
	writeback []priceEntry
}

// priceFor computes one miss charge by walking the live protocol
// engine: the single source of truth shared by newPriceTable (which
// memoizes it over every combination at Machine.New) and by paranoid
// mode (which recomputes it per miss and compares against the memoized
// entry the hot path read).
func priceFor(top topology.Network, proto *coherence.Protocol, sh Sharing, write bool, req, home int) priceEntry {
	remote := home != req
	mk := func(res coherence.Result) priceEntry {
		return priceEntry{
			ps:           latencyPs(res.Latency),
			trafficBytes: int64(res.TrafficBytes),
			remote:       remote,
		}
	}
	switch sh {
	case Private:
		if write {
			return mk(proto.Write(req, home, -1, coherence.Unowned, nil))
		}
		return mk(proto.Read(req, home, -1, coherence.Unowned, nil))
	case RemoteProduced:
		if write {
			return mk(proto.Write(req, home, home, coherence.Exclusive, nil))
		}
		return mk(proto.Read(req, home, home, coherence.Exclusive, nil))
	case SharedRead:
		if write {
			return mk(proto.Write(req, home, -1, coherence.Shared, []int{home}))
		}
		return mk(proto.Read(req, home, -1, coherence.Shared, nil))
	case ConflictWrite:
		// missCharge prices ConflictWrite as an ownership transfer for
		// loads and stores alike.
		return mk(proto.Write(req, home, home, coherence.Exclusive, nil))
	case DirtyElsewhere:
		// Three-hop transaction whose owner legs run at the machine's
		// average remote latency; remote-charged even when home is the
		// local node.
		avg := top.AverageReadLatency()
		return priceEntry{
			ps: latencyPs(top.ReadLatency(req, home) + coherence.DirOccupancy +
				avg + avg + topology.TransferTime(proto.DataBytes())),
			trafficBytes: int64(2*coherence.CtrlBytes + 2*proto.DataBytes()),
			remote:       true,
		}
	default:
		panic(fmt.Sprintf("machine: priceFor of invalid sharing class %d", int(sh)))
	}
}

// wbPriceFor computes one writeback charge (directory occupancy plus
// wire time; the round-trip latency is off the processor's critical
// path), shared by newPriceTable and the paranoid oracle like priceFor.
func wbPriceFor(proto *coherence.Protocol, owner, home int) priceEntry {
	if home == owner {
		return priceEntry{ps: latencyPs(coherence.DirOccupancy)}
	}
	wb := proto.Writeback(owner, home)
	return priceEntry{
		ps:           latencyPs(coherence.DirOccupancy + topology.TransferTime(wb.TrafficBytes)),
		trafficBytes: int64(wb.TrafficBytes),
		remote:       true,
	}
}

// latencyPs converts a latency of ns nanoseconds to a priceEntry's
// picoseconds at each overlap.
func latencyPs(ns float64) [2]int64 { return [2]int64{psOf(ns), psOf(ns / MissOverlap)} }

// newPriceTable builds the table by driving the live protocol engine
// through the first (requester, home) pair of each distance class in
// requester-major scan order (the charges are class-constant; see
// priceTable).
func newPriceTable(top topology.Network, proto *coherence.Protocol) *priceTable {
	classes := top.NumDistanceClasses()
	pt := &priceTable{writeback: make([]priceEntry, classes)}
	for c := range pt.miss {
		pt.miss[c] = make([]priceEntry, classes)
	}
	filled := make([]bool, classes)
	for req := 0; req < top.Nodes(); req++ {
		for home, dc := range top.ClassRow(req) {
			if filled[dc] {
				continue
			}
			filled[dc] = true
			for _, sh := range []Sharing{Private, RemoteProduced, SharedRead, ConflictWrite, DirtyElsewhere} {
				for _, write := range []bool{false, true} {
					pt.miss[priceClass(sh, write)][dc] = priceFor(top, proto, sh, write, req, home)
				}
			}
			pt.writeback[dc] = wbPriceFor(proto, req, home)
		}
	}
	return pt
}

// CorruptPriceEntryForTest adds deltaNs to the memoized latency of one
// miss entry, leaving the live protocol untouched. The paranoid mutation
// tests use it to prove the differential oracle detects a fast-path
// pricing corruption; it must never be called outside tests.
func (m *Machine) CorruptPriceEntryForTest(sh Sharing, write bool, requesterNode, home int, deltaNs float64) {
	e := &m.prices.miss[priceClass(sh, write)][m.top.DistanceClass(requesterNode, home)]
	e.ps = latencyPs(nsOf(e.ps[scattered]) + deltaNs)
}
