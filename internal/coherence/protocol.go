// Package coherence implements a directory-based invalidation protocol
// engine in the style of the SGI Origin2000's coherence protocol.
//
// The engine has two layers:
//
//   - Protocol walks the protocol state machine for one transaction
//     (read, read-exclusive, upgrade, writeback) given the directory
//     state, and returns the network messages exchanged, the critical-path
//     latency, and the new directory state. Latencies come from the
//     machine topology; invalidations fan out in parallel and are gathered
//     as acknowledgements, as on the Origin2000.
//
//   - Directory tracks per-line sharing state so the protocol can be
//     driven transaction-by-transaction; the machine simulator uses it to
//     derive the per-access-class costs it charges, and the unit tests use
//     it to verify protocol invariants (single writer, no stale sharers).
package coherence

import (
	"fmt"

	"repro/internal/topology"
)

// DirState is the directory's view of one line.
type DirState int

const (
	// Unowned means no cache holds the line; memory is up to date.
	Unowned DirState = iota
	// Shared means one or more caches hold read-only copies.
	Shared
	// Exclusive means exactly one cache holds the line, possibly dirty.
	Exclusive
)

// String returns the conventional name of the state.
func (s DirState) String() string {
	switch s {
	case Unowned:
		return "Unowned"
	case Shared:
		return "Shared"
	case Exclusive:
		return "Exclusive"
	default:
		return fmt.Sprintf("DirState(%d)", int(s))
	}
}

// The protocol's fixed costs, one value on the Origin2000.
const (
	// CtrlBytes is the size of a control message (request, intervention,
	// invalidation, acknowledgement) on the wire, including headers.
	CtrlBytes = 16
	// DirOccupancy is the directory/memory-controller occupancy charged
	// once per transaction at the home node (ns).
	DirOccupancy float64 = 40
)

// Protocol prices coherence transactions on a given topology.
type Protocol struct {
	top       topology.Network
	dataBytes int
}

// NewProtocol builds a protocol engine for lineSize-byte cache lines.
func NewProtocol(top topology.Network, lineSize int) *Protocol {
	return &Protocol{top: top, dataBytes: lineSize + CtrlBytes}
}

// DataBytes is the size of a data-carrying message: one cache line plus
// a control header.
func (p *Protocol) DataBytes() int { return p.dataBytes }

// Result describes one priced transaction.
type Result struct {
	// Latency is the critical-path latency in nanoseconds.
	Latency float64
	// Messages is the total number of network messages exchanged.
	Messages int
	// TrafficBytes is the total bytes moved, across all messages.
	TrafficBytes int
	// NewState is the directory state after the transaction.
	NewState DirState
}

// msg prices one network message between two nodes: the topology's
// uncontended point-to-point latency plus wire time for the payload.
func (p *Protocol) msg(from, to, bytes int) float64 {
	lat := p.top.ReadLatency(from, to)
	if from == to {
		// Same-node controller-to-controller traffic: the topology's local
		// latency already covers the memory access; transfers stay on-node.
		lat = topology.LocalLatency
	}
	return lat + topology.TransferTime(bytes)
}

// Read prices a read miss by requester (node id) for a line homed at
// home, given directory state st, current owner (valid for Exclusive),
// and current sharer nodes (valid for Shared).
func (p *Protocol) Read(requester, home, owner int, st DirState, sharers []int) Result {
	switch st {
	case Unowned, Shared:
		// Two-hop: request to home, data reply. The topology latency for
		// (requester, home) already includes the memory access time, so
		// the transaction is one request/response pair plus directory
		// occupancy.
		lat := p.msg(requester, home, CtrlBytes) +
			DirOccupancy +
			topology.TransferTime(p.dataBytes)
		newState := Shared
		if st == Unowned {
			// The Origin grants an exclusive (clean) copy to the first
			// reader so a later write by the same processor needs no
			// further traffic.
			newState = Exclusive
		}
		return Result{
			Latency:      lat,
			Messages:     2,
			TrafficBytes: CtrlBytes + p.dataBytes,
			NewState:     newState,
		}
	case Exclusive:
		if owner == requester {
			// Should have hit in cache; price as a local re-fetch.
			return Result{
				Latency:      DirOccupancy,
				Messages:     0,
				TrafficBytes: 0,
				NewState:     Exclusive,
			}
		}
		// Three-hop: request to home, intervention to owner, data from
		// owner to requester (plus a sharing writeback owner->home off the
		// critical path).
		lat := p.msg(requester, home, CtrlBytes) +
			DirOccupancy +
			p.msg(home, owner, CtrlBytes) +
			p.msg(owner, requester, p.dataBytes)
		return Result{
			Latency:      lat,
			Messages:     4,
			TrafficBytes: 2*CtrlBytes + 2*p.dataBytes,
			NewState:     Shared,
		}
	default:
		panic(fmt.Sprintf("coherence: bad directory state %v", st))
	}
}

// Write prices a write miss (read-exclusive) by requester for a line
// homed at home, given directory state st, owner, and sharers.
func (p *Protocol) Write(requester, home, owner int, st DirState, sharers []int) Result {
	switch st {
	case Unowned:
		lat := p.msg(requester, home, CtrlBytes) +
			DirOccupancy +
			topology.TransferTime(p.dataBytes)
		return Result{
			Latency:      lat,
			Messages:     2,
			TrafficBytes: CtrlBytes + p.dataBytes,
			NewState:     Exclusive,
		}
	case Shared:
		// Request to home; home sends data to requester and invalidations
		// to all sharers in parallel; sharers ack to the requester. The
		// critical path is the request plus the slower of the data reply
		// and the slowest invalidate/ack chain.
		reqLat := p.msg(requester, home, CtrlBytes) + DirOccupancy
		dataLat := topology.TransferTime(p.dataBytes)
		invalLat := 0.0
		nInval := 0
		traffic := CtrlBytes + p.dataBytes
		for _, s := range sharers {
			if s == requester {
				continue
			}
			nInval++
			chain := p.msg(home, s, CtrlBytes) + p.msg(s, requester, CtrlBytes)
			if chain > invalLat {
				invalLat = chain
			}
			traffic += 2 * CtrlBytes
		}
		lat := reqLat + max(dataLat, invalLat)
		return Result{
			Latency:      lat,
			Messages:     2 + 2*nInval,
			TrafficBytes: traffic,
			NewState:     Exclusive,
		}
	case Exclusive:
		if owner == requester {
			return Result{Latency: DirOccupancy, NewState: Exclusive}
		}
		// Three-hop ownership transfer: request to home, intervention to
		// owner, data+ownership from owner to requester.
		lat := p.msg(requester, home, CtrlBytes) +
			DirOccupancy +
			p.msg(home, owner, CtrlBytes) +
			p.msg(owner, requester, p.dataBytes)
		return Result{
			Latency:      lat,
			Messages:     4,
			TrafficBytes: 2*CtrlBytes + p.dataBytes + CtrlBytes,
			NewState:     Exclusive,
		}
	default:
		panic(fmt.Sprintf("coherence: bad directory state %v", st))
	}
}

// Upgrade prices a write hit on a Shared line held by requester: no data
// transfer, only invalidations of the other sharers.
func (p *Protocol) Upgrade(requester, home int, sharers []int) Result {
	reqLat := p.msg(requester, home, CtrlBytes) + DirOccupancy
	invalLat := 0.0
	nInval := 0
	traffic := CtrlBytes
	for _, s := range sharers {
		if s == requester {
			continue
		}
		nInval++
		chain := p.msg(home, s, CtrlBytes) + p.msg(s, requester, CtrlBytes)
		if chain > invalLat {
			invalLat = chain
		}
		traffic += 2 * CtrlBytes
	}
	// Home's grant to the requester when there are no sharers to await.
	grant := topology.TransferTime(CtrlBytes)
	return Result{
		Latency:      reqLat + max(grant, invalLat),
		Messages:     2 + 2*nInval,
		TrafficBytes: traffic + CtrlBytes,
		NewState:     Exclusive,
	}
}

// Writeback prices a dirty line's eviction from owner back to home.
func (p *Protocol) Writeback(owner, home int) Result {
	lat := p.msg(owner, home, p.dataBytes) + DirOccupancy
	return Result{
		Latency:      lat,
		Messages:     2, // data + ack
		TrafficBytes: p.dataBytes + CtrlBytes,
		NewState:     Unowned,
	}
}
