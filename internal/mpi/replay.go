package mpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// rankState is one rank's position in the phase being replayed.
type rankState struct {
	// prog is nil once the rank's program has ended.
	prog Program
	// st is the rank's next step when pending: produced by prog.Next (so
	// whatever precedes it is charged) and not yet executed.
	st      Step
	pending bool
}

// flight is one message between its send and the moment it leaves the
// pair's window.
type flight struct {
	// at is when the message becomes receivable and, once received, when
	// the receiver finished the receive — which is when a sender stalled
	// on the window may reuse the slot.
	at  float64
	msg Message
}

// pairState is the FIFO of one ordered pair of ranks: q is a ring (its
// length a power of two, at most the first one ≥ BufDepth) indexed by
// the low bits of three counters. Messages [head, next) are received but
// still hold their window slot — a slot is only reclaimed by the send
// that needs it, as the time it was freed is a wait the sender may have
// to make — and [next, tail) are posted and not yet received. The state
// outlives the phase: a window filled in one phase stalls the next.
type pairState struct {
	q                []flight
	head, next, tail uint32
}

func (ps *pairState) slot(i uint32) *flight { return &ps.q[i&uint32(len(ps.q)-1)] }

// push appends a message, doubling a full ring.
func (ps *pairState) push() *flight {
	if n := uint32(len(ps.q)); ps.tail-ps.head == n {
		q := make([]flight, max(1, 2*n))
		for i := ps.head; i != ps.tail; i++ {
			q[i&uint32(len(q)-1)] = *ps.slot(i)
		}
		ps.q = q
	}
	f := ps.slot(ps.tail)
	ps.tail++
	return f
}

// replay runs the phase every rank has handed in: rank-order sweeps,
// each advancing every rank for as long as its next step is enabled. A
// rank's steps run in its program order on its own Proc and see only
// times its own program and its messages produced, so neither the sweep
// order nor the goroutine replay runs on can show in the simulation.
func (c *Comm) replay() {
	cur := -1 // the rank whose step is running
	defer func() {
		if r := recover(); r != nil {
			if cur >= 0 {
				r = machine.Blame{Proc: cur, Value: r}
			}
			panic(r)
		}
	}()
	for left := len(c.ranks); left > 0; {
		progress := false
		for r := range c.ranks {
			rs := &c.ranks[r]
			if rs.prog == nil {
				continue
			}
			cur = r
			p := c.m.Proc(r)
			for {
				if !rs.pending {
					if !rs.prog.Next(p, &rs.st) {
						rs.prog = nil
						left--
						progress = true
						break
					}
					rs.pending = true
				}
				if !c.step(p, rs) {
					break
				}
				rs.pending = false
				progress = true
			}
		}
		cur = -1
		if !progress {
			panic(c.stranded())
		}
	}
	if c.unreceived != 0 {
		panic(c.unmatched())
	}
}

// step executes rank p's pending step if it is enabled: a receive when
// the message is posted, a send when the pair's window has room or the
// time its oldest slot was freed is known.
func (c *Comm) step(p *machine.Proc, rs *rankState) bool {
	st := &rs.st
	if st.Peer == p.ID {
		if st.Recv {
			panic(fmt.Sprintf("mpi: rank %d receiving from itself", p.ID))
		}
		panic(fmt.Sprintf("mpi: rank %d sending to itself", p.ID))
	}
	if st.Peer < 0 || st.Peer >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d names peer %d of %d ranks", p.ID, st.Peer, len(c.ranks)))
	}
	if st.Recv {
		row := c.mail[st.Peer]
		if row == nil || row[p.ID].next == row[p.ID].tail {
			return false
		}
		c.recv(p, &row[p.ID], rs)
		return true
	}
	row := c.mail[p.ID]
	if row == nil {
		row = make([]pairState, len(c.ranks))
		c.mail[p.ID] = row
	}
	ps := &row[st.Peer]
	if c.windowFull(ps) && ps.head == ps.next {
		return false
	}
	c.send(p, ps, st)
	return true
}

func (c *Comm) windowFull(ps *pairState) bool { return int(ps.tail-ps.head) >= c.cfg.BufDepth }

// send is everything a blocking MPI_Send does on the sender.
func (c *Comm) send(p *machine.Proc, ps *pairState, st *Step) {
	dst, bytes := st.Peer, st.Bytes
	sendStart := p.Now()
	p.ComputeNs(c.overheadNs)

	// Flow control: wait for the window's oldest message to be consumed.
	// A window holds at most BufDepth messages, so one slot is enough.
	stallStart := p.Now()
	if c.windowFull(ps) {
		p.WaitUntil(ps.slot(ps.head).at)
		ps.head++
	}
	if stalled := p.Now() - stallStart; stalled > 0 {
		p.TraceEvent(trace.EvFlowStall, dst, bytes, stalled)
	}

	dstNode := c.top.NodeOf(dst)
	if bytes > 0 {
		// Direct: the sender itself streams the data into the receiver's
		// memory at wire speed. Staged: the sender copies into a staging
		// buffer in the shared address space near the receiver — an
		// uncached PIO-rate copy across the network, which is exactly the
		// overhead the paper blames for the vendor MPI's performance (the
		// receiver copies out again in recv).
		xfer := topology.TransferTime(bytes)
		if c.cfg.Engine == Staged {
			xfer = float64(bytes) * stagedCopyNsPerByte
		}
		if dstNode == p.Node {
			p.LocalMemNs(topology.LocalLatency + xfer)
		} else {
			p.RemoteMemNs(c.top.ReadLatency(p.Node, dstNode) + xfer)
		}
	}
	availAt := p.Now() + c.deliveryNs
	remoteBytes := 0
	if dstNode != p.Node {
		remoteBytes = bytes
	}
	p.AddMessageTraffic(remoteBytes, 1)
	p.TraceEvent(trace.EvSend, dst, bytes, p.Now()-sendStart)

	f := ps.push()
	f.at = availAt
	f.msg = Message{Src: p.ID, Tag: st.Tag, Payload: st.Payload, Bytes: bytes}
	c.unreceived++
}

// recv is everything a blocking MPI_Recv does on the receiver, blocking
// (in virtual time) until the message is available, followed by the
// program's own placement of it.
func (c *Comm) recv(p *machine.Proc, ps *pairState, rs *rankState) {
	f := ps.slot(ps.next)
	src, bytes := rs.st.Peer, f.msg.Bytes
	recvStart := p.Now()
	p.WaitUntil(f.at)
	if waited := p.Now() - recvStart; waited > 0 {
		p.TraceEvent(trace.EvMsgWait, src, bytes, waited)
	}
	p.ComputeNs(c.overheadNs)
	if c.cfg.Engine == Staged && bytes > 0 {
		// Copy out of the library buffer into the application buffer.
		p.LocalMemNs(float64(float64(bytes) * stagedCopyNsPerByte))
	}
	if rs.st.DstBytes > 0 {
		p.InvalidateRange(rs.st.Addr, rs.st.DstBytes)
	}
	p.TraceEvent(trace.EvRecv, src, bytes, p.Now()-recvStart)
	f.at = p.Now()
	ps.next++
	c.unreceived--
	rs.prog.Deliver(p, &f.msg)
	f.msg.Payload = nil // the slot may sit in the window for long
}

// stranded names the ranks a sweep could not advance and the step each
// waits at.
func (c *Comm) stranded() *machine.StrandedError {
	e := &machine.StrandedError{}
	for r := range c.ranks {
		if rs := &c.ranks[r]; rs.prog != nil {
			at := fmt.Sprintf("send→%d (window full)", rs.st.Peer)
			if rs.st.Recv {
				at = fmt.Sprintf("recv←%d", rs.st.Peer)
			}
			e.Parked = append(e.Parked, machine.Parked{Proc: r, At: at, Phase: c.m.Proc(r).Phase()})
		}
	}
	return e
}

// unmatched names the first message the phase sent and never received.
func (c *Comm) unmatched() string {
	for src, row := range c.mail {
		for dst := range row {
			if ps := &row[dst]; ps.next != ps.tail {
				return fmt.Sprintf("mpi: %d messages were not received in the phase that sent them, the first from rank %d to rank %d",
					c.unreceived, src, dst)
			}
		}
	}
	return fmt.Sprintf("mpi: unreceived count %d with empty mailboxes", c.unreceived)
}
