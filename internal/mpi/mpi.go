// Package mpi implements a message-passing library on the simulated
// machine, with the two implementations the paper compares:
//
//   - Direct — the authors' "impure" MPICH variant (NEW): the sender
//     copies data straight into the receiver's address space, with a
//     shallow per-pair flow-control window (1-deep by default) whose
//     stalls show up as SYNC time, exactly as §4.2 of the paper observes.
//
//   - Staged — vendor-style pure message passing (SGI MPT): every
//     transfer is staged through a library buffer, costing an extra copy
//     at each end and a higher per-message overhead, but with deep
//     buffering (fully asynchronous sends).
//
// Collectives (Barrier, Allgather) are built from the point-to-point
// primitives so their costs emerge from the same model.
package mpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Engine selects the library implementation.
type Engine int

const (
	// Direct is the authors' improved MPICH ("NEW").
	Direct Engine = iota
	// Staged is the vendor-style staged-copy implementation ("SGI").
	Staged
)

// String returns the label the paper's figures use.
func (e Engine) String() string {
	switch e {
	case Direct:
		return "NEW"
	case Staged:
		return "SGI"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Config sets the library's cost constants.
type Config struct {
	// Engine selects Direct or Staged.
	Engine Engine
	// BufDepth is the per-pair window of in-flight messages. The Direct
	// implementation uses 1-deep lock-free buffers (a sender of several
	// consecutive messages to one destination must wait for each to be
	// received); Staged uses deep library buffering.
	BufDepth int
	// SendOverheadNs / RecvOverheadNs are the fixed per-message CPU costs.
	SendOverheadNs float64
	RecvOverheadNs float64
	// CopyNsPerByte is the staging-copy cost per byte, paid at BOTH ends
	// by the Staged engine and not at all by Direct.
	CopyNsPerByte float64
	// DeliveryNs is the fixed wire/protocol latency from send completion
	// to receivability.
	DeliveryNs float64
}

// DefaultDirect returns the NEW implementation's constants.
func DefaultDirect() Config {
	return Config{
		Engine:         Direct,
		BufDepth:       1,
		SendOverheadNs: 4000,
		RecvOverheadNs: 4000,
		CopyNsPerByte:  0,
		DeliveryNs:     500,
	}
}

// DefaultStaged returns the SGI-style implementation's constants.
func DefaultStaged() Config {
	return Config{
		Engine:         Staged,
		BufDepth:       64,
		SendOverheadNs: 15000,
		RecvOverheadNs: 15000,
		CopyNsPerByte:  5.0,
		DeliveryNs:     500,
	}
}

// ConfigFor returns the default configuration for an engine.
func ConfigFor(e Engine) Config {
	if e == Staged {
		return DefaultStaged()
	}
	return DefaultDirect()
}

// Scaled divides the per-event fixed costs (overheads, delivery latency)
// by f, leaving per-byte costs untouched. A machine whose data sizes and
// cache are scaled down by f needs its fixed software costs scaled the
// same way to preserve the ratio of fixed to data-proportional work (see
// DESIGN.md §1).
func (c Config) Scaled(f float64) Config {
	c.SendOverheadNs /= f
	c.RecvOverheadNs /= f
	c.DeliveryNs /= f
	return c
}

// Message is one received message.
type Message struct {
	// Src is the sending rank.
	Src int
	// Tag is the sender-supplied tag (not matched on; delivered FIFO per
	// pair).
	Tag int
	// Payload is the sender's payload value.
	Payload any
	// Bytes is the payload's size for costing purposes.
	Bytes int

	availAt float64
	done    chan float64
}

type pairState struct {
	ch chan *Message
	// outstanding is the sender-side FIFO of messages not yet consumed;
	// only the sending processor's goroutine touches it.
	outstanding []*Message
}

// Comm is one MPI communicator over all the machine's processors.
type Comm struct {
	m    *machine.Machine
	cfg  Config
	mail [][]*pairState // [src][dst]
}

// New builds a communicator. cfg.BufDepth of 0 is replaced by 1.
func New(m *machine.Machine, cfg Config) *Comm {
	if cfg.BufDepth <= 0 {
		cfg.BufDepth = 1
	}
	n := m.Procs()
	mail := make([][]*pairState, n)
	for s := 0; s < n; s++ {
		mail[s] = make([]*pairState, n)
		for d := 0; d < n; d++ {
			// The Go channel is sized generously; logical flow control is
			// enforced via the outstanding window so that the stall time
			// is modeled in virtual time, not host scheduling.
			mail[s][d] = &pairState{ch: make(chan *Message, 4*cfg.BufDepth+4)}
		}
	}
	return &Comm{m: m, cfg: cfg, mail: mail}
}

// Machine returns the underlying machine.
func (c *Comm) Machine() *machine.Machine { return c.m }

// Config returns the library configuration.
func (c *Comm) Config() Config { return c.cfg }

// Ranks returns the communicator size.
func (c *Comm) Ranks() int { return c.m.Procs() }

// Barrier joins the machine-wide barrier.
func (c *Comm) Barrier(p *machine.Proc) { c.m.Barrier(p) }

// Send transmits payload (costed as bytes) from p to rank dst. The call
// returns when the library no longer needs the application buffer:
// after the remote copy for Direct, after the staging copy (plus any
// window stall) for Staged.
func (c *Comm) Send(p *machine.Proc, dst, tag int, payload any, bytes int) {
	if dst == p.ID {
		panic(fmt.Sprintf("mpi: rank %d sending to itself", dst))
	}
	ps := c.mail[p.ID][dst]
	sendStart := p.Now()
	p.ComputeNs(c.cfg.SendOverheadNs)

	// Flow control: wait for the window's oldest message to be consumed.
	stallStart := p.Now()
	for len(ps.outstanding) >= c.cfg.BufDepth {
		oldest := ps.outstanding[0]
		ps.outstanding = ps.outstanding[1:]
		t := <-oldest.done
		p.WaitUntil(t)
	}
	if stalled := p.Now() - stallStart; stalled > 0 {
		p.TraceEvent(trace.EvFlowStall, dst, bytes, stalled)
	}

	msg := &Message{Src: p.ID, Tag: tag, Payload: payload, Bytes: bytes,
		done: make(chan float64, 1)}
	top := c.m.Topology()
	dstNode := top.NodeOf(dst)
	if bytes > 0 {
		// Direct: the sender itself streams the data into the receiver's
		// memory at wire speed. Staged: the sender copies into a staging
		// buffer in the shared address space near the receiver — an
		// uncached PIO-rate copy across the network, which is exactly the
		// overhead the paper blames for the vendor MPI's performance (the
		// receiver copies out again in Recv).
		xfer := top.TransferTime(bytes)
		if c.cfg.Engine == Staged {
			xfer = float64(bytes) * c.cfg.CopyNsPerByte
		}
		if dstNode == p.Node {
			p.LocalMemNs(top.Config().LocalLatency + xfer)
		} else {
			p.RemoteMemNs(top.ReadLatency(p.Node, dstNode) + xfer)
		}
	}
	msg.availAt = p.Now() + c.cfg.DeliveryNs
	remoteBytes := 0
	if dstNode != p.Node {
		remoteBytes = bytes
	}
	p.AddMessageTraffic(remoteBytes, 1)
	p.TraceEvent(trace.EvSend, dst, bytes, p.Now()-sendStart)
	ps.outstanding = append(ps.outstanding, msg)
	ps.ch <- msg
}

// Recv receives the next message from rank src, blocking (in virtual
// time) until it is available. dstAddr/dstBytes describe where the
// application will place the data, so stale cached lines are dropped;
// pass 0,0 when the payload is metadata only.
func (c *Comm) Recv(p *machine.Proc, src int, dstAddr machine.Addr, dstBytes int) *Message {
	if src == p.ID {
		panic(fmt.Sprintf("mpi: rank %d receiving from itself", src))
	}
	msg := <-c.mail[src][p.ID].ch
	recvStart := p.Now()
	p.WaitUntil(msg.availAt)
	if waited := p.Now() - recvStart; waited > 0 {
		p.TraceEvent(trace.EvMsgWait, src, msg.Bytes, waited)
	}
	p.ComputeNs(c.cfg.RecvOverheadNs)
	if c.cfg.Engine == Staged && msg.Bytes > 0 {
		// Copy out of the library buffer into the application buffer.
		p.LocalMemNs(float64(msg.Bytes) * c.cfg.CopyNsPerByte)
	}
	if dstBytes > 0 {
		p.InvalidateRange(dstAddr, dstBytes)
	}
	p.TraceEvent(trace.EvRecv, src, msg.Bytes, p.Now()-recvStart)
	msg.done <- p.Now()
	return msg
}

// SendRecv sends to dst and then receives from src; the send is
// initiated first so symmetric exchanges cannot deadlock.
func (c *Comm) SendRecv(p *machine.Proc, dst, tag int, payload any, bytes int,
	src int, dstAddr machine.Addr, dstBytes int) *Message {
	c.Send(p, dst, tag, payload, bytes)
	return c.Recv(p, src, dstAddr, dstBytes)
}
