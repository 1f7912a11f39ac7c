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
// Every call into the library is a collective over all ranks. A rank
// describes what it would do between two such calls — its ordered sends
// and receives, a Program — and hands that to Comm.Run; a host-only gate
// (machine.Rendezvous: no virtual time, no trace event) parks the ranks,
// and the last to arrive replays all the programs on its own goroutine
// (replay.go), executing on each rank's Proc exactly the statements the
// rank's blocking sends and receives would have executed, in the rank's
// program order. A rank's clock, breakdown, traffic counters and trace
// track depend only on its own program and on the times carried by the
// messages it exchanges, so the simulated result is what P independently
// scheduled processes would produce, while the host pays straight-line
// code per message instead of a goroutine hand-off. SendRecv and
// Allgather are programs over the same replay, so their costs emerge
// from the same model. A phase in which no rank's next step can ever be
// enabled fails the run: Machine.Run returns the machine's one error for
// stuck processors, a *machine.StrandedError, naming each rank's pending
// send or receive.
package mpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/topology"
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

// stagedCopyNsPerByte is the staging-copy cost per byte, paid at both
// ends by the Staged engine and not at all by Direct.
const stagedCopyNsPerByte float64 = 5.0

// deliveryNs is the full-size wire/protocol latency from send
// completion to receivability.
const deliveryNs float64 = 500

// OverheadNs returns the engine's full-size fixed per-message CPU cost,
// paid by the sender and again by the receiver. A communicator pays it
// divided by its machine's scale (machine.Config.SoftwareNs), as the
// analytic model (internal/perfmodel) prices it.
func (e Engine) OverheadNs() float64 {
	if e == Staged {
		return 15000
	}
	return 4000
}

// Config selects the library.
type Config struct {
	// Engine selects Direct or Staged.
	Engine Engine
	// BufDepth is the per-pair window of in-flight messages. The Direct
	// implementation uses 1-deep lock-free buffers (a sender of several
	// consecutive messages to one destination must wait for each to be
	// received); Staged uses deep library buffering.
	BufDepth int
}

// DefaultDirect returns the NEW implementation's configuration.
func DefaultDirect() Config { return Config{Engine: Direct, BufDepth: 1} }

// DefaultStaged returns the SGI-style implementation's configuration.
func DefaultStaged() Config { return Config{Engine: Staged, BufDepth: 64} }

// ConfigFor returns the default configuration for an engine.
func ConfigFor(e Engine) Config {
	if e == Staged {
		return DefaultStaged()
	}
	return DefaultDirect()
}

// Scaled returns c unchanged: a communicator divides its fixed costs by
// its machine's scale. It remains for the frozen cmd/bench, its only
// caller.
func (c Config) Scaled(float64) Config { return c }

// Message is one message as its receiver sees it.
type Message struct {
	// Src is the sending rank.
	Src int
	// Tag is the sender-supplied tag (not matched on; delivered FIFO per
	// pair).
	Tag int
	// Payload is the sender's payload value. It is not copied: a payload
	// that refers to the sender's buffers is read where it lies, which is
	// safe because no rank leaves the phase before every message of the
	// phase is delivered.
	Payload any
	// Bytes is the payload's size for costing purposes.
	Bytes int
}

// Step is one point-to-point operation of a rank's program.
type Step struct {
	// Recv makes the step a receive of the next message from Peer;
	// otherwise it is a send to Peer.
	Recv bool
	Peer int

	// Tag, Payload and Bytes describe a send. The step completes when the
	// library no longer needs the application buffer: after the remote
	// copy for Direct, after the staging copy (plus any window stall) for
	// Staged.
	Tag     int
	Payload any
	Bytes   int

	// Addr and DstBytes say where the application will place a received
	// message, so stale cached lines are dropped; 0, 0 when the payload is
	// metadata only.
	Addr     machine.Addr
	DstBytes int
}

// Program is one rank's part in a communication phase: its sends and
// receives in program order, produced one at a time so that an all-to-all
// of P² runs is never laid out in memory. Both methods run on the rank's
// processor p, possibly on another rank's goroutine, while every rank is
// parked in the gate (DESIGN.md §5): they may charge p and touch the
// buffers of the phase, and must not synchronize.
type Program interface {
	// Next is called once the rank's previous step has completed. It
	// charges whatever the rank does before its next call into the
	// library (evaluating a payload), describes that call in st and
	// reports true; false ends the rank's phase.
	Next(p *machine.Proc, st *Step) bool
	// Deliver hands over the message a receive step just completed. It
	// charges the rank's placement of it on p; bulk host data is better
	// not moved here, on the one goroutine that replays every rank, but
	// noted and moved by the rank after Run returns, in parallel with
	// the others — which must then meet (machine.Rendezvous) before any
	// rank rewrites a buffer another may still be copying from. msg is
	// valid during the call only.
	Deliver(p *machine.Proc, msg *Message)
}

// Comm is one MPI communicator over all the machine's processors.
type Comm struct {
	m   *machine.Machine
	top topology.Network
	cfg Config
	// overheadNs and deliveryNs are the engine's fixed costs on this
	// machine, divided by its scale once.
	overheadNs, deliveryNs float64

	// ranks and mail are the replay's state (replay.go). A rank writes
	// its own entry of ranks before the gate; everything else belongs to
	// whichever rank the gate lets replay.
	ranks []rankState
	mail  [][]pairState // [src][dst]; row src is made by src's first send
	// unreceived counts messages sent and not yet received.
	unreceived int
	// replayFn is c.replay, bound once so that Run allocates nothing.
	replayFn func()
}

// New builds a communicator. cfg.BufDepth of 0 is replaced by 1.
func New(m *machine.Machine, cfg Config) *Comm {
	if cfg.BufDepth <= 0 {
		cfg.BufDepth = 1
	}
	n, mc := m.Procs(), m.Config()
	c := &Comm{m: m, top: m.Topology(), cfg: cfg,
		overheadNs: mc.SoftwareNs(cfg.Engine.OverheadNs()), deliveryNs: mc.SoftwareNs(deliveryNs),
		ranks: make([]rankState, n), mail: make([][]pairState, n)}
	c.replayFn = c.replay
	return c
}

// Machine returns the underlying machine.
func (c *Comm) Machine() *machine.Machine { return c.m }

// Config returns the library configuration.
func (c *Comm) Config() Config { return c.cfg }

// Ranks returns the communicator size.
func (c *Comm) Ranks() int { return c.m.Procs() }

// Barrier joins the machine-wide barrier.
func (c *Comm) Barrier(p *machine.Proc) { c.m.Barrier(p) }

// Run executes one communication phase: rank p's part of it is prog.
// All ranks must call it collectively — one with nothing to send or
// receive passes a program that ends at once — and every message sent in
// the phase must be received in it. Run returns when every rank's
// program has finished; a phase that cannot finish fails the run, and
// Machine.Run returns a *machine.StrandedError naming each stuck rank's
// pending step.
func (c *Comm) Run(p *machine.Proc, prog Program) {
	if prog == nil {
		panic(fmt.Sprintf("mpi: rank %d has no program", p.ID))
	}
	c.ranks[p.ID] = rankState{prog: prog}
	c.m.Rendezvous(p, c.replayFn)
}

// sendRecv is the two-step program of SendRecv.
type sendRecv struct {
	steps [2]Step
	next  int
	got   Message
}

func (s *sendRecv) Next(_ *machine.Proc, st *Step) bool {
	if s.next == len(s.steps) {
		return false
	}
	*st = s.steps[s.next]
	s.next++
	return true
}

func (s *sendRecv) Deliver(_ *machine.Proc, msg *Message) { s.got = *msg }

// SendRecv sends to dst and then receives from src; the send is
// initiated first so symmetric exchanges cannot deadlock. All ranks must
// call it collectively.
func (c *Comm) SendRecv(p *machine.Proc, dst, tag int, payload any, bytes int,
	src int, dstAddr machine.Addr, dstBytes int) *Message {
	s := &sendRecv{steps: [2]Step{
		{Peer: dst, Tag: tag, Payload: payload, Bytes: bytes},
		{Recv: true, Peer: src, Addr: dstAddr, DstBytes: dstBytes},
	}}
	c.Run(p, s)
	return &s.got
}
