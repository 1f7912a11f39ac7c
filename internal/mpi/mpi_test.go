package mpi

import (
	"testing"

	"repro/internal/machine"
)

func comm(t testing.TB, procs int, cfg Config) *Comm {
	t.Helper()
	m, err := machine.New(machine.Origin2000Scaled(procs))
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return New(m, cfg)
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

// op is one entry of a script: a step, what the rank does on reaching
// it, and what it does with the message a receive delivers.
type op struct {
	Step
	before func(p *machine.Proc)
	got    func(p *machine.Proc, msg *Message)
}

// script is a Program written out as a list.
type script struct {
	ops  []op
	next int
}

func (s *script) Next(p *machine.Proc, st *Step) bool {
	if s.next == len(s.ops) {
		return false
	}
	o := &s.ops[s.next]
	s.next++
	if o.before != nil {
		o.before(p)
	}
	*st = o.Step
	return true
}

func (s *script) Deliver(p *machine.Proc, msg *Message) {
	if got := s.ops[s.next-1].got; got != nil {
		got(p, msg)
	}
}

func send(dst, tag int, payload any, bytes int) op {
	return op{Step: Step{Peer: dst, Tag: tag, Payload: payload, Bytes: bytes}}
}

func recv(src int, addr machine.Addr, bytes int, got func(p *machine.Proc, msg *Message)) op {
	return op{Step: Step{Recv: true, Peer: src, Addr: addr, DstBytes: bytes}, got: got}
}

// after makes the rank run f when it reaches o.
func after(f func(p *machine.Proc), o op) op {
	o.before = f
	return o
}

// run is rank p's part of one phase; a rank with no part passes no ops.
func run(c *Comm, p *machine.Proc, ops ...op) {
	c.Run(p, &script{ops: ops})
}

// repeat is n ops, the i-th built by mk(i).
func repeat(n int, mk func(i int) op) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = mk(i)
	}
	return ops
}

func TestSendRecvDelivers(t *testing.T) {
	for _, cfg := range []Config{DefaultDirect(), DefaultStaged()} {
		c := comm(t, 2, cfg)
		mustRun(t, c.Machine(), func(p *machine.Proc) {
			if p.ID == 0 {
				run(c, p, send(1, 7, []uint32{1, 2, 3}, 12))
			} else {
				delivered := false
				run(c, p, recv(0, 0, 0, func(_ *machine.Proc, msg *Message) {
					delivered = true
					if msg.Src != 0 || msg.Tag != 7 {
						t.Errorf("%v: msg meta = src %d tag %d", cfg.Engine, msg.Src, msg.Tag)
					}
					data := msg.Payload.([]uint32)
					if len(data) != 3 || data[2] != 3 {
						t.Errorf("%v: payload = %v", cfg.Engine, data)
					}
				}))
				if !delivered {
					t.Errorf("%v: nothing delivered", cfg.Engine)
				}
			}
		})
	}
}

func TestRecvWaitsForSender(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 0 {
			p.Compute(100000) // sender is slow
			run(c, p, send(1, 0, nil, 4096))
		} else {
			run(c, p, recv(0, 0, 0, nil))
			if p.Now() < 100000*machine.OpNs {
				t.Errorf("receiver finished at %v, before the send", p.Now())
			}
			if p.Stats().Breakdown.Sync == 0 {
				t.Error("receiver charged no sync while waiting")
			}
		}
	})
}

func TestOneDeepWindowStallsSender(t *testing.T) {
	// With BufDepth 1, a burst of sends to a slow receiver must stall the
	// sender (the paper's explanation of MPI's SYNC time in radix sort).
	shallow := DefaultDirect()
	deep := DefaultDirect()
	deep.BufDepth = 64

	senderSync := func(cfg Config) float64 {
		c := comm(t, 2, cfg)
		var sync float64
		mustRun(t, c.Machine(), func(p *machine.Proc) {
			if p.ID == 0 {
				run(c, p, repeat(16, func(i int) op { return send(1, i, nil, 1024) })...)
				sync = p.Stats().Breakdown.Sync
			} else {
				slow := func(p *machine.Proc) { p.Compute(20000) } // slow consumer
				run(c, p, repeat(16, func(int) op { return after(slow, recv(0, 0, 0, nil)) })...)
			}
		})
		return sync
	}
	s1 := senderSync(shallow)
	s64 := senderSync(deep)
	if s1 <= s64 {
		t.Errorf("1-deep window sender sync (%v) should exceed 64-deep (%v)", s1, s64)
	}
	if s1 == 0 {
		t.Error("1-deep window produced no sender stalls")
	}
}

func TestStagedCostsMoreThanDirect(t *testing.T) {
	// Same traffic, both engines: staged must take longer end-to-end
	// (double copy + higher overheads).
	elapsed := func(cfg Config) float64 {
		c := comm(t, 2, cfg)
		res := mustRun(t, c.Machine(), func(p *machine.Proc) {
			const msgs = 8
			if p.ID == 0 {
				run(c, p, repeat(msgs, func(i int) op { return send(1, i, nil, 64<<10) })...)
			} else {
				run(c, p, repeat(msgs, func(int) op { return recv(0, 0, 0, nil) })...)
			}
		})
		return res.TimeNs
	}
	direct := elapsed(DefaultDirect())
	staged := elapsed(DefaultStaged())
	if staged <= direct {
		t.Errorf("staged (%v) should be slower than direct (%v)", staged, direct)
	}
}

func TestFIFOPerPair(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, repeat(10, func(i int) op { return send(1, i, i, 8) })...)
		} else {
			arrived := 0
			run(c, p, repeat(10, func(i int) op {
				return recv(0, 0, 0, func(_ *machine.Proc, msg *Message) {
					arrived++
					if msg.Tag != i || msg.Payload.(int) != i {
						t.Errorf("message %d arrived with tag %d, payload %v", i, msg.Tag, msg.Payload)
					}
				})
			})...)
			if arrived != 10 {
				t.Errorf("%d of 10 messages arrived", arrived)
			}
		}
	})
}

func TestRecvInvalidatesDestination(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	buf := machine.NewArrayOnProc[uint32](c.Machine(), "rbuf", 256, 1)
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 1 {
			// Warm the destination lines.
			buf.LoadRange(p, 0, 256, machine.Private)
			if !p.CacheContains(buf.Addr(0)) {
				t.Fatal("warmup failed")
			}
		}
		c.Barrier(p)
		if p.ID == 0 {
			run(c, p, send(1, 0, nil, buf.Bytes(256)))
		} else {
			run(c, p, recv(0, buf.Addr(0), buf.Bytes(256), nil))
			if p.CacheContains(buf.Addr(0)) {
				t.Error("stale lines survived message arrival")
			}
		}
	})
}

func TestSelfSendPanics(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	_, err := c.Machine().Run(func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, send(0, 0, nil, 8))
		} else {
			run(c, p)
		}
	})
	if pp, ok := err.(*machine.ProcPanic); !ok || pp.Proc != 0 {
		t.Errorf("self-send: Run returned %v, want processor 0's panic", err)
	}
}

func TestAllgather(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		c := comm(t, procs, DefaultDirect())
		mustRun(t, c.Machine(), func(p *machine.Proc) {
			mine := []int64{int64(p.ID), int64(p.ID * 10)}
			out := Allgather(c, p, mine)
			if len(out) != procs {
				t.Errorf("p=%d: got %d blocks", procs, len(out))
				return
			}
			for r := 0; r < procs; r++ {
				if out[r] == nil || out[r][0] != int64(r) || out[r][1] != int64(r*10) {
					t.Errorf("p=%d rank %d: out[%d] = %v", procs, p.ID, r, out[r])
				}
			}
		})
	}
}

// TestAllgatherNonPowerOfTwoRanks covers the Bruck-style ring schedule:
// rank counts with no XOR-partner structure, reachable since the
// interconnect became pluggable (the hypercube rejects them, a torus
// does not). Every rank must still assemble all contributions.
func TestAllgatherNonPowerOfTwoRanks(t *testing.T) {
	for _, procs := range []int{6, 12, 24} {
		cfg := machine.Origin2000Scaled(procs)
		cfg.Topology.Kind = "torus"
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatalf("machine.New(%d procs, torus): %v", procs, err)
		}
		c := New(m, DefaultDirect())
		mustRun(t, c.Machine(), func(p *machine.Proc) {
			mine := []int64{int64(p.ID), int64(p.ID * 10)}
			out := Allgather(c, p, mine)
			if len(out) != procs {
				t.Errorf("p=%d: got %d blocks", procs, len(out))
				return
			}
			for r := 0; r < procs; r++ {
				if out[r] == nil || out[r][0] != int64(r) || out[r][1] != int64(r*10) {
					t.Errorf("p=%d rank %d: out[%d] = %v", procs, p.ID, r, out[r])
				}
			}
		})
	}
}

func TestAllgatherSingleRank(t *testing.T) {
	c := comm(t, 1, DefaultDirect())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		out := Allgather(c, p, []int64{5})
		if len(out) != 1 || out[0][0] != 5 {
			t.Errorf("out = %v", out)
		}
	})
}

func TestAllgatherDecouplesBuffer(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		mine := []int64{int64(p.ID)}
		out := Allgather(c, p, mine)
		mine[0] = 999 // mutating the send buffer must not affect results
		if out[p.ID][0] != int64(p.ID) {
			t.Error("allgather aliases the caller's buffer")
		}
	})
}

func TestAllgatherDeterministic(t *testing.T) {
	run := func() float64 {
		c := comm(t, 8, DefaultStaged())
		res := mustRun(t, c.Machine(), func(p *machine.Proc) {
			mine := make([]int64, 64)
			Allgather(c, p, mine)
		})
		return res.TimeNs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic allgather: %v vs %v", a, b)
	}
}

func TestConfigFor(t *testing.T) {
	if ConfigFor(Direct).Engine != Direct || ConfigFor(Staged).Engine != Staged {
		t.Error("ConfigFor wires the wrong engines")
	}
	if Direct.String() != "NEW" || Staged.String() != "SGI" {
		t.Error("engine labels should match the paper's figures")
	}
}

// TestScaledDividesFixedCosts: a communicator pays its engine's
// full-size fixed costs on the full-size machine, and the scaled machine
// divides them by its scale.
func TestScaledDividesFixedCosts(t *testing.T) {
	for _, e := range []Engine{Direct, Staged} {
		m, err := machine.New(machine.Origin2000(2))
		if err != nil {
			t.Fatal(err)
		}
		full, scaled := New(m, ConfigFor(e)), comm(t, 2, ConfigFor(e))
		if full.overheadNs != e.OverheadNs() || full.deliveryNs != deliveryNs {
			t.Errorf("%v full size: overhead %v, delivery %v", e, full.overheadNs, full.deliveryNs)
		}
		if full.overheadNs/scaled.overheadNs != machine.ScaleFactor || full.deliveryNs/scaled.deliveryNs != machine.ScaleFactor {
			t.Errorf("%v scaled: overhead %v, delivery %v", e, scaled.overheadNs, scaled.deliveryNs)
		}
	}
}

func TestStagedReceiverPaysCopy(t *testing.T) {
	c := comm(t, 2, DefaultStaged())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, send(1, 0, nil, 64<<10))
		} else {
			before := p.Stats().Breakdown.LMem
			run(c, p, recv(0, 0, 0, nil))
			copied := p.Stats().Breakdown.LMem - before
			want := float64(64<<10) * stagedCopyNsPerByte
			if copied < want*0.99 {
				t.Errorf("receiver copy charge %v, want >= %v", copied, want)
			}
		}
	})
}

func TestDirectSenderPaysTransfer(t *testing.T) {
	c := comm(t, 4, DefaultDirect())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		switch p.ID {
		case 0:
			run(c, p, send(3, 0, nil, 64<<10)) // rank 3 is on the other node
			if p.Stats().Breakdown.RMem == 0 {
				t.Error("direct sender to a remote node charged no RMem")
			}
		case 3:
			run(c, p, recv(0, 0, 0, nil))
		default:
			run(c, p)
		}
	})
}
