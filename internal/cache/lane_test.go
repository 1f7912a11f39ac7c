package cache

import (
	"math/rand"
	"testing"
)

// TestLaneEquivalence drives two identical cache+TLB pairs through the
// same random access sequence — one via plain Access, one with every
// access routed through per-stream lanes — and requires bit-identical
// counters. The lane paths must be pure accelerators: same hit/miss
// decisions, same replacement state, same statistics.
func TestLaneEquivalence(t *testing.T) {
	cfgs := []Config{
		{Size: 4096, LineSize: 64, Ways: 2},
		{Size: 8192, LineSize: 32, Ways: 4},
	}
	tcfg := TLBConfig{Entries: 8, PageSize: 1024}
	for _, cfg := range cfgs {
		ref := New(cfg)
		fast := New(cfg)
		refTLB := NewTLB(tcfg)
		fastTLB := NewTLB(tcfg)

		// Three lanes mimic the sorts' three interleaved streams
		// (sequential source, table, scattered target).
		var lanes [3]Lane
		var tlbLanes [3]TLBLane
		for i := range lanes {
			lanes[i].Reset()
			fastTLB.AttachLane(&tlbLanes[i])
		}

		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200000; i++ {
			lane := rng.Intn(3)
			var a Addr
			switch lane {
			case 0: // sequential sweep with same-line runs
				a = Addr((i / 3 * 4) % 65536)
			case 1: // small hot table
				a = Addr(65536 + rng.Intn(64)*4)
			case 2: // scattered target
				a = Addr(131072 + rng.Intn(16384)*4)
			}
			write := rng.Intn(4) == 0

			wantTLB := refTLB.Access(a)
			gotTLB := fastTLB.AccessLane(&tlbLanes[lane], a)
			if wantTLB != gotTLB {
				t.Fatalf("cfg %+v step %d addr %#x: tlb miss ref=%v lane=%v", cfg, i, a, wantTLB, gotTLB)
			}

			want := ref.Access(a, write)
			got := fast.AccessLane(&lanes[lane], a, write)
			if want != got {
				t.Fatalf("cfg %+v step %d addr %#x write=%v: ref=%+v lane=%+v", cfg, i, a, write, want, got)
			}

			// Occasionally interleave plain accesses and invalidations on
			// the lane side to prove lanes self-heal after external state
			// changes.
			if rng.Intn(64) == 0 {
				b := Addr(rng.Intn(1 << 18))
				w := rng.Intn(2) == 0
				rw := ref.Access(b, w)
				fw := fast.Access(b, w)
				if rw != fw {
					t.Fatalf("step %d interleave addr %#x: ref=%+v fast=%+v", i, b, rw, fw)
				}
				refTLB.Access(b)
				fastTLB.Access(b)
			}
			if rng.Intn(512) == 0 {
				b := Addr(rng.Intn(1 << 18))
				rp, rd := ref.Invalidate(b)
				fp, fd := fast.Invalidate(b)
				if rp != fp || rd != fd {
					t.Fatalf("step %d invalidate addr %#x: ref=(%v,%v) fast=(%v,%v)", i, b, rp, rd, fp, fd)
				}
			}
			if rng.Intn(4096) == 0 {
				if rd, fd := ref.Flush(), fast.Flush(); rd != fd {
					t.Fatalf("step %d flush: ref dirty=%d fast dirty=%d", i, rd, fd)
				}
				refTLB.Flush()
				fastTLB.Flush()
			}
		}
		if rs, fs := ref.Stats(), fast.Stats(); rs != fs {
			t.Fatalf("cfg %+v: cache stats diverged: ref=%+v fast=%+v", cfg, rs, fs)
		}
		if rs, fs := refTLB.Stats(), fastTLB.Stats(); rs != fs {
			t.Fatalf("cfg %+v: tlb stats diverged: ref=%+v fast=%+v", cfg, rs, fs)
		}
	}
}

// TestTLBLaneEvictionClears proves a lane never reports a stale hit for
// a page that was evicted from the resident set: force an eviction of
// the lane's page through the plain path, then re-access it via the
// lane and require a miss.
func TestTLBLaneEvictionClears(t *testing.T) {
	tl := NewTLB(TLBConfig{Entries: 4, PageSize: 1024})
	var lane TLBLane
	tl.AttachLane(&lane)

	if miss := tl.AccessLane(&lane, 0); !miss {
		t.Fatal("first access should miss")
	}
	// Fill the TLB past capacity so page 0 (FIFO head) is evicted.
	for p := 1; p <= 4; p++ {
		tl.Access(Addr(p * 1024))
	}
	if miss := tl.AccessLane(&lane, 0); !miss {
		t.Fatal("lane returned a hit for an evicted page")
	}

	// Flush must also clear lanes.
	tl.Flush()
	if miss := tl.AccessLane(&lane, 0); !miss {
		t.Fatal("lane returned a hit after Flush")
	}
}

// TestTLBLaneSurvivesBackwardShift moves the lane's page to another slot
// by evicting a page earlier in its probe chain: the lane's slot test
// fails (the slot now holds another page or nothing), the access falls
// through to the probe and must report the hit the page's residency
// demands — no miss counted, and the lane hits again afterwards.
func TestTLBLaneSurvivesBackwardShift(t *testing.T) {
	tl := NewTLB(TLBConfig{Entries: 2, PageSize: 1024})
	// Two pages with the same home slot: the second sits one past the
	// first in the probe chain, and shifts back when the first leaves.
	first := uint64(1)
	second := first + 1
	for tl.home(second) != tl.home(first) {
		second++
	}
	// The evicting page must land clear of those two slots.
	third := second + 1
	for (tl.home(third)-tl.home(first))&tl.slotMask < 2 {
		third++
	}
	addr := func(page uint64) Addr { return Addr(page << tl.pageShift) }

	var lane TLBLane
	tl.AttachLane(&lane)
	tl.Access(addr(first))
	if !tl.AccessLane(&lane, addr(second)) {
		t.Fatal("first touch of the lane's page should miss")
	}
	was := lane.slot
	tl.Access(addr(third)) // FIFO evicts first; second shifts into its slot
	if *was == second {
		t.Fatal("setup: the lane's page did not move")
	}
	misses := tl.Stats().Misses
	if tl.AccessLane(&lane, addr(second)) {
		t.Fatal("lane reported a miss for a resident page that changed slots")
	}
	if got := tl.Stats().Misses; got != misses {
		t.Fatalf("misses moved %d -> %d on a resident page", misses, got)
	}
	if lane.slot == was || !lane.Hit(second) {
		t.Fatal("lane did not recapture the page's new slot")
	}
}

// TestTLBManyLanes drives 256 lanes — the radix kernels' one lane per
// scatter bucket — over an 8-entry TLB, so most lanes point at slots
// whose page has long been evicted or replaced, against plain Access.
func TestTLBManyLanes(t *testing.T) {
	cfg := TLBConfig{Entries: 8, PageSize: 1024}
	ref, fast := NewTLB(cfg), NewTLB(cfg)
	lanes := make([]TLBLane, 256)
	for i := range lanes {
		fast.AttachLane(&lanes[i])
	}
	rng := rand.New(rand.NewSource(5))
	next := make([]Addr, len(lanes)) // each lane walks its own region
	for i := range next {
		next[i] = Addr(i * 8192)
	}
	for i := 0; i < 200000; i++ {
		ln := rng.Intn(len(lanes))
		if rng.Intn(8) == 0 {
			ln = rng.Intn(4) // a few hot lanes whose pages stay resident
		}
		a := next[ln]
		next[ln] = Addr(ln*8192) + (a+Addr(4*rng.Intn(64)))%8192
		if want, got := ref.Access(a), fast.AccessLane(&lanes[ln], a); want != got {
			t.Fatalf("step %d lane %d addr %#x: miss ref=%v lane=%v", i, ln, a, want, got)
		}
		if rng.Intn(20000) == 0 {
			ref.Flush()
			fast.Flush()
		}
	}
	rs, fs := ref.Stats(), fast.Stats()
	if rs != fs {
		t.Fatalf("stats diverged: ref=%+v lanes=%+v", rs, fs)
	}
	if rs.Misses == 0 || rs.Misses == rs.Accesses {
		t.Fatalf("vacuous run: %+v", rs)
	}
}
