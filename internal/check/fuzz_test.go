package check_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
)

// FuzzAccessOracle drives random access streams — mixed reads and
// writes, strided and random, page-crossing, with invalidations and
// flushes mixed in — through the fast-path cache/TLB models and the
// unmemoized reference models side by side, and requires bit-identical
// results on every operation plus identical final counters. Each access
// is randomly routed through the plain probe, a per-stream lane
// (cache.Lane / cache.TLBLane), or the split LaneHit/miss-completer pair
// the batched kernels inline, so the lane machinery faces the same
// oracle as the probe it accelerates.
//
// Two geometries run the same stream: the Origin-style 2-way cache
// exercises the unrolled probe beside an 8-entry TLB, a 4-way cache the
// general probe loop beside a 2-entry TLB, where nearly every refill
// evicts a page some lane still points at. The address space is kept to
// 16 bits over a tiny cache/TLB so conflict evictions, writebacks and TLB
// FIFO churn all happen within a short input.
func FuzzAccessOracle(f *testing.F) {
	// Seed corpus: a sequential sweep, a write-heavy strided pass, an
	// alternating two-stream pattern (defeats a single lane), a
	// flush/invalidate torture mix, and a page-crossing run.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x80, 0x00, 0x00, 0xC0, 0x00})
	f.Add([]byte{0x03, 0x00, 0x10, 0x03, 0x04, 0x10, 0x03, 0x08, 0x10, 0x03, 0x0C, 0x10})
	f.Add([]byte{0x00, 0x00, 0x01, 0x03, 0x00, 0x41, 0x00, 0x40, 0x01, 0x03, 0x40, 0x41})
	f.Add([]byte{0x03, 0x00, 0x02, 0x06, 0x00, 0x02, 0x07, 0x00, 0x00, 0x00, 0x00, 0x02})
	f.Add([]byte{0x2D, 0xF0, 0x03, 0x5D, 0x10, 0x04, 0x00, 0xFF, 0xFF})
	// Stream-shaped seeds for the lane paths (op bits 3-4 select plain /
	// lane0 / lane1 / the inlined LaneHit+miss split, bits 5-7 one of
	// eight TLB lanes): a gather/scatter mix on lane 0, a same-line run
	// through the split path, interleaved two-lane streams, and a
	// page-straddling run (1 KB pages, so 0x0400 is a page boundary).
	f.Add([]byte{0x0B, 0x40, 0x01, 0x08, 0x90, 0x00, 0x0B, 0x00, 0x3C, 0x08, 0x44, 0x01})
	f.Add([]byte{0x18, 0x00, 0x02, 0x18, 0x04, 0x02, 0x18, 0x08, 0x02, 0x1B, 0x0C, 0x02})
	f.Add([]byte{0x08, 0x00, 0x10, 0x13, 0x00, 0x80, 0x08, 0x40, 0x10, 0x13, 0x40, 0x80})
	f.Add([]byte{0x3B, 0xFC, 0x03, 0x3B, 0x00, 0x04, 0x18, 0xF8, 0x03, 0x18, 0x04, 0x04, 0x07, 0x00, 0x00})
	// Three pages through three TLB lanes, twice round: on the 2-entry
	// TLB every refill evicts the page the next lane points at, so each
	// lane test must fail into a probe that misses; then a lane hit, a
	// flush, and the same lane again.
	f.Add([]byte{0x08, 0x00, 0x00, 0x28, 0x00, 0x04, 0x48, 0x00, 0x08,
		0x08, 0x10, 0x00, 0x38, 0x10, 0x04, 0x58, 0x10, 0x08,
		0x58, 0x20, 0x08, 0x07, 0x00, 0x00, 0x58, 0x30, 0x08})

	geoms := []struct {
		cache cache.Config
		tlb   cache.TLBConfig
	}{
		{cache.Config{Size: 4096, LineSize: 64, Ways: 2}, cache.TLBConfig{Entries: 8, PageSize: 1 << 10}},
		{cache.Config{Size: 8192, LineSize: 32, Ways: 4}, cache.TLBConfig{Entries: 2, PageSize: 1 << 10}},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range geoms {
			ccfg, tcfg := g.cache, g.tlb
			fast := cache.New(ccfg)
			ref := check.NewRefCache(ccfg)
			ftlb := cache.NewTLB(tcfg)
			rtlb := check.NewRefTLB(tcfg)

			// Two cache lanes and eight TLB lanes on the fast side model a
			// stream kernel's per-stream and per-bucket memos; the
			// reference side always uses the plain path, so any
			// lane-vs-plain divergence (results, counters, replacement)
			// fails the oracle.
			var lanes [2]cache.Lane
			var tlanes [8]cache.TLBLane
			lanes[0].Reset()
			lanes[1].Reset()
			for i := range tlanes {
				ftlb.AttachLane(&tlanes[i])
			}

			for i := 0; i+3 <= len(data); i += 3 {
				op := data[i]
				a := cache.Addr(uint64(data[i+1]) | uint64(data[i+2])<<8)
				switch op & 7 {
				case 0, 1, 2, 3, 4, 5: // access; ops 3-5 write
					write := op&7 >= 3
					tl := &tlanes[op>>5]
					var fm bool
					var fr cache.AccessResult
					switch (op >> 3) & 3 {
					case 0: // plain probe
						fm = ftlb.Access(a)
						fr = fast.Access(a, write)
					case 1, 2: // lane path, one of two interleaved streams
						li := int((op>>3)&3) - 1
						fm = ftlb.AccessLane(tl, a)
						fr = fast.AccessLane(&lanes[li], a, write)
					case 3: // the split the kernels inline
						li := int(op>>5) & 1
						fm = false
						if !ftlb.LaneHit(tl, a) {
							fm = ftlb.LaneRefill(tl, a)
						}
						if fast.LaneHit(&lanes[li], a, write) {
							fr = cache.AccessResult{Hit: true}
						} else {
							fr = fast.AccessLaneMiss(&lanes[li], a, write)
						}
					}
					rm := rtlb.Access(a)
					if fm != rm {
						t.Fatalf("%+v op %d: tlb access (%#x) fast=%v ref=%v", ccfg, i, a, fm, rm)
					}
					rr := ref.Access(a, write)
					if fr.Hit != rr.Hit || fr.WriteBack != rr.WriteBack ||
						(fr.WriteBack && fr.WritebackAddr != rr.WritebackAddr) {
						t.Fatalf("%+v op %d: Access(%#x, write=%v) fast=%+v ref=%+v",
							ccfg, i, a, write, fr, rr)
					}
				case 6:
					fp, fd := fast.Invalidate(a)
					rp, rd := ref.Invalidate(a)
					if fp != rp || fd != rd {
						t.Fatalf("%+v op %d: Invalidate(%#x) fast=(%v,%v) ref=(%v,%v)",
							ccfg, i, a, fp, fd, rp, rd)
					}
				case 7:
					if fd, rd := fast.Flush(), ref.Flush(); fd != rd {
						t.Fatalf("%+v op %d: Flush fast=%d ref=%d dirty lines", ccfg, i, fd, rd)
					}
					ftlb.Flush()
					rtlb.Flush()
				}
			}

			fs, rs := fast.Stats(), ref.Counts()
			if fs.Accesses != rs.Accesses || fs.Misses != rs.Misses || fs.Writebacks != rs.Writebacks {
				t.Fatalf("%+v: final cache counts fast=%+v ref=%+v", ccfg, fs, rs)
			}
			ts, rt := ftlb.Stats(), rtlb.Counts()
			if ts.Accesses != rt.Accesses || ts.Misses != rt.Misses {
				t.Fatalf("%+v: final TLB counts fast=%+v ref=%+v", ccfg, ts, rt)
			}
		}
	})
}
