package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/trace"
)

// This file wires paranoid mode (Config.ParanoidSampleEvery, package
// check) into the simulator's hot path. Every Proc of a paranoid machine
// carries a *paranoid shadow holding unmemoized reference models; each
// hook site in proc.go/stream.go/machine.go is a nil check on p.pc, so a
// non-paranoid run pays one predictable branch per site and zero
// allocations (TestParanoidDisabledZeroAlloc). The per-access hooks sit
// where every translation and every cache access ends (translated and
// accessed in proc.go), which the lanes' slow steps share with the
// per-element path; in full mode those slow steps leave the lane empty,
// so no access of any kernel loop resolves without reaching its hook.
//
// What is checked, per access:
//
//   - TLB miss/hit vs check.RefTLB (map + FIFO ring, no lanes, no open
//     addressing).
//   - Cache hit/miss/writeback (and the writeback's address) vs
//     check.RefCache (plain structs, no lanes, no packed meta).
//   - The page's home node vs memsys.ReferenceHomeOf (the region walk,
//     bypassing the flat page table).
//   - The memoized price entry the hot path reads — through the same
//     row indexing it uses, so stale row pointers are caught too — vs a
//     fresh walk of the live coherence.Protocol (priceFor/wbPriceFor).
//   - Directory-transition legality: the access's implied protocol walk
//     is replayed on a live coherence.Directory and the resulting line
//     state checked (sharer/owner exclusivity, requester ends up with a
//     readable/owned copy).
//   - Virtual-time monotonicity at every hook site.
//
// And per run, at Machine.Run's end:
//
//   - The accounting identity clock == BUSY+LMEM+RMEM+SYNC, whole-run
//     and per phase (phase elapsed time vs its ledger's total), exact:
//     both sides are integer picoseconds.
//   - Event-count conservation between the fast and reference cache/TLB.
//   - Traffic conservation: the shadow's per-class transaction counts
//     sum to Traffic.ProtocolTransactions and match the trace's TxClass
//     counters when tracing is on.

// paranoid is one processor's shadow state. All fields are owned by the
// processor's goroutine except ck, which is concurrency-safe.
type paranoid struct {
	ck    *check.Checker
	cache *check.RefCache
	tlb   *check.RefTLB

	// lastClock enforces virtual-time monotonicity.
	lastClock int64
	// phaseStart/phaseElapsed track elapsed virtual time per phase label
	// independently of the phase ledgers, for the per-phase accounting
	// identity.
	phaseStart   int64
	phaseElapsed map[string]int64
	// tx mirrors the per-class protocol-transaction counts the trace
	// subsystem would record, whether or not tracing is on.
	tx [trace.NumTxClasses]int64

	// sampleEvery is Config.ParanoidSampleEvery: 1 shadows every access
	// through the reference models; N > 1 spot-samples, running
	// only the stateless oracles (home, price, directory, clock) on every
	// Nth priced event so paranoid stays usable on 10⁸+-access runs.
	sampleEvery int
	// evCount numbers the priced events for the spot-sampling decision.
	evCount uint64
}

func newParanoid(m *Machine, ck *check.Checker) *paranoid {
	pc := &paranoid{ck: ck, sampleEvery: m.cfg.ParanoidSampleEvery}
	if pc.perAccess() {
		// Full mode shadows every access differentially; sampled mode
		// never consults the reference models, so it skips building them
		// (they would only go stale).
		pc.cache = check.NewRefCache(m.cfg.Cache)
		pc.tlb = check.NewRefTLB(m.cfg.TLB)
	}
	return pc
}

// perAccess reports whether every access is shadowed by the reference
// models (full paranoid mode), which requires the lanes to stay empty.
// Sampled mode lets the stream kernels keep their lanes: kernel misses
// still flow through the hooked missCharge, which is where the sampled
// oracles live.
func (pc *paranoid) perAccess() bool { return pc.sampleEvery <= 1 }

// sampleHit numbers one priced event and reports whether the stateless
// oracles should run on it. Full mode samples everything.
func (pc *paranoid) sampleHit() bool {
	if pc.sampleEvery <= 1 {
		return true
	}
	pc.evCount++
	return (pc.evCount-1)%uint64(pc.sampleEvery) == 0
}

// resetRun clears per-run shadow state. The reference cache and TLB are
// deliberately NOT reset: the fast models keep their contents across
// runs of one machine (warm caches are intentional), so the shadows
// must too.
func (pc *paranoid) resetRun() {
	pc.lastClock = 0
	pc.phaseStart = 0
	pc.phaseElapsed = nil
	pc.tx = [trace.NumTxClasses]int64{}
	pc.evCount = 0
}

// report records one violation tagged with the processor's identity and
// current phase.
func (pc *paranoid) report(p *Proc, a Addr, kind, fast, ref string) {
	pc.ck.Report(check.Violation{
		Proc:  p.ID,
		Phase: p.phase,
		Addr:  uint64(a),
		Kind:  kind,
		Fast:  fast,
		Ref:   ref,
	})
}

// noteClock asserts the virtual clock has not moved backwards since the
// last hook on this processor.
func (pc *paranoid) noteClock(p *Proc) {
	c := p.clock
	if c < pc.lastClock {
		pc.report(p, 0, "clock-monotonic",
			fmt.Sprintf("clock=%vps", c), fmt.Sprintf("clock >= %vps", pc.lastClock))
	}
	pc.lastClock = c
}

// fmtAccess renders a cache access outcome for violation messages.
func fmtAccess(hit, wb bool, wbAddr Addr) string {
	if wb {
		return fmt.Sprintf("hit=%v writeback=%#x", hit, uint64(wbAddr))
	}
	return fmt.Sprintf("hit=%v", hit)
}

// fmtPrice renders a price entry for violation messages.
func fmtPrice(e priceEntry) string {
	return fmt.Sprintf("{latency=%vps traffic=%d remote=%v}", e.ps, e.trafficBytes, e.remote)
}

// checkTLBAccess shadows one translation; tlbMiss is what the fast TLB
// observed.
func (pc *paranoid) checkTLBAccess(p *Proc, a Addr, tlbMiss bool) {
	if pc.tlb == nil {
		// Sampled mode: no reference models to diff against. The sampled
		// oracles live in checkMiss/checkWriteback.
		return
	}
	if refMiss := pc.tlb.Access(a); refMiss != tlbMiss {
		pc.report(p, a, "tlb-miss",
			fmt.Sprintf("miss=%v", tlbMiss), fmt.Sprintf("miss=%v", refMiss))
	}
}

// checkCacheAccess shadows one cache access; res is what the fast cache
// observed.
func (pc *paranoid) checkCacheAccess(p *Proc, a Addr, write bool, res cache.AccessResult) {
	if pc.cache == nil {
		return
	}
	pc.noteClock(p)
	ref := pc.cache.Access(a, write)
	if res.Hit != ref.Hit || res.WriteBack != ref.WriteBack ||
		(res.WriteBack && res.WritebackAddr != ref.WritebackAddr) {
		pc.report(p, a, "cache-access",
			fmtAccess(res.Hit, res.WriteBack, res.WritebackAddr),
			fmtAccess(ref.Hit, ref.WriteBack, ref.WritebackAddr))
	}
}

// checkMiss shadows one priced (non-flat-memory) miss: home resolution,
// the memoized price entry, and the protocol walk's directory legality.
// home is the fast path's HomeOf answer, about to be charged.
func (pc *paranoid) checkMiss(p *Proc, a Addr, write bool, sh Sharing, home int) {
	if sh < Private || sh > DirtyElsewhere {
		// Bail before priceClass would index out of bounds.
		pc.report(p, a, "sharing-class",
			fmt.Sprintf("Sharing(%d)", int(sh)), "class in [Private, DirtyElsewhere]")
		return
	}
	pc.tx[trace.TxClass(sh)]++
	if pc.sampleEvery > 1 {
		// Spot-sampling: the per-class transaction count above runs on
		// every miss (so tx conservation stays exact), but the stateless
		// oracles below run on every Nth priced event only.
		if !pc.sampleHit() {
			return
		}
		pc.noteClock(p)
	}
	if ref := p.m.as.ReferenceHomeOf(a); ref != home {
		pc.report(p, a, "page-home",
			fmt.Sprintf("home=%d", home), fmt.Sprintf("home=%d", ref))
	}
	// Read the fast entry through the exact indexing the hot path uses
	// (cached distance-class row), not the test accessor, so a
	// corrupted row pointer is caught as well as a corrupted entry.
	fast := p.m.prices.miss[priceClass(sh, write)][p.classRow[home]]
	ref := priceFor(p.m.top, p.m.proto, sh, write, p.Node, home)
	if fast != ref {
		pc.report(p, a, "price-mismatch", fmtPrice(fast), fmtPrice(ref))
	}
	pc.checkDirectory(p, a, write, sh, home)
}

// checkWriteback shadows one priced dirty eviction.
func (pc *paranoid) checkWriteback(p *Proc, a Addr, home int) {
	pc.tx[trace.TxWriteback]++
	if pc.sampleEvery > 1 {
		if !pc.sampleHit() {
			return
		}
		pc.noteClock(p)
	}
	if ref := p.m.as.ReferenceHomeOf(a); ref != home {
		pc.report(p, a, "page-home",
			fmt.Sprintf("home=%d", home), fmt.Sprintf("home=%d", ref))
	}
	fast := p.m.prices.writeback[p.classRow[home]]
	ref := wbPriceFor(p.m.proto, p.Node, home)
	if fast != ref {
		pc.report(p, a, "writeback-price", fmtPrice(fast), fmtPrice(ref))
	}
}

// checkDirectory replays the access's implied protocol transaction on a
// live one-line coherence.Directory seeded with the sharing class's
// declared pre-state, then asserts the directory's structural
// invariants and that the transition left the requester with a legal
// copy. DirtyElsewhere is skipped: it is priced statistically (average
// remote latency), not as one concrete protocol walk.
func (pc *paranoid) checkDirectory(p *Proc, a Addr, write bool, sh Sharing, home int) {
	if sh == DirtyElsewhere {
		return
	}
	d := coherence.NewDirectory(p.m.proto, func(uint64) int { return home })
	const lineKey = 0
	ls := d.State(lineKey)
	switch sh {
	case Private:
		// Unowned: the fresh state.
	case RemoteProduced, ConflictWrite:
		ls.State = coherence.Exclusive
		ls.Owner = home
	case SharedRead:
		ls.State = coherence.Shared
		ls.Owner = -1
		ls.Sharers[home] = true
	}
	if write {
		d.Write(p.Node, lineKey)
	} else {
		d.Read(p.Node, lineKey)
	}
	if err := d.CheckInvariants(); err != nil {
		pc.report(p, a, "directory-invariant", err.Error(), "legal directory state")
		return
	}
	st := d.State(lineKey)
	if write {
		if st.State != coherence.Exclusive || st.Owner != p.Node {
			pc.report(p, a, "directory-transition",
				fmt.Sprintf("%v owner=%d after %v write", st.State, st.Owner, sh),
				fmt.Sprintf("Exclusive owner=%d", p.Node))
		}
		return
	}
	readable := (st.State == coherence.Exclusive && st.Owner == p.Node) ||
		(st.State == coherence.Shared && st.Sharers[p.Node])
	if !readable {
		pc.report(p, a, "directory-transition",
			fmt.Sprintf("%v owner=%d after %v read", st.State, st.Owner, sh),
			fmt.Sprintf("requester node %d holds a readable copy", p.Node))
	}
}

// checkInvalidate shadows one cache-line invalidation.
func (pc *paranoid) checkInvalidate(p *Proc, a Addr, present, dirty bool) {
	if pc.cache == nil {
		return
	}
	refPresent, refDirty := pc.cache.Invalidate(a)
	if present != refPresent || dirty != refDirty {
		pc.report(p, a, "cache-invalidate",
			fmt.Sprintf("present=%v dirty=%v", present, dirty),
			fmt.Sprintf("present=%v dirty=%v", refPresent, refDirty))
	}
}

// checkFlush shadows a full cache+TLB flush (ResetMemory). dirty is the
// fast cache's dropped-dirty-line count.
func (pc *paranoid) checkFlush(p *Proc, dirty int) {
	if pc.cache == nil {
		return
	}
	if ref := pc.cache.Flush(); ref != dirty {
		pc.report(p, 0, "cache-flush",
			fmt.Sprintf("dirty=%d", dirty), fmt.Sprintf("dirty=%d", ref))
	}
	pc.tlb.Flush()
}

// notePhase closes the elapsed-time measurement of the current phase
// (if any) and starts a new one at the current clock. Called by
// SetPhase before the phase label changes, and by finishRun.
func (pc *paranoid) notePhase(p *Proc) {
	pc.noteClock(p)
	if p.phase != "" {
		if pc.phaseElapsed == nil {
			pc.phaseElapsed = make(map[string]int64)
		}
		pc.phaseElapsed[p.phase] += p.clock - pc.phaseStart
	}
	pc.phaseStart = p.clock
}

// finishRun runs the end-of-run structural checks against the
// processor's final snapshot ps.
func (pc *paranoid) finishRun(p *Proc, ps ProcStats) {
	pc.notePhase(p) // close the open phase, check the clock once more

	// Whole-run accounting identity: the clock is the sum of its charges.
	if t := p.led.total(); p.clock != t {
		pc.report(p, 0, "breakdown-identity",
			fmt.Sprintf("clock=%vps", p.clock),
			fmt.Sprintf("BUSY+LMEM+RMEM+SYNC=%vps", t))
	}
	// Per-phase identity: elapsed virtual time inside a phase equals the
	// phase ledger's total. A phase with zero elapsed time may be (and
	// after the zero-phase pruning fix, is) absent from the snapshot; the
	// identity then holds trivially.
	for name, el := range pc.phaseElapsed {
		if _, ok := ps.Phases[name]; !ok {
			if el != 0 {
				pc.report(p, 0, "phase-missing",
					fmt.Sprintf("phase %q absent from snapshot", name),
					fmt.Sprintf("breakdown totaling %vps", el))
			}
			continue
		}
		if t := p.phases[name].total(); el != t {
			pc.report(p, 0, "phase-identity",
				fmt.Sprintf("phase %q BUSY+LMEM+RMEM+SYNC=%vps", name, t),
				fmt.Sprintf("elapsed=%vps", el))
		}
	}
	for name := range ps.Phases {
		if _, ok := pc.phaseElapsed[name]; !ok {
			pc.report(p, 0, "phase-unknown",
				fmt.Sprintf("snapshot reports phase %q", name),
				"phase observed by SetPhase during the run")
		}
	}

	// Event-count conservation between the fast and reference models
	// (full mode only; sampled mode has no shadow models to conserve
	// against).
	if pc.cache == nil {
		pc.finishTx(p, ps)
		return
	}
	cs := p.cache.Stats()
	rc := pc.cache.Counts()
	if cs.Accesses != rc.Accesses || cs.Misses != rc.Misses || cs.Writebacks != rc.Writebacks {
		pc.report(p, 0, "cache-counts",
			fmt.Sprintf("accesses=%d misses=%d writebacks=%d", cs.Accesses, cs.Misses, cs.Writebacks),
			fmt.Sprintf("accesses=%d misses=%d writebacks=%d", rc.Accesses, rc.Misses, rc.Writebacks))
	}
	tls := p.tlb.Stats()
	rt := pc.tlb.Counts()
	if tls.Accesses != rt.Accesses || tls.Misses != rt.Misses {
		pc.report(p, 0, "tlb-counts",
			fmt.Sprintf("accesses=%d misses=%d", tls.Accesses, tls.Misses),
			fmt.Sprintf("accesses=%d misses=%d", rt.Accesses, rt.Misses))
	}

	pc.finishTx(p, ps)
}

// finishTx checks traffic conservation: the shadow's per-class
// transaction counts must sum to the stats counter, and match the
// trace's counters class by class when tracing is on. It runs in both
// full and sampled mode — the per-class counts are maintained on every
// miss regardless of sampling.
func (pc *paranoid) finishTx(p *Proc, ps ProcStats) {
	var sum int64
	for _, v := range pc.tx {
		sum += v
	}
	if sum != ps.Traffic.ProtocolTransactions {
		pc.report(p, 0, "tx-conservation",
			fmt.Sprintf("ProtocolTransactions=%d", ps.Traffic.ProtocolTransactions),
			fmt.Sprintf("sum of per-class transactions=%d", sum))
	}
	if p.tr != nil {
		for c := trace.TxClass(0); c < trace.NumTxClasses; c++ {
			if p.tr.Tx[c] != pc.tx[c] {
				pc.report(p, 0, "tx-class",
					fmt.Sprintf("trace %s=%d", c, p.tr.Tx[c]),
					fmt.Sprintf("shadow %s=%d", c, pc.tx[c]))
			}
		}
	}
}
