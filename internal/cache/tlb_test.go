package cache

import (
	"testing"
	"testing/quick"
)

func TestTLBConfigValidate(t *testing.T) {
	if err := (TLBConfig{Entries: 64, PageSize: 16384}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []TLBConfig{
		{Entries: 0, PageSize: 16384},
		{Entries: 64, PageSize: 0},
		{Entries: 64, PageSize: 1000},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestTLBMissThenHit(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 4, PageSize: 1024})
	if !tlb.Access(0) {
		t.Error("first access should miss")
	}
	if tlb.Access(0) {
		t.Error("second access should hit")
	}
	if tlb.Access(500) {
		t.Error("same-page access should hit")
	}
	if !tlb.Access(1024) {
		t.Error("next-page access should miss")
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 2, PageSize: 1024})
	tlb.Access(0 * 1024) // page 0 (oldest)
	tlb.Access(1 * 1024) // page 1
	tlb.Access(0 * 1024) // hit; FIFO order unchanged
	tlb.Access(2 * 1024) // evicts page 0 (first in)
	if !tlb.Access(0 * 1024) {
		t.Error("page 0 should have been evicted (FIFO)") // this access evicts page 1
	}
	if tlb.Access(2 * 1024) {
		t.Error("page 2 should have survived")
	}
}

func TestTLBCapacityBound(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 8, PageSize: 4096})
	for p := 0; p < 100; p++ {
		tlb.Access(Addr(p * 4096))
	}
	resident := 0
	for _, s := range tlb.slots {
		if s != memoNone {
			resident++
		}
	}
	if resident > 8 || len(tlb.ring) > 8 {
		t.Errorf("TLB holds %d entries (ring %d), cap is 8", resident, len(tlb.ring))
	}
}

func TestTLBStats(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 4, PageSize: 1024})
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			tlb.Access(Addr(a))
		}
		s := tlb.Stats()
		return s.Misses <= s.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 4, PageSize: 1024})
	tlb.Access(0)
	tlb.Flush()
	if !tlb.Access(0) {
		t.Error("access after flush should miss")
	}
}

func TestTLBMissRate(t *testing.T) {
	var s TLBStats
	if s.MissRate() != 0 {
		t.Error("empty stats should have miss rate 0")
	}
	s = TLBStats{Accesses: 10, Misses: 5}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", s.MissRate())
	}
}

func TestCacheMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats should have miss rate 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %v, want 0.25", s.MissRate())
	}
}

// refTLB is the original map-based FIFO TLB model, kept as a test oracle
// for the open-addressing fast path: both must agree on every miss
// decision and on the resident set, access by access.
type refTLB struct {
	entries map[uint64]bool
	ring    []uint64
	head    int
	cap     int
	shift   uint
}

func newRefTLB(cfg TLBConfig) *refTLB {
	shift := uint(0)
	for 1<<shift < cfg.PageSize {
		shift++
	}
	return &refTLB{entries: make(map[uint64]bool), cap: cfg.Entries, shift: shift}
}

func (t *refTLB) access(a Addr) (miss bool) {
	page := uint64(a) >> t.shift
	if t.entries[page] {
		return false
	}
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, page)
	} else {
		delete(t.entries, t.ring[t.head])
		t.ring[t.head] = page
		t.head = (t.head + 1) % t.cap
	}
	t.entries[page] = true
	return true
}

// TestTLBMatchesMapReference drives the open-addressing TLB and the
// legacy map model through identical pseudo-random access sequences and
// requires identical miss decisions throughout.
func TestTLBMatchesMapReference(t *testing.T) {
	for _, entries := range []int{1, 2, 7, 64} {
		cfg := TLBConfig{Entries: entries, PageSize: 1024}
		tlb := NewTLB(cfg)
		ref := newRefTLB(cfg)
		state := uint64(12345)
		for i := 0; i < 20000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			// Mix page-local reuse with far jumps over a 3*entries page
			// working set (so evictions are constant).
			a := Addr((state >> 33) % uint64(3*entries*1024))
			got, want := tlb.Access(a), ref.access(a)
			if got != want {
				t.Fatalf("entries=%d access %d (addr %#x): miss=%v, reference says %v",
					entries, i, a, got, want)
			}
		}
		if tlb.Stats().Accesses != 20000 {
			t.Errorf("accesses = %d, want 20000", tlb.Stats().Accesses)
		}
	}
}
