package machine

import (
	"testing"

	"repro/internal/topology"
)

// TestPriceTableAcrossTopologies proves the distance-class memo is exact
// on every registered interconnect: for each network kind the memoized
// entry of every (sharing class, write, requester, home) combination
// must equal a fresh priceFor/wbPriceFor computation for that exact node
// pair, bit for bit. Run at 24 processors — a router count that is not a
// power of two — so it also pins that only the hypercube still carries
// that restriction.
func TestPriceTableAcrossTopologies(t *testing.T) {
	for _, kind := range topology.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			procs := 24
			if kind == topology.KindHypercube {
				// The hypercube legitimately rejects 24 procs (6 routers).
				cfg := Origin2000Scaled(24)
				cfg.Topology.Kind = kind
				if _, err := New(cfg); err == nil {
					t.Fatal("hypercube accepted a non-power-of-two router count")
				}
				procs = 16
			}
			cfg := Origin2000Scaled(procs)
			cfg.Topology.Kind = kind
			m, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			n := m.top.Nodes()
			if got := len(m.prices.writeback); got != m.top.NumDistanceClasses() {
				t.Errorf("writeback memo has %d entries, want NumDistanceClasses() = %d",
					got, m.top.NumDistanceClasses())
			}
			for req := 0; req < n; req++ {
				for home := 0; home < n; home++ {
					for _, sh := range allSharings {
						for _, write := range []bool{false, true} {
							want := priceFor(m.top, m.proto, sh, write, req, home)
							got := m.missEntry(sh, write, req, home)
							if got != want {
								t.Fatalf("%s: missEntry(%v, write=%v, req=%d, home=%d) = %+v, want %+v",
									kind, sh, write, req, home, got, want)
							}
						}
					}
					want := wbPriceFor(m.proto, req, home)
					if got := m.writebackEntry(req, home); got != want {
						t.Fatalf("%s: writebackEntry(%d, %d) = %+v, want %+v", kind, req, home, got, want)
					}
				}
			}
		})
	}
}

// TestMachineTopologyKinds builds a machine on every interconnect at a
// ≥128-processor scale and sanity-checks the shape accessors — the memo
// staying O(classes) is what makes these sizes cheap to construct.
func TestMachineTopologyKinds(t *testing.T) {
	for _, kind := range topology.Kinds() {
		cfg := Origin2000Scaled(128)
		cfg.Topology.Kind = kind
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s at 128 procs: %v", kind, err)
		}
		if got := m.Topology().Kind(); got != kind {
			t.Errorf("Topology().Kind() = %q, want %q", got, kind)
		}
		if m.Procs() != 128 {
			t.Errorf("%s: Procs() = %d, want 128", kind, m.Procs())
		}
	}
}
