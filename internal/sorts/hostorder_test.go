package sorts

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/keys"
	"repro/internal/topology"
)

// TestHostOrderInvariant: what a program simulates — every clock,
// counter and trace event — may not depend on how the host runs it.
// Every program is run with 1, 2 and 8 host threads, and with the
// processors forced to reach every episode of the machine's gate —
// barrier, MPI replay, shared step — in reverse and in a shuffled order,
// which moves each episode's closure to another processor's goroutine;
// all runs must agree on one digest, Chrome trace included.
func TestHostOrderInvariant(t *testing.T) {
	type host struct {
		name    string
		threads int
		// order[i] is the processor admitted i-th to each episode; nil
		// lets the scheduler decide.
		order func(procs int) []int
	}
	hosts := []host{
		{name: "1 thread", threads: 1},
		{name: "2 threads", threads: 2},
		{name: "8 threads", threads: 8},
		{name: "reversed arrival", threads: 2, order: func(procs int) []int {
			order := make([]int, procs)
			for i := range order {
				order[i] = procs - 1 - i
			}
			return order
		}},
		{name: "shuffled arrival", threads: 2, order: func(procs int) []int {
			return rand.New(rand.NewSource(int64(procs))).Perm(procs)
		}},
	}
	shapes := []digestShape{
		{name: "p8", procs: 8, n: 1 << 13, radix: 8, dist: keys.Gauss, traced: true},
		{name: "p64", procs: 64, n: 1 << 14, radix: 8, dist: keys.Gauss, traced: true},
		{name: "p12-fattree", procs: 12, n: 1 << 13, radix: 8, dist: keys.Random,
			topo: topology.KindFatTree, traced: true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range shapes {
		in, err := keys.Generate(s.dist, keys.GenConfig{N: s.n, Procs: s.procs, RadixBits: s.radix, Seed: 7})
		if err != nil {
			t.Fatalf("%s: keys: %v", s.name, err)
		}
		for _, v := range digestVariants() {
			if !v.runsOn(s) {
				continue
			}
			want := ""
			for _, h := range hosts {
				runtime.GOMAXPROCS(h.threads)
				m := s.machine(t)
				if h.order != nil {
					order := h.order(s.procs)
					m.SetArrivalOrderForTest(func(proc, arrived int) bool { return order[arrived] == proc })
				}
				res, err := v.run(m, in, Config{Radix: s.radix})
				if err != nil {
					t.Fatalf("%s/%s %s, %s: %v", v.algorithm, v.model, s.name, h.name, err)
				}
				got := resultDigest(res)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s/%s %s: digest %s with %s, %s with %s",
						v.algorithm, v.model, s.name, got[:16], h.name, want[:16], hosts[0].name)
				}
			}
		}
	}
}
