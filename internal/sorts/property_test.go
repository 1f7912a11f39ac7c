package sorts

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// TestPropertyAllProgramsSortArbitraryInput drives each parallel program
// with arbitrary key slices from testing/quick (masked to 31 bits) and
// checks the output is a sorted permutation.
func TestPropertyAllProgramsSortArbitraryInput(t *testing.T) {
	type prog struct {
		name string
		fn   func(*machine.Machine, []uint32, Config) (*Result, error)
	}
	progs := []prog{
		{"radix-ccsas", func(m *machine.Machine, in []uint32, c Config) (*Result, error) {
			return RadixCCSAS(m, in, c, false)
		}},
		{"radix-mpi", RadixMPI},
		{"radix-shmem", RadixSHMEM},
		{"sample-ccsas", SampleCCSAS},
		{"sample-shmem", SampleSHMEM},
	}
	for _, pr := range progs {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			f := func(raw []uint32) bool {
				// Quick can generate empty or tiny slices; pad to at least
				// the processor count and mask to the 31-bit key range.
				in := make([]uint32, max(len(raw), 16))
				for i := range in {
					if i < len(raw) {
						in[i] = raw[i] & 0x7fffffff
					} else {
						in[i] = uint32(i) * 2654435761
					}
				}
				m, err := machine.New(machine.Origin2000Scaled(4))
				if err != nil {
					return false
				}
				res, err := pr.fn(m, in, Config{Radix: 8})
				if err != nil {
					t.Logf("%s: %v", pr.name, err)
					return false
				}
				if len(res.Sorted) != len(in) {
					return false
				}
				var sumIn, sumOut uint64
				for i := range in {
					sumIn += uint64(in[i])
					sumOut += uint64(res.Sorted[i])
					if i > 0 && res.Sorted[i-1] > res.Sorted[i] {
						return false
					}
				}
				return sumIn == sumOut
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertySimulatedTimeMonotoneInWork verifies a basic sanity law of
// the simulator: more keys never take less simulated time (same
// everything else).
func TestPropertySimulatedTimeMonotoneInWork(t *testing.T) {
	timeFor := func(n int) float64 {
		m, err := machine.New(machine.Origin2000Scaled(4))
		if err != nil {
			t.Fatal(err)
		}
		in := make([]uint32, n)
		for i := range in {
			in[i] = uint32(i) * 2654435761 & 0x7fffffff
		}
		res, err := RadixSHMEM(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeNs()
	}
	prev := timeFor(1 << 10)
	for _, n := range []int{1 << 11, 1 << 12, 1 << 13, 1 << 14} {
		cur := timeFor(n)
		if cur <= prev {
			t.Errorf("n=%d: time %v not above n/2's %v", n, cur, prev)
		}
		prev = cur
	}
}

// TestPropertyBreakdownsNonNegative checks no program ever produces
// negative time buckets.
func TestPropertyBreakdownsNonNegative(t *testing.T) {
	m := scaled(t, 8)
	in := genKeysForProp(1 << 13)
	res, err := RadixMPI(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range res.Run.PerProc {
		b := ps.Breakdown
		if b.Busy < 0 || b.LMem < 0 || b.RMem < 0 || b.Sync < 0 {
			t.Errorf("proc %d has negative bucket: %+v", i, b)
		}
		if ps.Breakdown.Total() > res.Run.TimeNs+1e-6 {
			t.Errorf("proc %d total %v exceeds run time %v", i, b.Total(), res.Run.TimeNs)
		}
	}
}

func genKeysForProp(n int) []uint32 {
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i) * 2654435761 & 0x7fffffff
	}
	return in
}
