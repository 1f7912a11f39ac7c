// Paranoid differential coverage for the non-default interconnects: the
// distance-class pricing memo, the hot-path class rows, and the checker's
// reference oracle must all agree on every access when the machine is
// built on a fat-tree, torus, dragonfly, or two-tier NUMA network.
package check_test

import (
	"fmt"
	"slices"
	"testing"

	"repro"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/sorts"
	"repro/internal/topology"
)

// TestCCSASRadixAnyProcsParanoid: both CC-SAS radix sorts on machines
// that are not a power of two — 3 processors on a fat-tree with one per
// node, 6 and 12 on the default fat-tree — where the prefix tree has
// levels whose odd last block has no sibling or right child. Each run is
// clean under the full reference-model shadow, sorts, and reports the
// same simulated time as the same run without the shadow.
func TestCCSASRadixAnyProcsParanoid(t *testing.T) {
	for _, procs := range []int{3, 6, 12} {
		for _, model := range []repro.Model{repro.CCSAS, repro.CCSASNew} {
			t.Run(fmt.Sprintf("%s-p%d", model, procs), func(t *testing.T) {
				in, err := keys.Generate(keys.Gauss, keys.GenConfig{N: 1 << 13, Procs: procs, RadixBits: 8, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				run := func(paranoid bool) float64 {
					cfg := machine.Origin2000Scaled(procs)
					cfg.Topology.Kind = topology.KindFatTree
					if procs == 3 {
						cfg.Topology.ProcsPerNode = 1
					}
					if paranoid {
						cfg.ParanoidSampleEvery = 1
					}
					m := machine.MustNew(cfg)
					defer m.Release()
					res, err := sorts.RadixCCSAS(m, in, sorts.Config{Radix: 8}, model == repro.CCSASNew)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Sorted) != len(in) || !slices.IsSorted(res.Sorted) {
						t.Errorf("paranoid=%v: output not sorted", paranoid)
					}
					if paranoid {
						if err := m.Checker().Err(); err != nil {
							t.Errorf("paranoid run reported violations: %v", err)
						}
					}
					return res.TimeNs()
				}
				if normal, paranoid := run(false), run(true); normal != paranoid {
					t.Errorf("simulated time diverges: normal=%v paranoid=%v", normal, paranoid)
				}
			})
		}
	}
}

// TestNewTopologies128ProcParanoid runs one ≥128-processor radix sort
// per new network kind with the paranoid checker shadowing every access.
// A pass means the per-class pricing fast path matches the live-protocol
// reference price on each topology at a scale the paper never reached.
func TestNewTopologies128ProcParanoid(t *testing.T) {
	if testing.Short() {
		t.Skip("128-proc paranoid runs are not short")
	}
	for _, kind := range []string{
		topology.KindFatTree,
		topology.KindTorus,
		topology.KindTorus3D,
		topology.KindDragonfly,
		topology.KindNUMA2,
	} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			out, err := repro.Run(repro.Experiment{
				Algorithm: repro.Radix, Model: repro.SHMEM,
				N: 1 << 15, Procs: 128, Radix: 8,
				Topo:     kind,
				Paranoid: true,
			})
			if err != nil {
				t.Fatalf("paranoid run on %s failed: %v", kind, err)
			}
			if !out.Verified {
				t.Errorf("%s: output not verified sorted", kind)
			}
			if out.TimeNs <= 0 {
				t.Errorf("%s: non-positive simulated time %v", kind, out.TimeNs)
			}
		})
	}
}
