package sorts

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/topology"
)

// shmemPrograms are the SHMEM sorts whose collectives replicate data on
// every rank: radix's histograms, sample sort's samples and boundary
// vectors, PSRS's per-destination counts.
var shmemPrograms = []struct {
	name string
	run  func(*machine.Machine, []uint32, Config) (*Result, error)
}{
	{"radix", RadixSHMEM},
	{"sample", SampleSHMEM},
	{"psrs", PsrsSHMEM},
}

// shmemSlabBytes sorts n Gauss keys with run on a procs-processor
// machine of the given interconnect, verifies the result, and returns
// the slab bytes the machine holds once the sort is done (read before
// Release).
func shmemSlabBytes(t *testing.T, run func(*machine.Machine, []uint32, Config) (*Result, error),
	kind string, procs, n int) int64 {
	t.Helper()
	in := genKeys(t, keys.Gauss, n, procs, 8)
	before := machine.ArenaStats().InUse
	cfg := machine.Origin2000Scaled(procs)
	cfg.Topology.Kind = kind
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	defer m.Release()
	res, err := run(m, in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, res)
	return machine.ArenaStats().InUse - before
}

// TestSHMEMHostBytesLinearInP: a SHMEM collection is charged on every
// rank but held once, so a cell's host memory grows with P, not with P²
// (radix's histogram rows) or P³ (sample sort's boundary rows).
// Quadrupling the processors may at most quadruple the slab bytes.
func TestSHMEMHostBytesLinearInP(t *testing.T) {
	const n = 1 << 16
	for _, pr := range shmemPrograms {
		small := shmemSlabBytes(t, pr.run, topology.KindFatTree, 64, n)
		large := shmemSlabBytes(t, pr.run, topology.KindFatTree, 256, n)
		ratio := float64(large) / float64(small)
		t.Logf("%s/shmem: %d bytes at P=64, %d at P=256 (%.1fx)", pr.name, small, large, ratio)
		if ratio > 4 {
			t.Errorf("%s/shmem: slab bytes grew %.1fx from 64 to 256 processors, want at most 4x", pr.name, ratio)
		}
	}
}

// TestThousandProcSHMEM: radix and sample sort over SHMEM on a
// 1024-processor dragonfly sort a megabyte of keys in under 128 MiB of
// slabs; sample sort's boundary rows alone would be 8 GiB if every rank
// held its own collection.
func TestThousandProcSHMEM(t *testing.T) {
	if raceEnabled {
		t.Skip("a 1024-processor cell costs the race detector several times its time and memory; TestSHMEMRowsStableUntilRepublished covers the aliasing rule under it")
	}
	const limit = 128 << 20
	for _, pr := range shmemPrograms[:2] {
		got := shmemSlabBytes(t, pr.run, topology.KindDragonfly, 1024, 1<<18)
		t.Logf("%s/shmem: %d slab bytes at P=1024", pr.name, got)
		if got > limit {
			t.Errorf("%s/shmem at P=1024 holds %d slab bytes, want at most %d", pr.name, got, limit)
		}
	}
}

// TestSHMEMRowsStableUntilRepublished: Collect's rows are views of the
// ranks' source segments, valid until each rank publishes again, which
// every program does only after a later barrier. Radix republishes its
// histograms on each of its 4 passes, sample sort and PSRS publish each
// vector once; the paranoid checker compares every processor's rows with
// the shared plan or pool built from them, so a rank that overwrote a row
// another still reads shows as a violation, and under the race detector
// as a race.
func TestSHMEMRowsStableUntilRepublished(t *testing.T) {
	for _, procs := range []int{8, 12} {
		in := genKeys(t, keys.Gauss, 1<<13, procs, 8)
		for _, pr := range shmemPrograms {
			cfg := machine.Origin2000Scaled(procs)
			cfg.Topology.Kind = topology.KindFatTree
			cfg.ParanoidSampleEvery = 1
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatalf("machine.New: %v", err)
			}
			res, err := pr.run(m, in, Config{Radix: 8})
			if err != nil {
				t.Fatalf("%s/shmem P=%d: %v", pr.name, procs, err)
			}
			checkSorted(t, in, res)
			if err := m.Checker().Err(); err != nil {
				t.Errorf("%s/shmem P=%d: a clean paranoid run reports %v", pr.name, procs, err)
			}
			m.Release()
		}
	}
}
