package repro

import (
	"fmt"
	"testing"

	"repro/internal/keys"
)

// The paper-shape regression suite. Each check encodes one qualitative
// target from DESIGN.md §3 / EXPERIMENTS.md as an executable assertion
// on a reduced grid, parameterized by an experiment modifier so the
// ablation test below can prove the checks actually depend on the
// memory-system model: under the `sortbench -sweep flatmem` configuration
// (Experiment.FlatMemory — uniform memory, no coherence) at least one
// target must demonstrably fail, guarding against the paper's effects
// silently disappearing from the simulator.

// shapeCheck is one named, self-contained shape target.
type shapeCheck struct {
	name  string
	check func(mod func(*Experiment)) error
}

// shapeRun executes one experiment with the modifier applied.
func shapeRun(e Experiment, mod func(*Experiment)) (*Outcome, error) {
	if e.Dist == 0 {
		e.Dist = keys.Gauss
	}
	if e.Radix == 0 {
		e.Radix = 8
	}
	mod(&e)
	return Run(e)
}

// shapeChecks is the suite. Grid kept small: classes 1M-16M (scaled),
// 16/32 processors.
var shapeChecks = []shapeCheck{
	{
		// Figure 3 / Table 3: SHMEM is the best large-class radix model;
		// MPI trails it (higher SYNC from send/receive handshakes).
		name: "radix SHMEM <= MPI at the 16M class",
		check: func(mod func(*Experiment)) error {
			n := SizeClasses[2].ScaledN
			shm, err := shapeRun(Experiment{Algorithm: Radix, Model: SHMEM, N: n, Procs: 16}, mod)
			if err != nil {
				return err
			}
			mp, err := shapeRun(Experiment{Algorithm: Radix, Model: MPI, N: n, Procs: 16}, mod)
			if err != nil {
				return err
			}
			if shm.TimeNs > mp.TimeNs {
				return fmt.Errorf("SHMEM %.0fns > MPI %.0fns", shm.TimeNs, mp.TimeNs)
			}
			return nil
		},
	},
	{
		// Figure 1 / §4.2: the authors' direct-copy MPI beats the staged
		// vendor library for radix sort — by a wide margin.
		name: "direct MPI faster than staged for radix",
		check: func(mod func(*Experiment)) error {
			n := SizeClasses[1].ScaledN
			direct, err := shapeRun(Experiment{Algorithm: Radix, Model: MPI, N: n, Procs: 16}, mod)
			if err != nil {
				return err
			}
			staged, err := shapeRun(Experiment{Algorithm: Radix, Model: MPISGI, N: n, Procs: 16}, mod)
			if err != nil {
				return err
			}
			if direct.TimeNs >= staged.TimeNs {
				return fmt.Errorf("direct %.0fns >= staged %.0fns", direct.TimeNs, staged.TimeNs)
			}
			return nil
		},
	},
	{
		// §4.4: below the keys/proc crossover (paper 64K, scaled 4K),
		// sample sort beats radix sort; above it, radix wins. Each
		// algorithm competes at its best model+radix on the reduced grid.
		name: "sample beats radix below the keys/proc crossover",
		check: func(mod func(*Experiment)) error {
			bestOf := func(alg Algorithm, n, procs int) (float64, error) {
				best := -1.0
				for _, mo := range Models(alg) {
					if mo == MPISGI {
						continue
					}
					for _, r := range []int{8, 11} {
						out, err := shapeRun(Experiment{Algorithm: alg, Model: mo, N: n, Procs: procs, Radix: r}, mod)
						if err != nil {
							return 0, err
						}
						if best < 0 || out.TimeNs < best {
							best = out.TimeNs
						}
					}
				}
				return best, nil
			}
			// 1M class at 32P: 2K keys/proc — sample territory.
			small := SizeClasses[0].ScaledN
			radixSmall, err := bestOf(Radix, small, 32)
			if err != nil {
				return err
			}
			sampleSmall, err := bestOf(Sample, small, 32)
			if err != nil {
				return err
			}
			if sampleSmall >= radixSmall {
				return fmt.Errorf("2K keys/proc: sample %.0fns >= radix %.0fns", sampleSmall, radixSmall)
			}
			// 16M class at 16P: 64K keys/proc — radix territory.
			big := SizeClasses[2].ScaledN
			radixBig, err := bestOf(Radix, big, 16)
			if err != nil {
				return err
			}
			sampleBig, err := bestOf(Sample, big, 16)
			if err != nil {
				return err
			}
			if radixBig >= sampleBig {
				return fmt.Errorf("64K keys/proc: radix %.0fns >= sample %.0fns", radixBig, sampleBig)
			}
			return nil
		},
	},
	{
		// Beyond-paper PSRS target (DESIGN.md §11): like the radix sorts,
		// PSRS's SHMEM program is at least as fast as its MPI program at
		// the large class — one-sided puts into the symmetric receive
		// buffers avoid MPI's per-pair send/receive handshakes.
		name: "psrs SHMEM <= MPI at the 16M class",
		check: func(mod func(*Experiment)) error {
			n := SizeClasses[2].ScaledN
			shm, err := shapeRun(Experiment{Algorithm: Psrs, Model: SHMEM, N: n, Procs: 16}, mod)
			if err != nil {
				return err
			}
			mp, err := shapeRun(Experiment{Algorithm: Psrs, Model: MPI, N: n, Procs: 16}, mod)
			if err != nil {
				return err
			}
			if shm.TimeNs > mp.TimeNs {
				return fmt.Errorf("SHMEM %.0fns > MPI %.0fns", shm.TimeNs, mp.TimeNs)
			}
			return nil
		},
	},
	{
		// Beyond-paper PSRS target (DESIGN.md §11): PSRS shifts the
		// sampling sorts' keys/proc crossover against radix (§4.4). The
		// multiway merge is cheaper than sample sort's second local sort,
		// so PSRS beats sample sort on both sides of the crossover, and at
		// 4K keys/proc — where sample sort has already lost to radix —
		// PSRS still wins. Above the crossover radix overtakes PSRS too.
		name: "psrs outlasts sample at the keys/proc crossover",
		check: func(mod func(*Experiment)) error {
			bestOf := func(alg Algorithm, n, procs int) (float64, error) {
				best := -1.0
				for _, mo := range Models(alg) {
					if mo == MPISGI {
						continue
					}
					for _, r := range []int{8, 11} {
						out, err := shapeRun(Experiment{Algorithm: alg, Model: mo, N: n, Procs: procs, Radix: r}, mod)
						if err != nil {
							return 0, err
						}
						if best < 0 || out.TimeNs < best {
							best = out.TimeNs
						}
					}
				}
				return best, nil
			}
			// 1M class at 16P: 4K keys/proc — the band where regular
			// sampling is the only sampling sort still ahead of radix.
			mid := SizeClasses[0].ScaledN
			psrsMid, err := bestOf(Psrs, mid, 16)
			if err != nil {
				return err
			}
			sampleMid, err := bestOf(Sample, mid, 16)
			if err != nil {
				return err
			}
			radixMid, err := bestOf(Radix, mid, 16)
			if err != nil {
				return err
			}
			if psrsMid >= sampleMid {
				return fmt.Errorf("4K keys/proc: psrs %.0fns >= sample %.0fns", psrsMid, sampleMid)
			}
			if psrsMid >= radixMid {
				return fmt.Errorf("4K keys/proc: psrs %.0fns >= radix %.0fns", psrsMid, radixMid)
			}
			if sampleMid < radixMid {
				return fmt.Errorf("4K keys/proc: sample %.0fns < radix %.0fns (sample should have crossed already)", sampleMid, radixMid)
			}
			// 16M class at 16P: 64K keys/proc — radix overtakes PSRS too,
			// but PSRS keeps its margin over sample sort.
			big := SizeClasses[2].ScaledN
			psrsBig, err := bestOf(Psrs, big, 16)
			if err != nil {
				return err
			}
			sampleBig, err := bestOf(Sample, big, 16)
			if err != nil {
				return err
			}
			radixBig, err := bestOf(Radix, big, 16)
			if err != nil {
				return err
			}
			if psrsBig >= sampleBig {
				return fmt.Errorf("64K keys/proc: psrs %.0fns >= sample %.0fns", psrsBig, sampleBig)
			}
			if radixBig >= psrsBig {
				return fmt.Errorf("64K keys/proc: radix %.0fns >= psrs %.0fns", radixBig, psrsBig)
			}
			return nil
		},
	},
	{
		// Beyond-paper interconnect target (DESIGN.md §12), gated on the
		// figtopo grid: on the two-tier chiplet NUMA the CC-SAS vs MPI gap
		// at 64 procs *narrows* relative to the hypercube. The naive
		// expectation is the opposite — fine-grained coherent accesses
		// should suffer most on an expensive inter-package link — but the
		// MPI radix exchange ships the full key volume through explicit
		// copies and pays the inter-package latency on every transferred
		// line, while the CC-SAS program's reads are partially cached and
		// partially package-local. So explicit message passing loses part
		// of its edge when the network gets lumpy, and the simulated
		// CC-SAS/MPI time ratio drops on numa2. Strict inequality: under
		// the flatmem ablation topology is priced uniformly, both ratios
		// coincide exactly, and this target fails — as it must.
		name: "numa2 narrows the CC-SAS vs MPI gap at 64 procs",
		check: func(mod func(*Experiment)) error {
			n := SizeClasses[1].ScaledN
			ratio := func(topo string) (float64, error) {
				cc, err := shapeRun(Experiment{Algorithm: Radix, Model: CCSAS, N: n, Procs: 64, Topo: topo}, mod)
				if err != nil {
					return 0, err
				}
				mp, err := shapeRun(Experiment{Algorithm: Radix, Model: MPI, N: n, Procs: 64, Topo: topo}, mod)
				if err != nil {
					return 0, err
				}
				return cc.TimeNs / mp.TimeNs, nil
			}
			cube, err := ratio("")
			if err != nil {
				return err
			}
			numa, err := ratio("numa2")
			if err != nil {
				return err
			}
			if numa >= cube {
				return fmt.Errorf("CC-SAS/MPI ratio on numa2 %.4f >= hypercube %.4f", numa, cube)
			}
			return nil
		},
	},
	{
		// Figure 4: the original scattered-write CC-SAS radix is
		// MEM-dominated at the largest class of the reduced grid — its
		// memory stall time exceeds both BUSY and SYNC. Asserted on the
		// new trace metrics.
		name: "original CC-SAS radix MEM-dominated at scale",
		check: func(mod func(*Experiment)) error {
			n := SizeClasses[2].ScaledN
			e := Experiment{Algorithm: Radix, Model: CCSAS, N: n, Procs: 16, Trace: true}
			out, err := shapeRun(e, mod)
			if err != nil {
				return err
			}
			tr := out.Trace()
			if tr == nil {
				return fmt.Errorf("no trace attached")
			}
			m := tr.Metrics()
			mem := m["breakdown.lmem_ns"] + m["breakdown.rmem_ns"]
			busy := m["breakdown.busy_ns"]
			sync := m["breakdown.sync_ns"]
			if mem <= busy {
				return fmt.Errorf("MEM %.0fns <= BUSY %.0fns", mem, busy)
			}
			if mem <= sync {
				return fmt.Errorf("MEM %.0fns <= SYNC %.0fns", mem, sync)
			}
			return nil
		},
	},
	{
		// Adversarial-workload target (DESIGN.md §14): the
		// splitter-defeating distribution at 64 procs at least doubles
		// sample sort's receive imbalance (max/mean keys per processor,
		// read off the partition.* trace metrics) over radix sort's,
		// which stays exactly flat — radix redistributes into the blocked
		// layout no matter what the keys look like. Two regimes:
		//
		//  - SampleSize 16 < Procs: the splitter pool has fewer than one
		//    rank per destination, so the attack (and any coarse
		//    distribution) drives the imbalance to ~P/(S+1): 3.75 here.
		//  - Default SampleSize 128 >= Procs: regular-position rank
		//    statistics cap ANY adversary at (S+P)/(S+1) — each
		//    destination absorbs at most one hidden inter-sample gap for
		//    free — and the attack lands on that cap exactly (1.4884 at
		//    S=128, P=64). Both sides are asserted: the attack must beat
		//    1.45x flat, and must not beat the cap (the sampler's
		//    worst case is bounded, which is the paper's argument for
		//    sample sort being safe at S >> P).
		//
		// Teeth: the straggler partition must also show up in the memory
		// system — the worst processor's remote stall time well above the
		// mean — which the flatmem ablation erases (CC-SAS remote misses
		// are all priced local, RMEM = 0).
		name: "adversarial doubles sample imbalance over radix at 64 procs",
		check: func(mod func(*Experiment)) error {
			imb := func(alg Algorithm, sampleSize int) (float64, []float64, error) {
				e := Experiment{
					Algorithm: alg, Model: CCSAS, N: 1 << 18, Procs: 64,
					Dist: keys.Adversarial, SampleSize: sampleSize, Seed: 1, Trace: true,
				}
				out, err := shapeRun(e, mod)
				if err != nil {
					return 0, nil, err
				}
				var rmem []float64
				for _, b := range out.Breakdowns() {
					rmem = append(rmem, b.RMem)
				}
				return out.Trace().Metric("partition.imbalance"), rmem, nil
			}
			sample16, rmem16, err := imb(Sample, 16)
			if err != nil {
				return err
			}
			radix16, _, err := imb(Radix, 16)
			if err != nil {
				return err
			}
			if radix16 > 1.01 {
				return fmt.Errorf("radix imbalance %.4f not flat", radix16)
			}
			if sample16 < 2*radix16 {
				return fmt.Errorf("S<P regime: sample imbalance %.4f < 2x radix %.4f", sample16, radix16)
			}
			sampleDef, _, err := imb(Sample, 0)
			if err != nil {
				return err
			}
			radixDef, _, err := imb(Radix, 0)
			if err != nil {
				return err
			}
			if sampleDef < 1.45*radixDef {
				return fmt.Errorf("default sampler: sample imbalance %.4f < 1.45x radix %.4f", sampleDef, radixDef)
			}
			// (S+P)/(S+1) = 192/129 = 1.4884: no adversary can exceed it.
			if sampleDef > 1.55 {
				return fmt.Errorf("default sampler: imbalance %.4f exceeds the (S+P)/(S+1) cap", sampleDef)
			}
			var maxR, sumR float64
			for _, r := range rmem16 {
				sumR += r
				if r > maxR {
					maxR = r
				}
			}
			if meanR := sumR / float64(len(rmem16)); maxR <= 1.5*meanR {
				return fmt.Errorf("straggler invisible in RMEM: max %.0fns <= 1.5x mean %.0fns", maxR, meanR)
			}
			return nil
		},
	},
	{
		// Adversarial-workload target (DESIGN.md §14): under Zipf skew,
		// PSRS's regular sampling (P-1 splitters from P*(P-1) evenly
		// spaced local ranks) keeps its theoretical <= 2x partition bound
		// while plain sample sort's random-position splitters break it at
		// the same cell — regular sampling is the better splitter
		// selector under skew, the classic Shi & Schaeffer result.
		//
		// Teeth: sample sort's oversized partition must cost real remote
		// traffic on the straggler (max RMEM above the mean), which the
		// flatmem ablation erases.
		name: "psrs holds its 2x partition bound under zipf where sample breaks it",
		check: func(mod func(*Experiment)) error {
			imb := func(alg Algorithm) (float64, []float64, error) {
				e := Experiment{
					Algorithm: alg, Model: CCSAS, N: 1 << 18, Procs: 64,
					Dist: keys.Zipf, Seed: 1, Trace: true,
				}
				out, err := shapeRun(e, mod)
				if err != nil {
					return 0, nil, err
				}
				var rmem []float64
				for _, b := range out.Breakdowns() {
					rmem = append(rmem, b.RMem)
				}
				return out.Trace().Metric("partition.imbalance"), rmem, nil
			}
			psrs, _, err := imb(Psrs)
			if err != nil {
				return err
			}
			sample, rmem, err := imb(Sample)
			if err != nil {
				return err
			}
			if psrs > 2.0 {
				return fmt.Errorf("psrs imbalance %.4f breaks the 2x regular-sampling bound", psrs)
			}
			if sample <= 2.0 {
				return fmt.Errorf("sample imbalance %.4f unexpectedly within 2x", sample)
			}
			if psrs >= sample {
				return fmt.Errorf("psrs imbalance %.4f >= sample %.4f", psrs, sample)
			}
			var maxR, sumR float64
			for _, r := range rmem {
				sumR += r
				if r > maxR {
					maxR = r
				}
			}
			if meanR := sumR / float64(len(rmem)); maxR <= 1.2*meanR {
				return fmt.Errorf("straggler invisible in RMEM: max %.0fns <= 1.2x mean %.0fns", maxR, meanR)
			}
			return nil
		},
	},
}

// TestShapeTargets runs the full suite on the real machine model: every
// target must hold.
func TestShapeTargets(t *testing.T) {
	for _, sc := range shapeChecks {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			if err := sc.check(func(*Experiment) {}); err != nil {
				t.Errorf("shape target violated: %v", err)
			}
		})
	}
}

// TestShapeTargetsFailUnderFlatMemory proves the suite has teeth: under
// the flat-memory ablation (`sortbench -sweep flatmem`: uniform miss cost, no
// coherence protocol, no NUMA) at least one paper-shape target must
// fail. If everything still passes, the shape suite is not actually
// sensitive to the memory-system effects the paper is about.
func TestShapeTargetsFailUnderFlatMemory(t *testing.T) {
	flat := func(e *Experiment) { e.FlatMemory = true }
	var failed []string
	for _, sc := range shapeChecks {
		if err := sc.check(flat); err != nil {
			failed = append(failed, fmt.Sprintf("%s (%v)", sc.name, err))
		}
	}
	if len(failed) == 0 {
		t.Fatal("every shape target still passes under the flatmem ablation; the suite does not depend on the memory model")
	}
	t.Logf("flatmem ablation breaks %d/%d shape targets: %v", len(failed), len(shapeChecks), failed)
}

// TestAdversarialShapeTargetsHaveTeeth pins the ablation sensitivity of
// the two adversarial-workload targets individually: their RMEM
// straggler clauses must each fail under the flatmem ablation (CC-SAS
// remote stalls go to exactly zero there), not just the suite as a
// whole.
func TestAdversarialShapeTargetsHaveTeeth(t *testing.T) {
	flat := func(e *Experiment) { e.FlatMemory = true }
	for _, name := range []string{
		"adversarial doubles sample imbalance over radix at 64 procs",
		"psrs holds its 2x partition bound under zipf where sample breaks it",
	} {
		found := false
		for _, sc := range shapeChecks {
			if sc.name != name {
				continue
			}
			found = true
			if err := sc.check(flat); err == nil {
				t.Errorf("%s: still passes under flatmem; RMEM teeth missing", name)
			} else {
				t.Logf("%s: flatmem breaks it as intended: %v", name, err)
			}
		}
		if !found {
			t.Errorf("shape check %q not found", name)
		}
	}
}
