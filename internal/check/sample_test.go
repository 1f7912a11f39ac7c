// Tests for spot-sampled paranoid mode (Config.ParanoidSampleEvery,
// DESIGN.md §9): N = 1 is the full per-access shadow, N > 1 keeps the
// fast batched kernels and runs the stateless oracles on every Nth
// priced event. Sampling must never change simulated results, and a
// corrupted fast-path structure must still be caught.
package check_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/check"
	"repro/internal/machine"
)

// sampleCell is a small radix cell exercising the batched kernels on
// every pass (counting, permutation, transfers).
func sampleCell(sampleEvery int) (*repro.Outcome, error) {
	return repro.Run(repro.Experiment{
		Algorithm: repro.Radix, Model: repro.CCSASNew,
		N: 1 << 14, Procs: 8, Radix: 8, Seed: 42,
		Paranoid:            sampleEvery > 0,
		ParanoidSampleEvery: sampleEvery,
	})
}

// TestParanoidSampleIdentical asserts the three paranoid flavors — off,
// full (N=1), and sampled (N=7) — produce bit-identical simulated
// results: same virtual time, same per-processor stats, same output.
// N=1 routes every access through the hooked per-access path; N=7 stays
// on the batched kernels; agreement across all three is the
// differential guarantee the kernels are built on.
func TestParanoidSampleIdentical(t *testing.T) {
	base, err := sampleCell(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7} {
		out, err := sampleCell(n)
		if err != nil {
			t.Fatalf("sample-every=%d: %v", n, err)
		}
		if out.TimeNs != base.TimeNs {
			t.Errorf("sample-every=%d: TimeNs=%v, want %v", n, out.TimeNs, base.TimeNs)
		}
		if !reflect.DeepEqual(out.Result.Run.PerProc, base.Result.Run.PerProc) {
			t.Errorf("sample-every=%d: per-proc stats diverge from unchecked run", n)
		}
		if !reflect.DeepEqual(out.Result.Sorted, base.Result.Sorted) {
			t.Errorf("sample-every=%d: sorted output diverges", n)
		}
	}
}

// TestMutationPriceTableSampled is TestMutationPriceTable under
// spot-sampling: with checks running on only every 5th priced event the
// corrupted (Private, read) price entry must still be reported — the
// cell has far more cold misses than the sampling stride. This is the
// "teeth" test for sampled mode; a sampler that silently stopped
// checking would pass every clean-run test.
func TestMutationPriceTableSampled(t *testing.T) {
	body := func(corrupt bool) *check.Checker {
		cfg := machine.Origin2000Scaled(1)
		cfg.ParanoidSampleEvery = 5
		m := machine.MustNew(cfg)
		if corrupt {
			m.CorruptPriceEntryForTest(machine.Private, false, 0, 0, 7.5)
		}
		arr := machine.NewArrayBlocked[int64](m, "a", 1<<12)
		mustRun(t, m, func(p *machine.Proc) {
			for i := 0; i < arr.Len(); i++ {
				arr.Load(p, i, machine.Private)
			}
		})
		return m.Checker()
	}
	if ck := body(false); ck.Count() != 0 {
		t.Fatalf("control run reported %d violations: %v", ck.Count(), ck.Err())
	}
	ck := body(true)
	if ck.Count() == 0 {
		t.Fatal("corrupted pricing table went undetected under sampling")
	}
	if ok, kinds := hasKind(ck, "price-mismatch"); !ok {
		t.Errorf("no price-mismatch violation; got kinds: %s", kinds)
	}
}
