// Differential test suite for paranoid mode (DESIGN.md §9).
//
// TestParanoidAllPrograms runs every sorting program at small N with the
// paranoid checker enabled: each run shadows every simulated access with
// the reference cache/TLB/page-home/protocol models and asserts the
// structural invariants, so a pass means the fast paths and the
// reference semantics agree access-by-access on real workloads.
//
// The mutation tests then prove the oracle has teeth: each one injects a
// deliberate corruption into a fast-path structure (a pricing-table
// entry, a PSRS partition boundary; machine's in-package
// TestParanoidCatchesDroppedLine covers the cache) and asserts the
// checker reports it.
package check_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/check"
	"repro/internal/machine"
	"repro/internal/sorts"
)

// TestParanoidAllPrograms is the differential suite: all program
// combinations (the paper's 8 plus the staged-copy MPI variants) at
// 1/4/16 procs with paranoid mode on, asserting zero violations. The
// sequential baseline only exists at procs=1.
func TestParanoidAllPrograms(t *testing.T) {
	type combo struct {
		algo  repro.Algorithm
		model repro.Model
	}
	combos := []combo{
		{repro.Radix, repro.Seq},
		{repro.Radix, repro.CCSAS},
		{repro.Radix, repro.CCSASNew},
		{repro.Radix, repro.MPI},
		{repro.Radix, repro.MPISGI},
		{repro.Radix, repro.SHMEM},
		{repro.Sample, repro.CCSAS},
		{repro.Sample, repro.MPI},
		{repro.Sample, repro.MPISGI},
		{repro.Sample, repro.SHMEM},
		{repro.Psrs, repro.CCSAS},
		{repro.Psrs, repro.MPI},
		{repro.Psrs, repro.MPISGI},
		{repro.Psrs, repro.SHMEM},
	}
	procs := []int{1, 4, 16}
	if testing.Short() {
		procs = []int{4}
	}
	for _, c := range combos {
		for _, p := range procs {
			if c.model == repro.Seq && p != 1 {
				continue
			}
			name := fmt.Sprintf("%s-%s-p%d", c.algo, c.model, p)
			c, p := c, p
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				out, err := repro.Run(repro.Experiment{
					Algorithm: c.algo, Model: c.model,
					N: 1 << 13, Procs: p, Radix: 8,
					Paranoid: true,
				})
				if err != nil {
					t.Fatalf("paranoid run failed: %v", err)
				}
				if !out.Verified {
					t.Error("output not verified sorted")
				}
			})
		}
	}
}

// TestParanoidMatchesNormalRun pins the "byte-identical results" half of
// the paranoid contract: the same experiment with and without the
// checker must report the same simulated time.
func TestParanoidMatchesNormalRun(t *testing.T) {
	run := func(paranoid bool) float64 {
		out, err := repro.Run(repro.Experiment{
			Algorithm: repro.Radix, Model: repro.SHMEM,
			N: 1 << 13, Procs: 8, Radix: 8, Paranoid: paranoid,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.TimeNs
	}
	if normal, paranoid := run(false), run(true); normal != paranoid {
		t.Errorf("simulated time diverges: normal=%v paranoid=%v", normal, paranoid)
	}
}

// mustRun runs body on m and fails the test if the run failed.
func mustRun(tb testing.TB, m *machine.Machine, body func(p *machine.Proc)) *machine.Result {
	tb.Helper()
	res, err := m.Run(body)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// hasKind reports whether the checker recorded at least one violation of
// the given kind, and returns the kinds seen for the failure message.
func hasKind(ck *check.Checker, kind string) (bool, string) {
	var kinds []string
	for _, v := range ck.Violations() {
		kinds = append(kinds, v.Kind)
		if v.Kind == kind {
			return true, ""
		}
	}
	return false, strings.Join(kinds, ", ")
}

// TestMutationPriceTable corrupts one pricing-table entry — the
// (Private, read) miss price for node 0's local home — and asserts the
// live-protocol price oracle catches the divergence on the first cold
// miss. Without the corruption the identical body reports nothing.
func TestMutationPriceTable(t *testing.T) {
	body := func(corrupt bool) *check.Checker {
		cfg := machine.Origin2000Scaled(1)
		cfg.ParanoidSampleEvery = 1
		m := machine.MustNew(cfg)
		if corrupt {
			m.CorruptPriceEntryForTest(machine.Private, false, 0, 0, 7.5)
		}
		arr := machine.NewArrayBlocked[int64](m, "a", 1<<12)
		mustRun(t, m, func(p *machine.Proc) {
			for i := 0; i < arr.Len(); i++ {
				arr.Load(p, i, machine.Private) // cold misses hit the corrupted row
			}
		})
		return m.Checker()
	}
	if ck := body(false); ck.Count() != 0 {
		t.Fatalf("control run reported %d violations: %v", ck.Count(), ck.Err())
	}
	ck := body(true)
	if ck.Count() == 0 {
		t.Fatal("corrupted pricing table went undetected")
	}
	if ok, kinds := hasKind(ck, "price-mismatch"); !ok {
		t.Errorf("no price-mismatch violation; got kinds: %s", kinds)
	}
	if err := ck.Err(); err == nil || !strings.Contains(err.Error(), "price-mismatch") {
		t.Errorf("Err() = %v, want a price-mismatch violation", err)
	}
}

// TestMutationPsrsPartitionBoundary corrupts one processor's PSRS
// partition boundary vector (shifting a cut point into the next
// destination's range) and asserts the corruption is caught by the
// sorted-output oracle — every model's exchange and merge execute the
// bad plan faithfully, so the failure must surface as an invalid
// output, not as a silent repricing or a crash. The control run with
// the hook installed but inert must pass.
func TestMutationPsrsPartitionBoundary(t *testing.T) {
	body := func(model repro.Model, corrupt bool) error {
		sorts.SetCorruptPSRSBoundaryForTest(func(proc, np int, b []int64) {
			if !corrupt || proc != 0 || len(b) < 3 {
				return
			}
			// Move the first cut halfway toward the second: keys that
			// belong to destination 0 leak into destination 1, breaking
			// ascending order at the partition junction.
			b[1] = (b[1] + b[2] + 1) / 2
		})
		defer sorts.SetCorruptPSRSBoundaryForTest(nil)
		_, err := repro.Run(repro.Experiment{
			Algorithm: repro.Psrs, Model: model,
			N: 1 << 13, Procs: 4, Radix: 8,
		})
		return err
	}
	for _, model := range []repro.Model{repro.CCSAS, repro.MPI, repro.SHMEM} {
		if err := body(model, false); err != nil {
			t.Fatalf("%s control run failed: %v", model, err)
		}
		err := body(model, true)
		if err == nil {
			t.Fatalf("%s: corrupted partition boundary went undetected", model)
		}
		if !strings.Contains(err.Error(), "output invalid") {
			t.Errorf("%s: error %v, want the sorted-output oracle's 'output invalid'", model, err)
		}
	}
}
