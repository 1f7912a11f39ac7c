package perfmodel

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/shmem"
	"repro/internal/sorts"
)

// scaledPredictor mirrors the experiment harness's scaled configuration.
func scaledPredictor(t *testing.T, procs int) *Predictor {
	t.Helper()
	cfg := machine.Origin2000Scaled(procs)
	pr, err := New(cfg, mpi.DefaultDirect(), shmem.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pr
}

func TestPredictValidation(t *testing.T) {
	pr := scaledPredictor(t, 16)
	bad := []Workload{
		{N: 0, Procs: 16, Radix: 8},
		{N: 1 << 16, Procs: 0, Radix: 8},
		{N: 1 << 16, Procs: 16, Radix: 0},
		{N: 1 << 16, Procs: 16, Radix: 20},
	}
	for _, w := range bad {
		if _, err := pr.Predict(SHMEM, w); err == nil {
			t.Errorf("accepted %+v", w)
		}
	}
	if _, err := pr.Predict("bogus", Workload{N: 1 << 16, Procs: 16, Radix: 8}); err == nil {
		t.Error("accepted unknown model")
	}
}

// TestWorkloadPasses: a workload's radix sets the pass count the model
// charges, ceil(31/r); the sync phase is two barriers per pass.
func TestWorkloadPasses(t *testing.T) {
	pr := scaledPredictor(t, 16)
	for _, c := range []struct{ radix, passes int }{{8, 4}, {11, 3}} {
		p, err := pr.Predict(MPI, Workload{N: 1 << 16, Procs: 16, Radix: c.radix})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Phases["sync"] / (2 * pr.cfg.BarrierCost(16)); got != float64(c.passes) {
			t.Errorf("radix %d passes = %v, want %d", c.radix, got, c.passes)
		}
	}
}

func TestPredictionPhasesSumToTotal(t *testing.T) {
	pr := scaledPredictor(t, 16)
	for _, m := range []Model{CCSAS, CCSASNew, MPI, SHMEM} {
		p, err := pr.Predict(m, Workload{N: 1 << 18, Procs: 16, Radix: 8})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range p.Phases {
			sum += v
		}
		if d := sum - p.TimeNs; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: phases sum %v != total %v", m, sum, p.TimeNs)
		}
	}
}

func TestPredictOrderingMatchesSimulatorAtScale(t *testing.T) {
	// The model's raison d'être: at a large size class the predicted
	// ranking must match the simulator's headline ordering — SHMEM/MPI
	// ahead of CC-SAS-NEW ahead of the original CC-SAS.
	const procs = 16
	const n = 1 << 20 // 16M class
	pr := scaledPredictor(t, procs)
	ranked, err := pr.PredictAll(Workload{N: n, Procs: procs, Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[len(ranked)-1].Model != CCSAS {
		t.Errorf("predicted worst = %s, want ccsas", ranked[len(ranked)-1].Model)
	}
	pos := map[Model]int{}
	for i, p := range ranked {
		pos[p.Model] = i
	}
	if pos[SHMEM] > pos[CCSASNew] {
		t.Errorf("predicted SHMEM (%d) behind CC-SAS-NEW (%d)", pos[SHMEM], pos[CCSASNew])
	}
}

func TestPredictWithinFactorOfSimulator(t *testing.T) {
	// Absolute accuracy target: within 3x of the simulated time for each
	// model at a mid-size configuration (an analytic model with no
	// cache simulation cannot do much better; the paper wanted ranking).
	const procs, n = 16, 1 << 18
	pr := scaledPredictor(t, procs)
	in := keys.MustGenerate(keys.Gauss, keys.GenConfig{N: n, Procs: procs, RadixBits: 8})
	cfg := sorts.Config{Radix: 8, MPI: mpi.DefaultDirect()}
	runSim := func(model Model) float64 {
		m, err := machine.New(machine.Origin2000Scaled(procs))
		if err != nil {
			t.Fatal(err)
		}
		var res *sorts.Result
		switch model {
		case CCSAS:
			res, err = sorts.RadixCCSAS(m, in, cfg, false)
		case CCSASNew:
			res, err = sorts.RadixCCSAS(m, in, cfg, true)
		case MPI:
			res, err = sorts.RadixMPI(m, in, cfg)
		case SHMEM:
			res, err = sorts.RadixSHMEM(m, in, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeNs()
	}
	for _, model := range []Model{CCSAS, CCSASNew, MPI, SHMEM} {
		pred, err := pr.Predict(model, Workload{N: n, Procs: procs, Radix: 8})
		if err != nil {
			t.Fatal(err)
		}
		sim := runSim(model)
		ratio := pred.TimeNs / sim
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: predicted %v vs simulated %v (ratio %.2f), want within 3x",
				model, pred.TimeNs, sim, ratio)
		}
	}
}

func TestPredictMorePassesCostMore(t *testing.T) {
	pr := scaledPredictor(t, 16)
	r8, _ := pr.Predict(SHMEM, Workload{N: 1 << 20, Procs: 16, Radix: 8})
	r6, _ := pr.Predict(SHMEM, Workload{N: 1 << 20, Procs: 16, Radix: 6})
	if r6.TimeNs <= r8.TimeNs {
		t.Errorf("radix 6 (6 passes, %v) should cost more than radix 8 (4 passes, %v) at scale",
			r6.TimeNs, r8.TimeNs)
	}
}

func TestPredictScalesWithN(t *testing.T) {
	pr := scaledPredictor(t, 16)
	small, _ := pr.Predict(SHMEM, Workload{N: 1 << 16, Procs: 16, Radix: 8})
	big, _ := pr.Predict(SHMEM, Workload{N: 1 << 20, Procs: 16, Radix: 8})
	if big.TimeNs < 8*small.TimeNs {
		t.Errorf("16x keys predicted only %.1fx the time", big.TimeNs/small.TimeNs)
	}
}
