package sorts

import (
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

func TestRadixPhaseAttribution(t *testing.T) {
	m := scaled(t, 8)
	in := genKeys(t, keys.Gauss, 1<<15, 8, 8)
	res, err := RadixCCSAS(m, in, Config{Radix: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Run.PerProc[3]
	if ps.Phases == nil {
		t.Fatal("no phase breakdowns recorded")
	}
	for _, want := range []string{"count", "histogram", "permute", "sync"} {
		if _, ok := ps.Phases[want]; !ok {
			t.Errorf("missing phase %q (have %v)", want, phaseNames(ps.Phases))
		}
	}
	// Phase totals must not exceed the overall breakdown.
	var phaseSum float64
	for _, b := range ps.Phases {
		phaseSum += b.Total()
	}
	if phaseSum > ps.Breakdown.Total()+1e-6 {
		t.Errorf("phase sum %v exceeds total %v", phaseSum, ps.Breakdown.Total())
	}
	// In the original CC-SAS at scale, the permute phase dominates.
	if ps.Phases["permute"].Total() < ps.Phases["count"].Total() {
		t.Errorf("permute (%v) should dominate count (%v) in scattered CC-SAS",
			ps.Phases["permute"].Total(), ps.Phases["count"].Total())
	}
}

func TestSamplePhaseAttribution(t *testing.T) {
	m := scaled(t, 8)
	in := genKeys(t, keys.Gauss, 1<<15, 8, 8)
	res, err := SampleSHMEM(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Run.PerProc[0]
	for _, want := range []string{"localsort1", "splitters", "redistribute", "localsort2"} {
		if _, ok := ps.Phases[want]; !ok {
			t.Errorf("missing phase %q (have %v)", want, phaseNames(ps.Phases))
		}
	}
	// The two local sorts together dominate sample sort at scale (the
	// paper's explanation for its large-size loss to radix).
	sorts := ps.Phases["localsort1"].Total() + ps.Phases["localsort2"].Total()
	if sorts < ps.Phases["redistribute"].Total() {
		t.Errorf("local sorts (%v) should dominate redistribution (%v)",
			sorts, ps.Phases["redistribute"].Total())
	}
}

func TestPsrsPhaseAttribution(t *testing.T) {
	m := scaled(t, 8)
	in := genKeys(t, keys.Gauss, 1<<15, 8, 8)
	res, err := PsrsSHMEM(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Run.PerProc[0]
	for _, want := range []string{"localsort", "sample", "pivot-exchange", "partition", "transfer", "merge"} {
		if _, ok := ps.Phases[want]; !ok {
			t.Errorf("missing phase %q (have %v)", want, phaseNames(ps.Phases))
		}
	}
	// The single local radix sort dominates the multiway merge — that
	// the merge is cheaper than a second local sort is exactly PSRS's
	// structural advantage over the splitter-based sample sort.
	if ps.Phases["merge"].Total() >= ps.Phases["localsort"].Total() {
		t.Errorf("merge (%v) should be cheaper than localsort (%v)",
			ps.Phases["merge"].Total(), ps.Phases["localsort"].Total())
	}
}

func TestShmemRadixTransferPhaseRemote(t *testing.T) {
	m := scaled(t, 8)
	in := genKeys(t, keys.Remote, 1<<15, 8, 8)
	res, err := RadixSHMEM(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Run.PerProc[2].Phases["transfer"]
	if tr.RMem == 0 {
		t.Error("transfer phase recorded no remote time under the remote distribution")
	}
}

func phaseNames(m map[string]machine.Breakdown) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// phaseSet collects the distinct phase labels recorded across all
// processors of a run, sorted.
func phaseSet(run *machine.Result) []string {
	seen := make(map[string]bool)
	for _, ps := range run.PerProc {
		for name := range ps.Phases {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runVariant runs one entry of the program table the way a front end
// does: on a scaled machine (one processor for the sequential baseline)
// with the MPI library the model names.
func runVariant(t *testing.T, v Variant, procs int, in []uint32, cfg Config) *Result {
	t.Helper()
	if v.Model == "seq" {
		procs = 1
	}
	cfg.MPI = mpi.ConfigFor(v.Engine)
	res, err := v.Sort(scaled(t, procs), in, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", v.Algorithm, v.Model, err)
	}
	return res
}

// TestPhaseLabelsConsistent is the SetPhase audit: every paper phase
// must be labeled, with identical names across programming models, so
// Figure 4/8 panels and trace spans align. The radix sorts share
// {count, histogram, permute, transfer, sync} (the original CC-SAS
// scatters in place, so it has no separate transfer; MPI's sync time is
// message waiting inside transfer, so it has no separate sync); the
// sample sorts share {localsort1, splitters, redistribute, localsort2};
// PSRS labels its six phases identically across models — the merge phase
// replaces the sample sorts' second local sort, and barrier/message
// waiting stays inside the surrounding phase, so no separate sync label
// exists under any model; the sequential baseline is one localsort.
// Iterating the program table means a new variant cannot skip the audit.
func TestPhaseLabelsConsistent(t *testing.T) {
	const procs, n, radix = 8, 1 << 13, 8
	in := genKeys(t, keys.Gauss, n, procs, radix)
	want := map[string][]string{
		"radix/seq":       {"localsort"},
		"radix/ccsas":     {"count", "histogram", "permute", "sync"},
		"radix/ccsas-new": {"count", "histogram", "permute", "sync", "transfer"},
		"radix/mpi":       {"count", "histogram", "permute", "transfer"},
		"radix/mpi-sgi":   {"count", "histogram", "permute", "transfer"},
		"radix/shmem":     {"count", "histogram", "permute", "sync", "transfer"},
		"sample":          {"localsort1", "localsort2", "redistribute", "splitters"},
		"psrs":            {"localsort", "merge", "partition", "pivot-exchange", "sample", "transfer"},
	}
	for _, v := range Variants() {
		id := v.Algorithm + "/" + v.Model
		w, ok := want[id]
		if !ok {
			w, ok = want[v.Algorithm]
		}
		if !ok {
			t.Errorf("%s: no expected phase set — extend this audit", id)
			continue
		}
		res := runVariant(t, v, procs, in, Config{Radix: radix})
		if got := phaseSet(res.Run); !equalStrings(got, w) {
			t.Errorf("%s phases = %v, want %v", id, got, w)
		}
	}
}

// TestPhaseBreakdownsCoverTotal checks, for every program in the table,
// that per-phase breakdowns account for every charged nanosecond: no
// charge lands outside a labeled phase.
func TestPhaseBreakdownsCoverTotal(t *testing.T) {
	const procs, n, radix = 4, 1 << 12, 8
	in := genKeys(t, keys.Gauss, n, procs, radix)
	for _, v := range Variants() {
		res := runVariant(t, v, procs, in, Config{Radix: radix})
		for i, ps := range res.Run.PerProc {
			var phased machine.Breakdown
			for _, b := range ps.Phases {
				phased.Add(b)
			}
			total := ps.Breakdown.Total()
			if diff := total - phased.Total(); diff > 1e-6*total+1e-3 || diff < -(1e-6*total+1e-3) {
				t.Errorf("%s/%s proc %d: phases cover %v of %v ns (unlabeled charges)",
					v.Algorithm, v.Model, i, phased.Total(), total)
			}
		}
	}
}
