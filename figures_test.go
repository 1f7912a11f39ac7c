package repro

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/sorts"
)

// tinyOpts keeps harness tests fast: two small classes, two processor
// counts, a narrow radix sweep.
func tinyOpts() Options {
	return Options{
		Procs:        []int{4, 8},
		Sizes:        SizeClasses[:2],
		RadixSweep:   []int{7, 8},
		TableRadixes: []int{8},
	}
}

func TestHarnessTable1(t *testing.T) {
	h := NewHarness(tinyOpts())
	tab, times, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("got %d times", len(times))
	}
	if times[1] <= times[0] {
		t.Errorf("sequential time should grow with size: %v", times)
	}
	// 4x the keys must cost at least 4x the time (capacity effects only
	// add on top).
	if times[1] < 3.9*times[0] {
		t.Errorf("4x keys cost only %.2fx the time", times[1]/times[0])
	}
	if !strings.Contains(tab.String(), "1M") {
		t.Error("table missing size labels")
	}
}

func TestHarnessBaselineCaching(t *testing.T) {
	h := NewHarness(tinyOpts())
	a, err := h.baselineTime(SizeClasses[0].ScaledN, keys.Gauss)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.baselineTime(SizeClasses[0].ScaledN, keys.Gauss)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cached baseline differs: %v vs %v", a, b)
	}
	if len(h.baseline) != 1 {
		t.Errorf("baseline cache holds %d entries, want 1", len(h.baseline))
	}
}

func TestHarnessFigure1Shape(t *testing.T) {
	h := NewHarness(tinyOpts())
	f, err := h.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// NEW must beat SGI in every cell for radix sort.
	for _, s := range f.Sizes {
		for _, p := range f.Procs {
			if f.Get("NEW", s, p) <= f.Get("SGI", s, p) {
				t.Errorf("%s@%dP: NEW (%v) should beat SGI (%v)",
					s, p, f.Get("NEW", s, p), f.Get("SGI", s, p))
			}
		}
	}
	if !strings.Contains(f.Table().String(), "NEW") {
		t.Error("rendered table missing variant")
	}
}

func TestHarnessFigure3Shape(t *testing.T) {
	h := NewHarness(tinyOpts())
	f, err := h.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// At the 4M class, SHMEM beats the original CC-SAS.
	if f.Get("SHMEM", "4M", 8) <= f.Get("CC-SAS", "4M", 8) {
		t.Errorf("SHMEM (%v) should beat CC-SAS (%v) at the 4M class",
			f.Get("SHMEM", "4M", 8), f.Get("CC-SAS", "4M", 8))
	}
	for _, v := range f.Variants {
		for _, s := range f.Sizes {
			for _, p := range f.Procs {
				if f.Get(v, s, p) <= 0 {
					t.Errorf("%s %s@%dP: nonpositive speedup", v, s, p)
				}
			}
		}
	}
}

func TestHarnessFigure4Breakdown(t *testing.T) {
	h := NewHarness(Options{Procs: []int{8}, Sizes: SizeClasses[:1]})
	f, err := h.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 4 {
		t.Fatalf("got %d panels, want 4", len(f.Panels))
	}
	for _, panel := range f.Panels {
		if len(panel.PerProc) != 8 {
			t.Errorf("panel %s has %d procs", panel.Name, len(panel.PerProc))
		}
		if panel.Mean().Total() <= 0 {
			t.Errorf("panel %s empty", panel.Name)
		}
	}
	if !strings.Contains(f.Chart(), "BUSY") {
		t.Error("chart missing legend")
	}
}

func TestHarnessFigure5Shape(t *testing.T) {
	h := NewHarness(Options{Procs: []int{8}, Sizes: SizeClasses[:1]})
	f, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// Gauss is the reference: exactly 1.
	if got := f.Get("gauss", "1M"); got != 1 {
		t.Errorf("gauss relative time = %v, want 1", got)
	}
	// Local is fastest.
	for _, v := range f.Variants {
		if v == "local" {
			continue
		}
		if f.Get("local", "1M") > f.Get(v, "1M") {
			t.Errorf("local (%v) slower than %s (%v)", f.Get("local", "1M"), v, f.Get(v, "1M"))
		}
	}
}

func TestHarnessFigure6Shape(t *testing.T) {
	h := NewHarness(Options{Procs: []int{8}, Sizes: SizeClasses[:2], RadixSweep: []int{6, 8, 12}})
	f, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Get("r=8", "1M"); got != 1 {
		t.Errorf("r=8 must be the reference, got %v", got)
	}
	// A radix far too large for the data is worse than r=8 at the
	// smallest class (too many buckets per key).
	if f.Get("r=12", "1M") <= 1 {
		t.Errorf("r=12 at the smallest class should lose to r=8, got %v", f.Get("r=12", "1M"))
	}
}

// A sweep without radix 8 is relative to its first radix, and the
// title and Reference name that radix, not 8.
func TestHarnessFigure6NamesSweptReference(t *testing.T) {
	h := NewHarness(Options{Procs: []int{4}, Sizes: SizeClasses[:1], RadixSweep: []int{6, 7}})
	f, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Get("r=6", "1M"); got != 1 {
		t.Errorf("r=6 must be the reference, got %v", got)
	}
	if f.Reference != "radix 6" || !strings.HasSuffix(f.Title, "relative to radix 6") {
		t.Errorf("reference %q, title %q: want radix 6 named", f.Reference, f.Title)
	}
}

func TestHarnessTables23(t *testing.T) {
	h := NewHarness(Options{Procs: []int{8}, Sizes: SizeClasses[:2], TableRadixes: []int{8, 11}})
	bt, err := h.Tables23()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Radix, Sample} {
		for _, s := range bt.Sizes {
			cell := bt.Best[alg][s][8]
			if cell.TimeNs <= 0 {
				t.Errorf("%s/%s: empty best cell", alg, s)
			}
			if cell.Model == "" || cell.Radix == 0 {
				t.Errorf("%s/%s: missing winner %+v", alg, s, cell)
			}
		}
	}
	t2 := bt.Table2().String()
	t3 := bt.Table3().String()
	if !strings.Contains(t2, "radix 8P") || !strings.Contains(t3, "sample 8P") {
		t.Error("rendered tables missing headers")
	}
}

func TestHarnessProgressCallback(t *testing.T) {
	var lines int
	opts := Options{
		Procs: []int{4}, Sizes: SizeClasses[:1],
		Progress: func(string, ...any) { lines++ },
	}
	h := NewHarness(opts)
	if _, _, err := h.Table1(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("progress callback never fired")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Procs) != 3 || len(o.Sizes) != 5 || len(o.RadixSweep) != 7 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.Progress == nil {
		t.Error("nil progress not defaulted")
	}
}

func TestHarnessFigureSkew(t *testing.T) {
	h := NewHarness(Options{Procs: []int{8}, Sizes: SizeClasses[:1]})
	f, err := h.FigureSkew()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Variants) != 1+len(keys.SkewDists) {
		t.Fatalf("got %d rows, want gauss + %d skew dists", len(f.Variants), len(keys.SkewDists))
	}
	if len(f.Sizes) != 3 {
		t.Fatalf("got %d program columns, want 3", len(f.Sizes))
	}
	for _, prog := range f.Sizes {
		if got := f.Get(keys.Gauss.String(), prog); got != 1 {
			t.Errorf("%s gauss reference cell = %v, want 1", prog, got)
		}
		for _, d := range keys.SkewDists {
			if v := f.Get(d.String(), prog); v <= 0 {
				t.Errorf("%s/%s relative time %v not positive", prog, d, v)
			}
		}
	}
	// The headline: zipf skew must cost sample sort more than radix sort
	// (splitter-directed exchange vs blocked redistribution).
	if zr, zs := f.Get("zipf", "radix/shmem"), f.Get("zipf", "sample/ccsas"); zs <= zr {
		t.Errorf("zipf: sample relative cost %v <= radix %v", zs, zr)
	}
}

// TestLargestOfUnsortedOptions: the single-configuration figures run at
// the largest processor count and figskew at the largest size class
// however Options lists them, not at the last entry.
func TestLargestOfUnsortedOptions(t *testing.T) {
	h := NewHarness(Options{Procs: []int{64, 16}, Sizes: []SizeClass{SizeClasses[3], SizeClasses[0]}, Parallelism: 1})
	var ran []Experiment
	h.simulate = func(e Experiment) (*Outcome, error) {
		ran = append(ran, e)
		run := &machine.Result{TimeNs: 1, PerProc: make([]machine.ProcStats, e.Procs)}
		return &Outcome{Experiment: e, Result: &sorts.Result{Run: run}, TimeNs: 1}, nil
	}
	for name, figure := range map[string]func() error{
		"fig4":    func() error { _, err := h.Figure4(); return err },
		"fig5":    func() error { _, err := h.Figure5(); return err },
		"fig10":   func() error { _, err := h.Figure10(); return err },
		"figskew": func() error { _, err := h.FigureSkew(); return err },
	} {
		ran = nil
		if err := figure(); err != nil {
			t.Fatal(err)
		}
		for _, e := range ran {
			if e.Procs != 64 {
				t.Errorf("%s ran %s, want 64 processors", name, e.Label())
			}
			if name == "figskew" && e.N != SizeClasses[3].ScaledN {
				t.Errorf("figskew ran %s, want the %s class", e.Label(), SizeClasses[3].Label)
			}
		}
	}
}

// TestFiguresRegistry pins repro.Figures as the one list of tables and
// figures: names are unique, the paper entries come in the order the
// paperfigs golden file prints their blocks, and every exported Table*
// and Figure* method of *Harness is reached from exactly one entry — so
// a figure added without registering it fails here by name. Each entry
// runs over a stub simulation that notes which Harness methods are on
// the stacks of the process's goroutines: the cells run on the
// scheduler's worker, and the entry's method waits for it on the
// caller's.
func TestFiguresRegistry(t *testing.T) {
	golden, err := os.ReadFile("cmd/paperfigs/testdata/paperfigs_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	method := regexp.MustCompile(`\(\*Harness\)\.((?:Table|Figure)\w*)\(`)
	reachedFrom := map[string]string{} // Harness method → the entry that reaches it
	names := map[string]bool{}
	for _, f := range Figures {
		if names[f.Name] {
			t.Errorf("registry lists %q twice", f.Name)
		}
		names[f.Name] = true
		h := NewHarness(Options{
			Procs: []int{4}, Sizes: SizeClasses[:1], RadixSweep: []int{8}, TableRadixes: []int{8}, Parallelism: 1,
		})
		reached := map[string]bool{}
		h.simulate = func(e Experiment) (*Outcome, error) {
			buf := make([]byte, 1<<20)
			for _, m := range method.FindAllSubmatch(buf[:runtime.Stack(buf, true)], -1) {
				reached[string(m[1])] = true
			}
			run := &machine.Result{TimeNs: 1, PerProc: make([]machine.ProcStats, e.Procs)}
			return &Outcome{Experiment: e, Result: &sorts.Result{Run: run}, TimeNs: 1}, nil
		}
		blocks, err := f.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(reached) == 0 {
			t.Errorf("%s reaches no Table*/Figure* method of *Harness", f.Name)
		}
		for m := range reached {
			if other, dup := reachedFrom[m]; dup {
				t.Errorf("Harness.%s is reached from both %s and %s", m, other, f.Name)
			}
			reachedFrom[m] = f.Name
		}
		if f.Extra {
			continue
		}
		for _, b := range blocks {
			title, _, _ := strings.Cut(b, "\n")
			i := bytes.Index(golden, []byte(title+"\n"))
			if i < 0 {
				t.Fatalf("%s: block %q is missing from the golden file, or printed before an earlier entry's", f.Name, title)
			}
			golden = golden[i+len(title):]
		}
	}
	typ := reflect.TypeOf(&Harness{})
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i).Name
		if (strings.HasPrefix(m, "Table") || strings.HasPrefix(m, "Figure")) && reachedFrom[m] == "" {
			t.Errorf("Harness.%s is not reachable from any entry of repro.Figures", m)
		}
	}
}
