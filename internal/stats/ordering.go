// The ordering-regression gate: a committed baseline of expected
// program orderings per (dist, size, procs) cell, re-derived from small
// seed ensembles by a go test gate that fails only when an ordering
// flips *with significance* — a pair whose confidence bands overlap is
// allowed to land in either order, so the gate is robust to noise-level
// churn while still catching real performance inversions.
package stats

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro"
)

// Baseline is the committed ordering document
// (internal/stats/testdata/orderings.json).
type Baseline struct {
	// Seeds/BaseSeed/Confidence configure the ensembles the gate runs
	// to re-derive each cell's ordering.
	Seeds      int            `json:"seeds"`
	BaseSeed   uint64         `json:"base_seed"`
	Confidence float64        `json:"confidence"`
	Cells      []BaselineCell `json:"cells"`
}

// BaselineCell is one (dist, size, procs) grid cell with its expected
// program ordering.
type BaselineCell struct {
	Name  string `json:"name"`
	Dist  string `json:"dist"`
	N     int    `json:"n"`
	Procs int    `json:"procs"`
	// Programs are the compared "algorithm/model" variants.
	Programs []string `json:"programs"`
	// Order is the expected ordering by mean simulated time, fastest
	// first.
	Order []string `json:"order"`
}

// LoadBaseline reads an ordering baseline document.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("stats: %s: %w", path, err)
	}
	return &b, nil
}

// Save writes the baseline document (the -update path).
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Variants resolves the cell's programs into ensemble variants.
func (c BaselineCell) Variants() ([]Variant, error) {
	var vs []Variant
	for _, p := range c.Programs {
		e, err := program(p, repro.Request{N: c.N, Procs: c.Procs, Dist: c.Dist})
		if err != nil {
			return nil, fmt.Errorf("stats: cell %s: %w", c.Name, err)
		}
		vs = append(vs, Variant{Label: p, Exp: e})
	}
	return vs, nil
}

// DeriveOrder returns the ensemble's variant labels ordered by mean
// simulated time, fastest first (ties broken by label for
// determinism).
func DeriveOrder(e *Ensemble) []string {
	order := make([]string, len(e.Variants))
	for i := range e.Variants {
		order[i] = e.Variants[i].Label
	}
	mean := func(label string) float64 { return e.Variant(label).Metric("time_ns").Mean }
	sort.Slice(order, func(a, b int) bool {
		ma, mb := mean(order[a]), mean(order[b])
		if ma != mb {
			return ma < mb
		}
		return order[a] < order[b]
	})
	return order
}

// Flips compares an expected ordering against an ensemble and returns
// one message per *significant* inversion: a pair the baseline orders
// one way whose Welch comparison says the opposite with significance.
// Pairs whose confidence bands overlap never flip. A label-set mismatch
// between baseline and ensemble is reported as a flip (the baseline is
// stale).
func Flips(baselineOrder []string, e *Ensemble) []string {
	var flips []string
	pos := make(map[string]int, len(baselineOrder))
	for i, l := range baselineOrder {
		pos[l] = i
	}
	if len(baselineOrder) != len(e.Variants) {
		return []string{fmt.Sprintf("baseline lists %d programs, ensemble has %d",
			len(baselineOrder), len(e.Variants))}
	}
	for i := range e.Variants {
		if _, ok := pos[e.Variants[i].Label]; !ok {
			return []string{fmt.Sprintf("ensemble variant %q not in baseline order", e.Variants[i].Label)}
		}
	}
	for i := range e.Comparisons {
		c := &e.Comparisons[i]
		if c.Metric != "time_ns" || !c.Significant {
			continue
		}
		// The significantly faster program must precede the other in the
		// baseline order.
		fast, slow := c.A, c.B
		if c.Verdict == VerdictBLess {
			fast, slow = c.B, c.A
		}
		if pos[fast] > pos[slow] {
			flips = append(flips, fmt.Sprintf(
				"%s vs %s: baseline expects %s faster, measured %s faster (t=%.2f, df=%.1f, mean %s=%.0f %s=%.0f)",
				c.A, c.B, slow, fast, c.T, c.DF, c.A, c.MeanA, c.B, c.MeanB))
		}
	}
	return flips
}

// CellResult is one gate evaluation: the re-derived ordering, the
// significant inversions against the baseline, and the full ensemble
// for inspection.
type CellResult struct {
	Cell         BaselineCell
	DerivedOrder []string
	Flips        []string
	Ensemble     *Ensemble
}

// CheckCell runs the cell's ensemble and evaluates it against the
// cell's expected order.
func CheckCell(cfg Config, cell BaselineCell) (*CellResult, error) {
	vs, err := cell.Variants()
	if err != nil {
		return nil, err
	}
	ens, err := RunEnsemble(cfg, vs)
	if err != nil {
		return nil, fmt.Errorf("stats: cell %s: %w", cell.Name, err)
	}
	return &CellResult{
		Cell:         cell,
		DerivedOrder: DeriveOrder(ens),
		Flips:        Flips(cell.Order, ens),
		Ensemble:     ens,
	}, nil
}

// CheckBaseline evaluates every cell, using the baseline's ensemble
// parameters, and returns the per-cell results in cell order.
func CheckBaseline(b *Baseline, parallelism int) ([]*CellResult, error) {
	cfg := Config{
		Seeds:       b.Seeds,
		BaseSeed:    b.BaseSeed,
		Confidence:  b.Confidence,
		Parallelism: parallelism,
	}
	results := make([]*CellResult, len(b.Cells))
	for i, cell := range b.Cells {
		r, err := CheckCell(cfg, cell)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}
