// Package stats is the statistical validation layer over the
// experiment harness: it runs an Experiment across an ensemble of K
// seeds and reduces the deterministic per-seed results to per-metric
// summaries (mean, sample stddev, Student-t confidence intervals over
// simulated time and the BUSY/LMEM/RMEM/SYNC breakdown) and pairwise
// comparison verdicts (Welch's t-test: "a<b", "b<a", or "overlapping").
//
// The paper evaluates every figure at a single seed, so each of its
// conclusions is a point estimate; the ensemble engine makes "A is
// faster than B" claims quantitative, and the ordering-regression gate
// (ordering.go) turns the committed expected orderings into a test that
// only fails when an ordering flips *outside* its confidence band.
//
// Everything here is deterministic: seeds are BaseSeed..BaseSeed+K-1,
// cells run through repro.Harness.RunCells (input-order gather on a
// bounded pool), and the Ensemble document serializes only slices in fixed
// variant-major order — so the rendered document is byte-identical at
// any parallelism.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro"
)

// MetricNames are the summarized metrics, in document order: simulated
// execution time, then the per-processor breakdown buckets summed over
// processors.
var MetricNames = []string{"time_ns", "busy_ns", "lmem_ns", "rmem_ns", "sync_ns"}

// Config parameterizes an ensemble run.
type Config struct {
	// Seeds is K, the ensemble size (>= 2; the CI needs a variance).
	Seeds int
	// BaseSeed is the first seed; the ensemble runs Seeds consecutive
	// seeds starting here.
	BaseSeed uint64
	// Confidence is the two-sided CI level: 0.95 (default when 0) or
	// 0.99.
	Confidence float64
	// Parallelism bounds the worker pool (< 1 selects GOMAXPROCS). The
	// resulting document is byte-identical at any value.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	return c
}

func (c Config) validate() error {
	if c.Seeds < 2 {
		return fmt.Errorf("stats: ensemble needs >= 2 seeds, got %d", c.Seeds)
	}
	if c.Confidence != 0.95 && c.Confidence != 0.99 {
		return fmt.Errorf("stats: confidence %g not supported (0.95 or 0.99)", c.Confidence)
	}
	return nil
}

// Variant is one compared configuration: a label plus the experiment
// template. The template's Seed is overwritten per ensemble member.
type Variant struct {
	Label string
	Exp   repro.Experiment
}

// Programs builds variants from "algorithm/model" strings (e.g.
// "radix/shmem"), applying each to the base experiment. This is the
// common case of comparing programs on identical inputs.
func Programs(base repro.Experiment, progs []string) ([]Variant, error) {
	req := repro.Request{N: base.N, Procs: base.Procs, Radix: base.Radix, Dist: base.Dist.String(), Topo: base.Topo}
	var vs []Variant
	for _, p := range progs {
		named, err := program(p, req)
		if err != nil {
			return nil, err
		}
		e := base
		e.Algorithm, e.Model = named.Algorithm, named.Model
		vs = append(vs, Variant{Label: p, Exp: e})
	}
	return vs, nil
}

// program resolves one "algorithm/model" string over a request that
// carries everything else.
func program(p string, req repro.Request) (repro.Experiment, error) {
	var ok bool
	if req.Algorithm, req.Model, ok = strings.Cut(p, "/"); !ok {
		return repro.Experiment{}, fmt.Errorf("stats: program %q is not algorithm/model", p)
	}
	e, _, err := req.Experiment()
	return e, err
}

// Metric is one metric summarized over the ensemble.
type Metric struct {
	Name string `json:"name"`
	// Values are the per-seed observations in seed order.
	Values []float64 `json:"values"`
	Mean   float64   `json:"mean"`
	// Std is the sample standard deviation (n-1 denominator).
	Std float64 `json:"std"`
	// CILo/CIHi bound the two-sided Student-t confidence interval for
	// the mean at the ensemble's confidence level.
	CILo float64 `json:"ci_lo"`
	CIHi float64 `json:"ci_hi"`
}

// VariantSummary is one variant's metrics over the ensemble.
type VariantSummary struct {
	Label string `json:"label"`
	// Experiment is the human-readable label of the underlying
	// experiment (seed-independent part).
	Experiment string   `json:"experiment"`
	Metrics    []Metric `json:"metrics"`
}

// Metric returns the named metric summary, or nil.
func (v *VariantSummary) Metric(name string) *Metric {
	for i := range v.Metrics {
		if v.Metrics[i].Name == name {
			return &v.Metrics[i]
		}
	}
	return nil
}

// Comparison verdicts.
const (
	VerdictALess       = "a<b"         // A significantly faster (lower)
	VerdictBLess       = "b<a"         // B significantly faster (lower)
	VerdictOverlapping = "overlapping" // no significant difference
)

// Comparison is one pairwise Welch's t-test between two variants on one
// metric.
type Comparison struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Metric string  `json:"metric"`
	MeanA  float64 `json:"mean_a"`
	MeanB  float64 `json:"mean_b"`
	// T is Welch's t statistic and DF the Welch–Satterthwaite degrees
	// of freedom. Both are 0 when the pooled standard error is zero
	// (every seed identical); significance then reduces to exact
	// inequality of the means.
	T           float64 `json:"t"`
	DF          float64 `json:"df"`
	Significant bool    `json:"significant"`
	Verdict     string  `json:"verdict"`
}

// Ensemble is the serializable result document. All collections are
// slices in deterministic order (variant-major, then MetricNames order,
// then pair order), so Document bytes never depend on parallelism.
type Ensemble struct {
	Schema      string           `json:"schema"`
	Seeds       int              `json:"seeds"`
	BaseSeed    uint64           `json:"base_seed"`
	Confidence  float64          `json:"confidence"`
	Variants    []VariantSummary `json:"variants"`
	Comparisons []Comparison     `json:"comparisons"`
}

// Variant returns the named variant summary, or nil.
func (e *Ensemble) Variant(label string) *VariantSummary {
	for i := range e.Variants {
		if e.Variants[i].Label == label {
			return &e.Variants[i]
		}
	}
	return nil
}

// Comparison returns the time_ns comparison for the (a, b) pair in
// either orientation, or nil.
func (e *Ensemble) Comparison(a, b string) *Comparison {
	for i := range e.Comparisons {
		c := &e.Comparisons[i]
		if c.Metric != "time_ns" {
			continue
		}
		if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
			return c
		}
	}
	return nil
}

// Document renders the ensemble as indented JSON with a trailing
// newline: the byte-identity unit for the determinism guarantee and the
// payload the result cache stores.
func (e *Ensemble) Document() ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunEnsemble runs every variant across cfg.Seeds consecutive seeds on
// the shared worker pool and reduces the results. Variant labels must
// be unique; any failing cell fails the ensemble.
func RunEnsemble(cfg Config, variants []Variant) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("stats: no variants")
	}
	seen := map[string]bool{}
	for _, v := range variants {
		if seen[v.Label] {
			return nil, fmt.Errorf("stats: duplicate variant label %q", v.Label)
		}
		seen[v.Label] = true
	}
	cells := make([]repro.Experiment, 0, len(variants)*cfg.Seeds)
	for _, v := range variants {
		for k := 0; k < cfg.Seeds; k++ {
			e := v.Exp
			e.Seed = cfg.BaseSeed + uint64(k)
			cells = append(cells, e)
		}
	}
	outs, err := repro.NewHarness(repro.Options{Parallelism: cfg.Parallelism}).RunCells(cells)
	if err != nil {
		return nil, err
	}
	ens := &Ensemble{
		Schema:     "ensemble/v1",
		Seeds:      cfg.Seeds,
		BaseSeed:   cfg.BaseSeed,
		Confidence: cfg.Confidence,
	}
	for vi, v := range variants {
		vals := make(map[string][]float64, len(MetricNames))
		for k := 0; k < cfg.Seeds; k++ {
			o := outs[vi*cfg.Seeds+k]
			var sum [4]float64
			for _, b := range o.PerProc {
				sum[0] += b.Busy
				sum[1] += b.LMem
				sum[2] += b.RMem
				sum[3] += b.Sync
			}
			vals["time_ns"] = append(vals["time_ns"], o.TimeNs)
			vals["busy_ns"] = append(vals["busy_ns"], sum[0])
			vals["lmem_ns"] = append(vals["lmem_ns"], sum[1])
			vals["rmem_ns"] = append(vals["rmem_ns"], sum[2])
			vals["sync_ns"] = append(vals["sync_ns"], sum[3])
		}
		vs := VariantSummary{Label: v.Label, Experiment: v.Exp.Label()}
		for _, name := range MetricNames {
			vs.Metrics = append(vs.Metrics, Summarize(name, vals[name], cfg.Confidence))
		}
		ens.Variants = append(ens.Variants, vs)
	}
	for i := range ens.Variants {
		for j := i + 1; j < len(ens.Variants); j++ {
			ens.Comparisons = append(ens.Comparisons,
				Compare(&ens.Variants[i], &ens.Variants[j], "time_ns", cfg.Confidence))
		}
	}
	return ens, nil
}

// Summarize reduces per-seed observations to a Metric with a two-sided
// Student-t confidence interval for the mean.
func Summarize(name string, values []float64, confidence float64) Metric {
	m := Metric{Name: name, Values: values}
	n := float64(len(values))
	for _, v := range values {
		m.Mean += v
	}
	m.Mean /= n
	if len(values) > 1 {
		ss := 0.0
		for _, v := range values {
			d := v - m.Mean
			ss += float64(d * d)
		}
		m.Std = math.Sqrt(ss / (n - 1))
	}
	half := tCrit(confidence, n-1) * m.Std / math.Sqrt(n)
	m.CILo, m.CIHi = m.Mean-half, m.Mean+half
	return m
}

// Compare runs Welch's t-test between two variants on one metric.
func Compare(a, b *VariantSummary, metric string, confidence float64) Comparison {
	ma, mb := a.Metric(metric), b.Metric(metric)
	c := Comparison{A: a.Label, B: b.Label, Metric: metric, MeanA: ma.Mean, MeanB: mb.Mean}
	na, nb := float64(len(ma.Values)), float64(len(mb.Values))
	va, vb := ma.Std*ma.Std/na, mb.Std*mb.Std/nb
	se := math.Sqrt(va + vb)
	if se == 0 {
		// Fully deterministic in both variants: no sampling noise, so
		// any difference of means is exact.
		c.Significant = c.MeanA != c.MeanB
	} else {
		c.T = (c.MeanA - c.MeanB) / se
		c.DF = (va + vb) * (va + vb) /
			(va*va/(na-1) + vb*vb/(nb-1))
		c.Significant = math.Abs(c.T) > tCrit(confidence, c.DF)
	}
	switch {
	case !c.Significant:
		c.Verdict = VerdictOverlapping
	case c.MeanA < c.MeanB:
		c.Verdict = VerdictALess
	default:
		c.Verdict = VerdictBLess
	}
	return c
}

// Two-sided Student-t critical values for df 1..30 (index df-1):
// quantiles 0.975 (95% CI) and 0.995 (99% CI).
var (
	t975 = []float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	t995 = []float64{
		63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
	}
)

// tCrit returns the two-sided critical t value. Fractional df
// (Welch–Satterthwaite) is floored and df beyond the table is clamped
// to 30 — both choices yield the larger critical value, i.e. are
// conservative about declaring significance.
func tCrit(confidence, df float64) float64 {
	table := t975
	if confidence == 0.99 {
		table = t995
	}
	i := int(df)
	if i < 1 {
		i = 1
	}
	if i > len(table) {
		i = len(table)
	}
	return table[i-1]
}
