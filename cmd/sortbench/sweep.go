package main

import (
	"fmt"

	"repro"
	"repro/internal/keys"
	"repro/internal/report"
)

// reduction turns a sweep's cells, once the harness has run them, into
// the table the sweep prints.
type reduction func(cells []repro.Cell) *report.Table

// sweeps maps each -sweep kind to its two halves: the cells it expands
// the base experiment into, and their reduction.
var sweeps = map[string]func(base repro.Experiment) ([]repro.Experiment, reduction){
	"radix":    radixSweep,
	"bufdepth": bufDepthSweep,
	"flatmem": func(base repro.Experiment) ([]repro.Experiment, reduction) {
		return ablation(base, "flatmem", func(e *repro.Experiment) { e.FlatMemory = true })
	},
	"nocontention": func(base repro.Experiment) ([]repro.Experiment, reduction) {
		return ablation(base, "nocontention", func(e *repro.Experiment) { e.NoContention = true })
	},
}

func radixSweep(base repro.Experiment) ([]repro.Experiment, reduction) {
	radixes := []int{6, 7, 8, 9, 10, 11, 12}
	exps := make([]repro.Experiment, len(radixes))
	for i, r := range radixes {
		exps[i] = base
		exps[i].Radix = r
	}
	return exps, func(cells []repro.Cell) *report.Table {
		ref := 0.0
		for i, r := range radixes {
			if r == 8 {
				ref = cells[i].TimeNs
			}
		}
		t := &report.Table{
			Title:  fmt.Sprintf("Radix-size sweep: %s/%s n=%d procs=%d", base.Algorithm, base.Model, base.N, base.Procs),
			Header: []string{"radix", "passes", "time", "vs r=8"},
		}
		for i, r := range radixes {
			t.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%d", keys.Passes(r)),
				report.Ms(cells[i].TimeNs), report.F(cells[i].TimeNs/ref))
		}
		return t
	}
}

// bufDepthSweep is the paper's §4.2: deeper per-pair buffers alleviate
// MPI's SYNC stalls but do not eliminate them (and cost O(p^2) memory).
func bufDepthSweep(base repro.Experiment) ([]repro.Experiment, reduction) {
	depths := []int{1, 2, 4, 16, 64}
	exps := make([]repro.Experiment, len(depths))
	for i, depth := range depths {
		exps[i] = base
		exps[i].Model = repro.MPI
		exps[i].MPIBufDepth = depth
	}
	return exps, func(cells []repro.Cell) *report.Table {
		t := &report.Table{
			Title:  fmt.Sprintf("MPI window-depth ablation: %s n=%d procs=%d", base.Algorithm, base.N, base.Procs),
			Header: []string{"depth", "time", "sum SYNC (ms)"},
		}
		for i, depth := range depths {
			var sync float64
			for _, b := range cells[i].PerProc {
				sync += b.Sync
			}
			t.AddRow(fmt.Sprintf("%d", depth), report.Ms(cells[i].TimeNs), report.F(sync/1e6))
		}
		return t
	}
}

// ablation runs every model of the base algorithm (the staged MPI
// library aside) twice, as modeled and with one mechanism ablated.
func ablation(base repro.Experiment, kind string, ablate func(*repro.Experiment)) ([]repro.Experiment, reduction) {
	var models []repro.Model
	for _, mo := range repro.Models(base.Algorithm) {
		if mo != repro.MPISGI {
			models = append(models, mo)
		}
	}
	// Two cells per model: real then ablated.
	exps := make([]repro.Experiment, 0, 2*len(models))
	for _, mo := range models {
		e := base
		e.Model = mo
		exps = append(exps, e)
		ablate(&e)
		exps = append(exps, e)
	}
	return exps, func(cells []repro.Cell) *report.Table {
		t := &report.Table{
			Title: fmt.Sprintf("%s ablation: %s n=%d procs=%d (all %s models)",
				kind, base.Algorithm, base.N, base.Procs, base.Algorithm),
			Header: []string{"model", "real", "ablated", "speedup lost"},
		}
		for i, mo := range models {
			real, abl := cells[2*i].TimeNs, cells[2*i+1].TimeNs
			t.AddRow(string(mo), report.Ms(real), report.Ms(abl), report.F(real/abl))
		}
		return t
	}
}
