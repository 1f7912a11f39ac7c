package main

import (
	"fmt"
	"hash"
	"time"

	"repro"
	"repro/internal/keys"
	"repro/internal/sorts"
)

// matrix is a fixed list of cells run one at a time (a cell already runs
// one goroutine per simulated processor): stream-big and comm-small.
type matrix struct {
	ctx   *runCtx
	ids   []string
	exps  []repro.Experiment
	wants []fingerprint // of each cell's input keys
	// refs are each cell's simulated digest from its first run; every
	// later run, untraced or staged, must reproduce it.
	refs []string
}

func newMatrix(ctx *runCtx, ids []string) *matrix {
	return &matrix{ctx: ctx, ids: ids}
}

// prepare generates every cell's input once to fingerprint it, so the
// timed passes can check repro.Run's outputs without holding the keys.
func (mx *matrix) prepare() error {
	for _, id := range mx.ids {
		e, err := parseCell(id, mx.ctx.seed)
		if err != nil {
			return err
		}
		in, err := keys.Generate(e.Dist, keys.GenConfig{N: e.N, Procs: e.Procs, RadixBits: e.Radix, Seed: e.Seed})
		if err != nil {
			return err
		}
		mx.exps = append(mx.exps, e)
		mx.wants = append(mx.wants, fingerprintOf(in))
	}
	mx.refs = make([]string, len(mx.ids))
	return nil
}

func (mx *matrix) pass(rec *recorder, _ int, res *result) (passStats, error) {
	ps := passStats{parts: map[string]float64{}, cells: len(mx.ids), attempted: len(mx.ids)}
	h := newDigest()
	for i, id := range mx.ids {
		c0, t0 := cpuTime(), time.Now()
		var sr *sorts.Result
		var err error
		if rec == nil {
			var out *repro.Outcome
			if out, err = repro.Run(mx.exps[i]); err == nil {
				sr = out.Result
			}
		} else {
			sp := rec.begin(-1, "cell", id)
			sr, err = stagedRun(rec, sp, id, mx.exps[i])
			rec.end(sp)
		}
		wall := time.Since(t0)
		ps.wall += wall
		ps.cpu += cpuTime() - c0
		ps.parts[id] = ms(wall)
		if err != nil {
			res.fail("%s: %v", id, err)
			continue
		}
		mx.check(i, sr, h, res)
		ps.counts.add(countsOf(sr))
	}
	ps.digest = digestString(h)
	return ps, nil
}

// check verifies one cell's output from outside and pins its simulated
// statistics to the cell's first run.
func (mx *matrix) check(i int, sr *sorts.Result, h hash.Hash, res *result) {
	id := mx.ids[i]
	if err := checkSorted(sr.Sorted, mx.wants[i]); err != nil {
		res.fail("%s: %v", id, err)
	}
	ch := newDigest()
	digestResult(ch, id, sr)
	d := digestString(ch)
	if mx.refs[i] == "" {
		mx.refs[i] = d
	} else if mx.refs[i] != d {
		res.fail("%s: simulated results differ from the cell's first run (staged replica or determinism)", id)
	}
	h.Write([]byte(d))
}

func (mx *matrix) layers(rec *recorder, traced passStats, untraced []passStats, res *result, out map[string]float64) error {
	spans := rec.snapshot()
	out["keys.generate_ms"] = sumByName(spans, "keys.Generate")
	out["machine.new_ms"] = sumByName(spans, "machine.New")
	out["machine.release_ms"] = sumByName(spans, "Machine.Release")
	var callMs float64
	var objects, bytes uint64
	for _, s := range spans {
		if n, ok := s.Attrs["allocs"].(uint64); ok {
			callMs += ms(s.dur())
			objects += n
			bytes += s.Attrs["alloc_bytes"].(uint64)
		}
	}
	out["sorts.call_ms"] = callMs
	out["sorts.allocs_per_cell"] = float64(objects) / float64(len(mx.ids))
	out["sorts.alloc_mb_per_cell"] = float64(bytes) / float64(len(mx.ids)) / (1 << 20)

	var refMs []float64
	perCell := map[string][]float64{}
	for _, ps := range append(untraced, traced) {
		for id, v := range ps.parts {
			perCell[id] = append(perCell[id], v)
		}
	}
	for _, ps := range untraced {
		refMs = append(refMs, ms(ps.wall))
	}
	// What a run costs beside the three layers it calls: verify, the
	// copy-out of the sorted keys, the arena release and the glue. Taken
	// inside the traced pass, where the four terms share one clock;
	// against the untraced rounds it would be a difference of two noisy
	// two-second walls.
	out["repro.run_residual_ms"] = ms(traced.wall) - out["keys.generate_ms"] - out["machine.new_ms"] - callMs
	if !mx.ctx.quick {
		for id, vs := range perCell {
			out["cell_ms."+id] = median(vs)
		}
		scaling, err := hostScaling(mx, res, mx.ctx.nproc, untraced)
		if err != nil {
			return err
		}
		out["repro.host_scaling."+mx.ctx.workload] = scaling
		if mx.ctx.workload == "stream-big" {
			frac, err := mx.virtualTraceOverhead(res, median(refMs))
			if err != nil {
				return err
			}
			out["trace.overhead_frac"] = frac
		}
	}
	return nil
}

// virtualTraceOverhead runs the pass with the simulator's own
// virtual-time tracing (Experiment.Trace) on and returns its cost as a
// share of the untraced wall.
func (mx *matrix) virtualTraceOverhead(res *result, refMs float64) (float64, error) {
	var wall time.Duration
	for i, e := range mx.exps {
		e.Trace = true
		t0 := time.Now()
		out, err := repro.Run(e)
		wall += time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail("%s traced: %v", mx.ids[i], err)
			continue
		}
		if out.Trace() == nil {
			return 0, fmt.Errorf("%s: Experiment.Trace produced no trace", mx.ids[i])
		}
	}
	return ms(wall)/refMs - 1, nil
}
