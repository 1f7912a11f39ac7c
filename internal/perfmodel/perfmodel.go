// Package perfmodel implements the paper's stated future work: an
// analytic formula that predicts parallel radix sort performance per
// programming model from machine parameters and workload shape, without
// running the program.
//
// The model decomposes one radix pass into the paper's phases —
// histogram sweep, histogram accumulation/exchange, permutation, and
// synchronization — and prices each from first principles using the same
// machine constants the simulator uses. The one machine.Config it is
// given says everything about the machine: its geometry, and through
// its Scale the fixed software costs of the barrier, the MPI engine and
// SHMEM, which it divides exactly as the libraries do
// (machine.Config.SoftwareNs), so no caller scales a library config to
// match. Its purpose is what the authors intended: given a profile-free
// description of machine and workload, say which programming model will
// win and by roughly how much. The package's tests validate the
// predictions against the simulator.
package perfmodel

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/coherence"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/shmem"
	"repro/internal/sorts"
	"repro/internal/topology"
)

// Workload describes one radix sort run of the paper's 31-bit keys.
type Workload struct {
	// N is the total key count; Procs the processor count; Radix the
	// digit width in bits.
	N, Procs, Radix int
}

// Model names a predicted programming model.
type Model string

// Predicted models.
const (
	CCSAS    Model = "ccsas"
	CCSASNew Model = "ccsas-new"
	MPI      Model = "mpi"
	SHMEM    Model = "shmem"
)

// Prediction is the analytic estimate for one model.
type Prediction struct {
	Model Model
	// TimeNs is the predicted execution time.
	TimeNs float64
	// Phases itemizes per-pass costs (already multiplied by pass count),
	// keyed by phase name: "sweep", "histogram", "permute", "transfer",
	// "sync".
	Phases map[string]float64
}

// Predictor prices workloads on one machine configuration.
type Predictor struct {
	cfg machine.Config
	// msgNs, getNs and entryNs are the MPI per-message overhead and the
	// SHMEM get and collective-entry costs on cfg's machine: the
	// libraries' full-size constants divided by its scale.
	msgNs, getNs, entryNs float64
	// remoteAvgNs is the mean uncontended remote read latency the
	// three-hop estimate uses. On the default hypercube it is the
	// historical closed form (RemoteBase + 2·Hop, preserved bit-for-bit);
	// on other interconnects it is the exact mean over all remote node
	// pairs of the built network.
	remoteAvgNs float64
}

// New builds a predictor for cfg's machine and mpiCfg's engine. The
// shmem argument is ignored; it remains for the frozen cmd/bench, its
// only caller.
func New(cfg machine.Config, mpiCfg mpi.Config, _ shmem.Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pr := &Predictor{cfg: cfg, msgNs: cfg.SoftwareNs(mpiCfg.Engine.OverheadNs()),
		getNs: cfg.SoftwareNs(shmem.GetOverheadNs), entryNs: cfg.SoftwareNs(shmem.CollectiveEntryNs)}
	if cfg.Topology.Kind == "" || cfg.Topology.Kind == topology.KindHypercube {
		pr.remoteAvgNs = topology.RemoteBaseLatency + topology.HopLatency*2
	} else {
		net, err := topology.New(cfg.Topology)
		if err != nil {
			return nil, err
		}
		sum, pairs := 0.0, 0
		for a := 0; a < net.Nodes(); a++ {
			for b := 0; b < net.Nodes(); b++ {
				if a != b {
					sum += net.ReadLatency(a, b)
					pairs++
				}
			}
		}
		pr.remoteAvgNs = topology.RemoteBaseLatency
		if pairs > 0 {
			pr.remoteAvgNs = sum / float64(pairs)
		}
	}
	return pr, nil
}

// The per-key ALU charges of the sorts' local radix kernels: the
// histogram sweep's ops plus 3 for histogram access bookkeeping, and the
// permutation's.
const (
	sweepOpsPerKey   = sorts.CountOpsPerKey + 3
	permuteOpsPerKey = sorts.PermuteOpsPerKey
)

// lineKeys returns keys per cache line.
func (pr *Predictor) lineKeys() float64 { return float64(pr.cfg.Cache.LineSize) / 4 }

// dataBytes is the size of a data message: one line plus a control
// header, as coherence.Protocol.DataBytes.
func (pr *Predictor) dataBytes() int { return pr.cfg.Cache.LineSize + coherence.CtrlBytes }

// localMissNs prices a local two-hop fill.
func (pr *Predictor) localMissNs() float64 {
	return topology.LocalLatency + coherence.DirOccupancy +
		float64(pr.dataBytes())/topology.LinkBandwidth
}

// remoteMissNs prices an average remote three-hop intervention.
func (pr *Predictor) remoteMissNs() float64 {
	avg := pr.remoteAvgNs
	return avg + coherence.DirOccupancy + avg +
		float64(pr.dataBytes())/topology.LinkBandwidth
}

// missRatio estimates the fraction of per-key accesses that miss in a
// streaming pass: one miss per line when the working set exceeds the
// cache, vanishing when it fits comfortably.
func (pr *Predictor) missRatio(bytesPerProc int) float64 {
	perLine := 1 / pr.lineKeys()
	ratio := float64(2*bytesPerProc) / float64(pr.cfg.Cache.Size) // src+dst toggling
	if ratio >= 1 {
		return perLine
	}
	return perLine * ratio
}

// tlbMissRatio estimates scattered-write TLB misses per key: the writer
// cycles through one active page per bucket, competing with the read
// stream for the TLB, so misses ramp smoothly once the active set
// reaches about half the TLB and saturate as it dwarfs it.
func (pr *Predictor) tlbMissRatio(spanBytes, buckets int) float64 {
	pages := spanBytes / pr.cfg.TLB.PageSize
	active := buckets
	if active > pages {
		active = pages
	}
	pressure := float64(active) / float64(pr.cfg.TLB.Entries)
	if pressure <= 0.5 {
		return 0
	}
	return 1 - 1/(2*pressure)
}

// Predict returns the analytic estimate for one model.
func (pr *Predictor) Predict(model Model, w Workload) (*Prediction, error) {
	if w.N <= 0 || w.Procs <= 0 || w.Radix < 1 || w.Radix > keys.MaxRadixBits {
		return nil, fmt.Errorf("perfmodel: bad workload %+v", w)
	}
	passes := float64(keys.Passes(w.Radix))
	np := float64(w.N / w.Procs)
	buckets := 1 << w.Radix

	phases := map[string]float64{}

	// Histogram sweep: busy + streamed key reads + TLB-free sequential
	// access.
	sweepBusy := float64(np * sweepOpsPerKey * machine.OpNs)
	sweepMem := float64(np * pr.missRatio(int(np)*4) * pr.localMissNs() / machine.MissOverlap)
	phases["sweep"] = passes * (sweepBusy + sweepMem)

	// Permutation: busy + the local write stream (all models permute
	// locally first except plain CC-SAS, which scatters remotely).
	permBusy := float64(np * permuteOpsPerKey * machine.OpNs)
	tlbLocal := float64(np * pr.tlbMissRatio(int(np)*4, buckets) * machine.TLBMissNs)
	phases["permute"] = passes * (permBusy + tlbLocal)

	remoteFrac := 1 - 1/float64(w.Procs) // fraction of keys leaving the processor
	bytesMoved := np * 4 * remoteFrac
	wire := bytesMoved / topology.LinkBandwidth

	switch model {
	case CCSAS:
		// Scattered remote writes: per-line three-hop ownership transfers
		// plus writebacks, under saturated-scatter contention; TLB misses
		// span the whole output array.
		cont := pr.cfg.ScatteredContention(w.Procs, int(np)*4)
		lines := np / pr.lineKeys() * remoteFrac
		scatter := lines * (float64(pr.remoteMissNs()/machine.MissOverlap) + pr.wbNs()) * cont
		tlbGlobal := float64(np * pr.tlbMissRatio(w.N*4, buckets) * machine.TLBMissNs)
		phases["transfer"] = passes * scatter
		phases["permute"] = passes * (permBusy + tlbGlobal)
		phases["histogram"] = passes * pr.treeNs(w.Procs, buckets)
	case CCSASNew:
		cont := 1 + float64((pr.cfg.ScatteredContention(w.Procs, int(np)*4)-1)/2)
		lines := np / pr.lineKeys() * remoteFrac
		phases["transfer"] = passes * lines * (pr.remoteMissNs() / machine.MissOverlap) * cont
		phases["histogram"] = passes * pr.treeNs(w.Procs, buckets)
	case SHMEM:
		chunks := float64(buckets)
		get := pr.getNs + topology.RemoteBaseLatency
		phases["transfer"] = passes * (float64(chunks*get) + wire)
		phases["histogram"] = passes * pr.collectNs(w.Procs, buckets)
	case MPI:
		chunks := float64(buckets)
		msg := 2*pr.msgNs + topology.RemoteBaseLatency
		phases["transfer"] = passes * (float64(chunks*msg) + wire)
		phases["histogram"] = passes * pr.allgatherNs(w.Procs, buckets)
	default:
		return nil, fmt.Errorf("perfmodel: unknown model %q", model)
	}

	// Synchronization: two barriers per pass.
	phases["sync"] = passes * 2 * pr.cfg.BarrierCost(w.Procs)

	total := 0.0
	for _, v := range phases {
		total += v
	}
	return &Prediction{Model: model, TimeNs: total, Phases: phases}, nil
}

// PredictAll ranks all models for a workload, best first.
func (pr *Predictor) PredictAll(w Workload) ([]*Prediction, error) {
	models := []Model{SHMEM, MPI, CCSASNew, CCSAS}
	out := make([]*Prediction, 0, len(models))
	for _, m := range models {
		p, err := pr.Predict(m, w)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	// Stable, so tied models keep the order above.
	slices.SortStableFunc(out, func(a, b *Prediction) int { return cmp.Compare(a.TimeNs, b.TimeNs) })
	return out, nil
}

// treeNs prices the CC-SAS prefix tree's critical path.
func (pr *Predictor) treeNs(procs, buckets int) float64 {
	if procs == 1 {
		return 0
	}
	levels := bits.Len(uint(procs - 1))
	lines := float64(buckets*4) / float64(pr.cfg.Cache.LineSize)
	perLevel := float64(lines*pr.remoteMissNs()/machine.MissOverlap) +
		topology.RemoteBaseLatency + // flag transfer
		float64(2*float64(buckets)*machine.OpNs)
	return 2 * float64(levels) * perLevel
}

// collectNs prices the SHMEM histogram allgather.
func (pr *Predictor) collectNs(procs, buckets int) float64 {
	bytes := float64((procs - 1) * buckets * 4)
	gets := float64(procs - 1)
	return pr.entryNs +
		float64(gets*(pr.getNs+topology.RemoteBaseLatency)) +
		bytes/topology.LinkBandwidth
}

// allgatherNs prices the MPI recursive-doubling histogram allgather.
func (pr *Predictor) allgatherNs(procs, buckets int) float64 {
	if procs == 1 {
		return 0
	}
	rounds := bits.Len(uint(procs - 1))
	bytes := float64((procs - 1) * buckets * 4)
	perRound := 2*pr.msgNs + topology.RemoteBaseLatency
	return float64(float64(rounds)*perRound) + bytes/topology.LinkBandwidth
}

// wbNs prices one writeback's charged share.
func (pr *Predictor) wbNs() float64 {
	return coherence.DirOccupancy +
		float64(pr.dataBytes()+coherence.CtrlBytes)/topology.LinkBandwidth
}
