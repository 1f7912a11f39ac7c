package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/shmem"
	"repro/internal/sorts"
)

// A cell id names one experiment: algo-model-n<log2 keys>-p<procs>[-topo],
// radix 8, gauss keys. Model names drop their hyphen (ccsasnew, mpisgi)
// so the id splits on '-'.
var idModels = map[string]repro.Model{
	"seq": repro.Seq, "ccsas": repro.CCSAS, "ccsasnew": repro.CCSASNew,
	"mpi": repro.MPI, "mpisgi": repro.MPISGI, "shmem": repro.SHMEM,
}

func parseCell(id string, seed uint64) (repro.Experiment, error) {
	parts := strings.Split(id, "-")
	if len(parts) < 4 || len(parts) > 5 {
		return repro.Experiment{}, fmt.Errorf("cell id %q: want algo-model-n<log2>-p<procs>[-topo]", id)
	}
	alg, err := repro.ParseAlgorithm(parts[0])
	if err != nil {
		return repro.Experiment{}, fmt.Errorf("cell id %q: %w", id, err)
	}
	model, ok := idModels[parts[1]]
	if !ok {
		return repro.Experiment{}, fmt.Errorf("cell id %q: unknown model %q", id, parts[1])
	}
	logN, err1 := strconv.Atoi(strings.TrimPrefix(parts[2], "n"))
	procs, err2 := strconv.Atoi(strings.TrimPrefix(parts[3], "p"))
	if err1 != nil || err2 != nil || parts[2][0] != 'n' || parts[3][0] != 'p' || logN < 1 || logN > 26 || procs < 1 {
		return repro.Experiment{}, fmt.Errorf("cell id %q: bad size or processor count", id)
	}
	e := repro.Experiment{Algorithm: alg, Model: model, N: 1 << logN, Procs: procs, Radix: 8, Seed: seed}
	if len(parts) == 5 {
		if e.Topo, err = repro.ParseTopology(parts[4]); err != nil {
			return repro.Experiment{}, fmt.Errorf("cell id %q: %w", id, err)
		}
	}
	return e, nil
}

// cellID is the inverse of parseCell for radix-8 gauss experiments on a
// power-of-two key count.
func cellID(e repro.Experiment) string {
	model := strings.ReplaceAll(string(e.Model), "-", "")
	id := fmt.Sprintf("%s-%s-n%d-p%d", e.Algorithm, model, bits.Len(uint(e.N))-1, e.Procs)
	if e.Topo != "" {
		id += "-" + e.Topo
	}
	return id
}

// fingerprint identifies a key multiset independently of its order, with
// other mixing functions than repro's own verifier: the bench checks the
// sorts' outputs from outside.
type fingerprint struct {
	n        int
	sum, sq  uint64
	xorMixed uint64
}

func fingerprintOf(ks []uint32) fingerprint {
	f := fingerprint{n: len(ks)}
	for _, k := range ks {
		v := uint64(k)
		f.sum += v
		f.sq += v * v
		f.xorMixed ^= (v + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	}
	return f
}

// checkSorted reports whether out is ascending and has the multiset
// fingerprint want.
func checkSorted(out []uint32, want fingerprint) error {
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("not ascending at %d", i)
		}
	}
	if got := fingerprintOf(out); got != want {
		return fmt.Errorf("output is not a permutation of the input")
	}
	return nil
}

// simCounts are the simulated statistics of one or more runs. They are
// pure functions of the experiments, so they repeat exactly.
type simCounts struct {
	Accesses, Misses, TLBMisses, Writebacks uint64
	ProtocolTx, Messages, RemoteBytes       int64
	SimNs                                   float64
}

func (c *simCounts) add(o simCounts) {
	c.Accesses += o.Accesses
	c.Misses += o.Misses
	c.TLBMisses += o.TLBMisses
	c.Writebacks += o.Writebacks
	c.ProtocolTx += o.ProtocolTx
	c.Messages += o.Messages
	c.RemoteBytes += o.RemoteBytes
	c.SimNs += o.SimNs
}

func countsOf(res *sorts.Result) simCounts {
	c := simCounts{SimNs: res.TimeNs()}
	for _, ps := range res.Run.PerProc {
		c.Accesses += ps.CacheAccesses
		c.Misses += ps.CacheMisses
		c.TLBMisses += ps.TLBMisses
		c.Writebacks += ps.Writebacks
		c.ProtocolTx += ps.Traffic.ProtocolTransactions
		c.Messages += ps.Traffic.Messages
		c.RemoteBytes += ps.Traffic.RemoteBytes
	}
	return c
}

// digestResult folds one run's simulated time, per-processor breakdowns
// and counts into h (the sim_digest).
func digestResult(h hash.Hash, id string, res *sorts.Result) {
	h.Write([]byte(id))
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f(res.TimeNs())
	for _, ps := range res.Run.PerProc {
		f(ps.Breakdown.Busy)
		f(ps.Breakdown.LMem)
		f(ps.Breakdown.RMem)
		f(ps.Breakdown.Sync)
		u(ps.CacheAccesses)
		u(ps.CacheMisses)
		u(ps.TLBMisses)
		u(ps.Writebacks)
		u(uint64(ps.Traffic.ProtocolTransactions))
		u(uint64(ps.Traffic.Messages))
		u(uint64(ps.Traffic.RemoteBytes))
	}
}

func newDigest() hash.Hash { return sha256.New() }

func digestString(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// stagedRun is a replica of repro.Run built only from the layers' public
// calls, with a span around each: keys.Generate, machine.New, the sorts
// program, the bench's own verify, and Machine.Release. It must return
// bit-equal simulated results to repro.Run (digestResult); the traced pass
// counts a cell as failed otherwise. rec may be nil.
func stagedRun(rec *recorder, parent int, id string, e repro.Experiment) (*sorts.Result, error) {
	if e.Radix == 0 {
		e.Radix = 8
	}
	sp := rec.begin(parent, "keys.Generate", id)
	in, err := keys.Generate(e.Dist, keys.GenConfig{
		N: e.N, Procs: e.Procs, RadixBits: e.Radix, Seed: e.Seed, AdvSamples: e.SampleSize,
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(parent, "machine.New", id)
	m, err := machine.New(repro.MachineConfigFor(e))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if e.Trace {
		m.EnableTracing()
	}
	cfg := sorts.Config{Radix: e.Radix, SampleSize: e.SampleSize, Shmem: shmem.DefaultConfig()}
	cfg.MPI = mpi.DefaultDirect()
	if e.Model == repro.MPISGI {
		cfg.MPI = mpi.DefaultStaged()
	}
	if !e.FullSize {
		cfg.MPI = cfg.MPI.Scaled(float64(machine.ScaleFactor))
		cfg.Shmem = cfg.Shmem.Scaled(float64(machine.ScaleFactor))
	}
	if e.MPIBufDepth > 0 {
		cfg.MPI.BufDepth = e.MPIBufDepth
	}
	cfg.MPIOneMessagePerDest = e.MPIOneMessagePerDest

	program, name, err := programFor(e)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(parent, name, id)
	a0 := readAllocs()
	res, err := program(m, in, cfg)
	a1 := readAllocs()
	rec.end(sp)
	rec.attr(sp, "allocs", a1.objects-a0.objects)
	rec.attr(sp, "alloc_bytes", a1.bytes-a0.bytes)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(parent, "verify", id)
	err = checkSorted(res.Sorted, fingerprintOf(in))
	if err == nil {
		if ck := m.Checker(); ck != nil {
			err = ck.Err()
		}
	}
	// Sorted aliases arena memory; detach it before the release, as
	// repro.Run does.
	res.Sorted = append([]uint32(nil), res.Sorted...)
	rec.end(sp)

	sp = rec.begin(parent, "Machine.Release", id)
	m.Release()
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return res, nil
}

type sortProgram func(*machine.Machine, []uint32, sorts.Config) (*sorts.Result, error)

// programFor maps an experiment to its sorts entry point and span name.
func programFor(e repro.Experiment) (sortProgram, string, error) {
	staged := e.Model == repro.MPI || e.Model == repro.MPISGI
	switch {
	case e.Model == repro.Seq:
		if e.Procs != 1 {
			return nil, "", fmt.Errorf("seq needs Procs=1, got %d", e.Procs)
		}
		return sorts.SeqRadix, "sorts.SeqRadix", nil
	case e.Algorithm == repro.Radix && (e.Model == repro.CCSAS || e.Model == repro.CCSASNew):
		buffered := e.Model == repro.CCSASNew
		return func(m *machine.Machine, in []uint32, c sorts.Config) (*sorts.Result, error) {
			return sorts.RadixCCSAS(m, in, c, buffered)
		}, "sorts.RadixCCSAS", nil
	case e.Algorithm == repro.Radix && staged:
		return sorts.RadixMPI, "sorts.RadixMPI", nil
	case e.Algorithm == repro.Radix && e.Model == repro.SHMEM:
		return sorts.RadixSHMEM, "sorts.RadixSHMEM", nil
	case e.Algorithm == repro.Sample && e.Model == repro.CCSAS:
		return sorts.SampleCCSAS, "sorts.SampleCCSAS", nil
	case e.Algorithm == repro.Sample && staged:
		return sorts.SampleMPI, "sorts.SampleMPI", nil
	case e.Algorithm == repro.Sample && e.Model == repro.SHMEM:
		return sorts.SampleSHMEM, "sorts.SampleSHMEM", nil
	case e.Algorithm == repro.Psrs && e.Model == repro.CCSAS:
		return sorts.PsrsCCSAS, "sorts.PsrsCCSAS", nil
	case e.Algorithm == repro.Psrs && staged:
		return sorts.PsrsMPI, "sorts.PsrsMPI", nil
	case e.Algorithm == repro.Psrs && e.Model == repro.SHMEM:
		return sorts.PsrsSHMEM, "sorts.PsrsSHMEM", nil
	}
	return nil, "", fmt.Errorf("no program for %s/%s", e.Algorithm, e.Model)
}
