// Package sorts implements the paper's sorting programs on the simulated
// DSM machine: a sequential radix sort (the speedup baseline, Table 1)
// and parallel radix sort, sample sort and PSRS (Parallel Sorting by
// Regular Sampling) under the CC-SAS (original and locally-buffered
// "NEW"), MPI and SHMEM programming models. Every parallel program runs
// on any processor count the machine can wire; the baseline runs on one.
//
// Each algorithm is one per-processor program (radix.go, sample.go,
// psrs.go) written against the unexported backend interface
// (backend.go); the three backends carry everything that differs
// between the models — storage, small collectives, the planned
// all-to-all, barriers — and one frame, runProgram, resolves the
// config, lays out and loads the storage, runs the program on every
// processor and builds the Result. The sequential baseline
// (localsort.go) is one more body in that frame, over a layout that
// keeps all its arrays on processor 0. A new algorithm is one file: its
// per-processor body plus its Variants() rows.
//
// Every program operates on real data — results are bitwise-verifiable
// sorted permutations of the input — while charging simulated time
// through the machine layer, so the same run yields both a correctness
// check and the paper's performance metrics.
package sorts

import (
	"fmt"
	"math/bits"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/shmem"
)

// groupSize is the paper's fixed CC-SAS sample sort parameter: samples
// are collected in groups of 32 processes. (The key width and the
// sampler's geometry belong to the keys package.)
const groupSize = 32

// The per-key ALU operations the local radix kernels charge on top of
// their memory accesses: countPass's shift, mask, counter load/add/store
// and loop control, and permutePass's shift/mask, position
// load/bump/store, addressing and loop control. The analytic model
// (internal/perfmodel) prices a pass from the same two numbers.
const (
	CountOpsPerKey   = 8
	PermuteOpsPerKey = 13
)

// Config parameterizes a sort.
type Config struct {
	// Radix is the digit size r in bits. The paper studies 6..12 (and up
	// to 14 in Table 3).
	Radix int
	// SampleSize is sample sort's per-processor sample count
	// (keys.DefaultSamples, the paper's 128, when zero).
	SampleSize int
	// MPI configures the message-passing library for the MPI variants.
	MPI mpi.Config
	// MPIOneMessagePerDest switches the radix MPI permutation to the
	// NAS-IS style: one message per destination carrying all its chunks,
	// reorganized into place by the receiver. The paper measured both and
	// found per-chunk messages faster on the Origin2000; this variant
	// exists for that ablation.
	MPIOneMessagePerDest bool
	// Shmem is read by nothing: the one-sided library's costs are
	// constants scaled by the machine. It remains for the frozen
	// cmd/bench, its only caller.
	Shmem shmem.Config
}

// DefaultConfig returns the paper's defaults: radix 8, 128 samples per
// processor, the improved (Direct/NEW) MPI.
func DefaultConfig() Config {
	return Config{
		Radix:      8,
		SampleSize: keys.DefaultSamples,
		MPI:        mpi.DefaultDirect(),
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Radix == 0 {
		c.Radix = d.Radix
	}
	if c.SampleSize == 0 {
		c.SampleSize = d.SampleSize
	}
	if c.MPI == (mpi.Config{}) {
		c.MPI = d.MPI
	}
	return c
}

// resolved fills the defaults and validates: what every program does
// with the Config it is handed.
func (c Config) resolved() (Config, error) {
	c = c.withDefaults()
	return c, c.validate()
}

func (c Config) validate() error {
	if c.Radix < 1 || c.Radix > keys.MaxRadixBits {
		return fmt.Errorf("sorts: radix %d out of [1,%d]", c.Radix, keys.MaxRadixBits)
	}
	if c.SampleSize < 1 {
		return fmt.Errorf("sorts: sample size %d must be positive", c.SampleSize)
	}
	return nil
}

// Buckets returns 2^Radix.
func (c Config) Buckets() int { return 1 << c.Radix }

// Variant is one algorithm × programming-model program. Variants is the
// single table every front end and test looks programs up in.
type Variant struct {
	// Algorithm is "radix", "sample" or "psrs"; Model is the model's
	// public name: "seq", "ccsas", "ccsas-new", "mpi", "mpi-sgi", "shmem".
	Algorithm, Model string
	// Engine is the MPI library the model names (Config.MPI's engine).
	Engine mpi.Engine
	Sort   func(m *machine.Machine, keys []uint32, cfg Config) (*Result, error)
	// Procs, when set, is the one processor count the program runs on:
	// the sequential baseline's 1. Zero means any count.
	Procs int
}

// Variants lists every program, each algorithm's models in the order the
// paper's figures use. The slice is shared: callers must not modify it.
func Variants() []Variant { return variants }

var variants = []Variant{
	{"radix", "seq", mpi.Direct, SeqRadix, 1},
	{"radix", "ccsas", mpi.Direct, radixCCSAS(false), 0},
	{"radix", "ccsas-new", mpi.Direct, radixCCSAS(true), 0},
	{"radix", "mpi", mpi.Direct, RadixMPI, 0},
	{"radix", "mpi-sgi", mpi.Staged, RadixMPI, 0},
	{"radix", "shmem", mpi.Direct, RadixSHMEM, 0},
	{"sample", "ccsas", mpi.Direct, SampleCCSAS, 0},
	{"sample", "mpi", mpi.Direct, SampleMPI, 0},
	{"sample", "mpi-sgi", mpi.Staged, SampleMPI, 0},
	{"sample", "shmem", mpi.Direct, SampleSHMEM, 0},
	{"psrs", "ccsas", mpi.Direct, PsrsCCSAS, 0},
	{"psrs", "mpi", mpi.Direct, PsrsMPI, 0},
	{"psrs", "mpi-sgi", mpi.Staged, PsrsMPI, 0},
	{"psrs", "shmem", mpi.Direct, PsrsSHMEM, 0},
}

func radixCCSAS(buffered bool) func(*machine.Machine, []uint32, Config) (*Result, error) {
	return func(m *machine.Machine, keys []uint32, cfg Config) (*Result, error) {
		return RadixCCSAS(m, keys, cfg, buffered)
	}
}

// Result reports one sort run.
type Result struct {
	// Algorithm is "radix", "sample" or "psrs"; Model names the
	// programming model variant.
	Algorithm, Model string
	// Sorted is the output permutation (ascending).
	Sorted []uint32
	// RecvCounts is the number of keys each processor received in the
	// algorithm's main redistribution: the single splitter-directed
	// exchange for sample sort and PSRS (so skewed splitters show up as
	// imbalance), and the blocked layout for radix sort and the
	// sequential baseline (flat by construction).
	RecvCounts []int
	// Run carries the simulated timing and per-processor stats.
	Run *machine.Result
}

// TimeNs returns the simulated execution time.
func (r *Result) TimeNs() float64 { return r.Run.TimeNs }

// ilog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ilog2(n int) int { return bits.Len(uint(n - 1)) }
