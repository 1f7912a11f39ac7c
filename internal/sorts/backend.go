package sorts

import (
	"repro/internal/keys"
	"repro/internal/machine"
)

// algorithm names the program a backend allocates and communicates for.
type algorithm int

const (
	algRadix algorithm = iota
	algSample
	algPsrs
)

// String is the Result.Algorithm name.
func (a algorithm) String() string { return [...]string{"radix", "sample", "psrs"}[a] }

// runProgram is the one place a sort meets the machine. It resolves cfg,
// has lay allocate alg's storage — samples, when set, gives from the
// resolved config each processor's sample count — loads the keys, and
// runs body, the algorithm's per-processor program, on every processor
// with the storage, the resolved config and that sample count. Each body
// returns the processor's piece of the sorted output, and the Result is
// built from those pieces.
func runProgram(m *machine.Machine, keysIn []uint32, cfg Config, lay layout, alg algorithm,
	samples func(cfg Config, n, procs int) int,
	body func(p *machine.Proc, st *store, cfg Config, samples int) part) (*Result, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return nil, err
	}
	n, P := len(keysIn), m.Procs()
	perProc := 0
	if samples != nil {
		perProc = samples(cfg, n, P)
	}
	st := lay.alloc(m, cfg, alg, n, perProc)
	st.load(keysIn)
	m.ResetMemory()

	final := make([]part, P)
	run, err := m.Run(func(p *machine.Proc) { final[p.ID] = body(p, st, cfg, perProc) })
	if err != nil {
		return nil, err
	}
	// RecvCounts: the key count of each processor's output run.
	sizes := make([]int, P)
	for i, pt := range final {
		sizes[i] = pt.n
	}
	return &Result{Algorithm: alg.String(), Model: lay.model(), Sorted: gather(final, n),
		RecvCounts: sizes, Run: run}, nil
}

// layout is what runProgram needs of a program's model: where the run's
// arrays live, and the model's name.
type layout interface {
	// alloc binds the model to the run's machine and lays out its
	// arrays: the key pair, the send or receive buffers alg needs, the
	// per-processor histograms and a backend's own collective vectors
	// (perProc is the sample count each processor publishes). The address
	// space is one bump allocator and addresses shape cache behaviour, so
	// each model's allocation order is part of its simulated result.
	alloc(m *machine.Machine, cfg Config, alg algorithm, n, perProc int) *store
	// model is the Result.Model string.
	model() string
}

// backend is one programming model as the sorting programs see it. The
// paper holds each algorithm fixed and varies only the model, so each
// algorithm is written once (radix.go, sample.go, psrs.go) against this
// interface, and the three implementations — CC-SAS loads and stores,
// MPI messages, SHMEM puts and gets — carry everything that differs:
// where the arrays live, how a small vector reaches the processors that
// need it, how the planned all-to-all moves the keys, and where the
// barriers and the contention window fall. The paper's model-specific
// tricks are fields of the implementations. Methods are called per phase
// or per chunk, never per key; a backend value serves one run.
type backend interface {
	layout
	// received is the sharing class of keys an exchange delivered into a
	// processor's partition, as the next local sweep reads them.
	received() machine.Sharing

	// histograms shares one radix pass's local histogram and returns the
	// plan of the pass's exchange.
	histograms(p *machine.Proc, counts []int32) *chunkPlan
	// permuteTarget says where the pass's local permutation writes.
	permuteTarget(p *machine.Proc, plan *chunkPlan, nxt *partitioned) target
	// splitters turns every processor's sorted samples into sample
	// sort's P-1 splitters, the same on all processors.
	splitters(p *machine.Proc, samples []uint32) []uint32
	// publishSamples and pivots are the two halves of PSRS's pivot step:
	// each processor hands over its regular samples, then processor 0
	// alone selects the pivots and broadcasts them.
	publishSamples(p *machine.Proc, samples []uint32)
	pivots(p *machine.Proc, samples []uint32) []uint32
	// routes shares the partition boundaries of this processor's sorted
	// run (keys bnd[d]..bnd[d+1] go to processor d) and returns the
	// splitter-directed plan. PSRS needs it placed — everyone learns
	// every count, so incoming runs have known offsets and can be merged;
	// sample sort takes whatever the model gets cheapest.
	routes(p *machine.Proc, bnd []int64, placed bool) *chunkPlan

	// exchange runs the planned all-to-all from the processors' from
	// partitions into their to partitions, inside the backend's
	// contention window and between whatever barriers its transfers
	// need, and returns how many keys this processor now holds in to.
	exchange(p *machine.Proc, plan *chunkPlan, from, to *partitioned, x xfer) int
}

// xfer is what an algorithm tells its backend about one exchange: the
// tag of its messages (MPI), and the phases its data movement and its
// barrier waits are attributed to — the radix sorts report them apart
// (Figure 4). Empty labels keep the caller's current phase.
type xfer struct {
	tag            int
	transfer, sync string
}

// label switches to a phase named in an xfer.
func label(p *machine.Proc, name string) {
	if name != "" {
		p.SetPhase(name)
	}
}

// target is where a radix pass's local permutation writes: pos[d] is the
// index in arr of digit d's next key, class prices the scattered stores
// and contention scales their remote share.
type target struct {
	arr        *machine.Array[uint32]
	pos        []int64
	class      machine.Sharing
	contention float64
}

// bufferTarget is the target of every backend that composes a
// bucket-major send buffer first.
func bufferTarget(st *store, plan *chunkPlan, me int) target {
	pos := make([]int64, plan.buckets)
	copy(pos, plan.bufPos[me])
	return target{arr: st.buf.part[me].arr, pos: pos, class: machine.Private, contention: 1}
}

// part is one processor's piece of a partitioned array: elements
// [lo, lo+n) of arr.
type part struct {
	arr   *machine.Array[uint32]
	lo, n int
}

// partitioned is one logical key array split across the processors:
// slices of one shared array under CC-SAS (which any processor may
// write directly), private or symmetric per-processor arrays under MPI
// and SHMEM.
type partitioned struct {
	part   []part
	shared bool
}

func newPartitioned(procs int) *partitioned {
	return &partitioned{part: make([]part, procs)}
}

// store is the storage of one run.
type store struct {
	// keys holds the input partitions; tmp is the same-shaped array the
	// local sorts and the radix passes toggle with.
	keys, tmp *partitioned
	// buf is radix sort's bucket-major send buffers (nil when the
	// backend permutes straight into the output).
	buf *partitioned
	// recv and out are the splitter sorts' receive buffer and the array
	// the final local phase toggles with or merges into; both reserve n
	// keys of address space per processor (the eventual fill is
	// data-dependent) and commit host memory as keys arrive.
	recv, out *partitioned
	// hist is each processor's private histogram array.
	hist []*machine.Array[int32]
}

// onProc allocates processor i's partition of an n-key array.
func onProc(m *machine.Machine, name string, n, i int) part {
	lo, hi := keys.Bounds(n, m.Procs(), i)
	return part{arr: machine.NewArrayOnProc[uint32](m, name, hi-lo, i), n: hi - lo}
}

// reserved allocates an empty buffer on processor i that can grow to n
// keys.
func reserved(m *machine.Machine, name string, n, i int) part {
	return part{arr: machine.NewArrayReserve[uint32](m, name, n, i)}
}

// load copies the input into the key partitions.
func (st *store) load(keysIn []uint32) {
	for i, pt := range st.keys.part {
		lo, _ := keys.Bounds(len(keysIn), len(st.keys.part), i)
		copy(pt.arr.Data[pt.lo:pt.lo+pt.n], keysIn[lo:lo+pt.n])
	}
}

// gather concatenates the per-processor output runs.
func gather(final []part, n int) []uint32 {
	out := make([]uint32, 0, n)
	for _, pt := range final {
		out = append(out, pt.arr.Data[pt.lo:pt.lo+pt.n]...)
	}
	return out
}

// copyRun moves one run with the processor's own loads and stores.
func copyRun(p *machine.Proc, src part, srcOff int, dst part, dstOff, count int,
	srcClass, dstClass machine.Sharing) {
	s, d := src.lo+srcOff, dst.lo+dstOff
	src.arr.LoadRange(p, s, s+count, srcClass)
	copy(dst.arr.Data[d:d+count], src.arr.Data[s:s+count])
	dst.arr.StoreRange(p, d, d+count, dstClass)
	p.Compute(count)
}

// receiver places one processor's incoming runs: at the plan's offsets,
// or — under an unplaced plan — packed in arrival order, growing the
// buffer as they come.
type receiver struct {
	dst    part
	packed bool
	// held is how many keys dst holds: known up front under a placed
	// plan, counted as runs are packed otherwise.
	held int
}

// newReceiver prepares processor me's destination. A splitter-directed
// exchange whose counts are all known commits the receive buffer once.
func newReceiver(plan *chunkPlan, dst part, me int) *receiver {
	r := &receiver{dst: dst, packed: !plan.placed(), held: dst.n}
	if plan.parts != nil {
		return r
	}
	r.held = 0
	if k := plan.incoming(me); k >= 0 {
		dst.arr.Grow(k)
		if !r.packed {
			r.held = k
		}
	}
	return r
}

// place returns the destination offset of an incoming run.
func (r *receiver) place(ch chunk) int {
	if !r.packed {
		return ch.dstOff
	}
	off := r.held
	r.held += ch.count
	r.dst.arr.Grow(r.held)
	return off
}
