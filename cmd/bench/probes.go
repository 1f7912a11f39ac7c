package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/ccsas"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/resultcache"
	"repro/internal/shmem"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Probes are direct calls into single layers on deterministic synthetic
// inputs. They do not depend on the workload, so every traced run
// reports the same probe set; each value is the median of a few
// repetitions of a loop sized to a few milliseconds.

const probeReps = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// perOp times fn(iters) probeReps times and returns the median
// nanoseconds per iteration.
func perOp(iters int, fn func(iters int)) float64 {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		fn(iters)
		ns = append(ns, float64(time.Since(t0))/float64(iters))
	}
	return median(ns)
}

// lcg is the scattered-address generator of the layers' own benchmarks.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func runProbes(ctx *runCtx, out map[string]float64) error {
	for _, probe := range []func(*runCtx, map[string]float64) error{
		probeKeys, probeCache, probeMemsys, probeTopology, probeStreams, probeSync,
		probeMPI, probeShmem, probeCCSAS, probeResultCache, probeGuards,
	} {
		if err := probe(ctx, out); err != nil {
			return err
		}
	}
	return nil
}

func probeKeys(ctx *runCtx, out map[string]float64) error {
	const n = 1 << 18
	for _, d := range []keys.Dist{keys.Gauss, keys.Zipf} {
		var err error
		out["keys.ns_per_key."+d.String()] = perOp(n, func(int) {
			var ks []uint32
			ks, err = keys.Generate(d, keys.GenConfig{N: n, Procs: 16, RadixBits: 8, Seed: ctx.seed})
			sink += uint64(len(ks))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeCache mirrors internal/cache's own benchmarks on the scaled
// Origin2000 geometry: 256 KB 2-way 128-byte lines, 64-entry TLB with
// 1 KB pages.
func probeCache(_ *runCtx, out map[string]float64) error {
	geom := cache.Config{Size: 256 << 10, LineSize: 128, Ways: 2}
	const span = 16 * (256 << 10) // 16x the cache: nearly every access misses
	const iters = 1 << 19

	c := cache.New(geom)
	for i := 0; i < 64; i++ {
		c.Access(cache.Addr(i*128), false)
	}
	out["cache.access_hit_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			c.Access(cache.Addr((i%64)*128), false)
		}
	})
	c = cache.New(geom)
	x := uint64(1)
	out["cache.access_miss_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			x = lcg(x)
			c.Access(cache.Addr(x%span), true)
		}
	})
	c = cache.New(geom)
	var lane cache.Lane
	lane.Reset()
	c.AccessLane(&lane, 0, false)
	hits := 0
	out["cache.lane_hit_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			if c.LaneHit(&lane, 64, false) {
				hits++
			}
		}
	})
	if hits != iters*probeReps {
		return fmt.Errorf("cache.lane_hit_ns probe: %d of %d accesses hit the lane", hits, iters*probeReps)
	}
	c = cache.New(geom)
	lane.Reset()
	out["cache.lane_miss_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			x = lcg(x)
			c.AccessLane(&lane, cache.Addr(x%span), true)
		}
	})

	tlbGeom := cache.TLBConfig{Entries: 64, PageSize: 1 << 10}
	t := cache.NewTLB(tlbGeom)
	for i := 0; i < 32; i++ {
		t.Access(cache.Addr(i << 10))
	}
	out["cache.tlb_hit_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			t.Access(cache.Addr((i % 32) << 10))
		}
	})
	t = cache.NewTLB(tlbGeom)
	out["cache.tlb_miss_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			x = lcg(x)
			t.Access(cache.Addr((x % 1024) << 10))
		}
	})
	t = cache.NewTLB(tlbGeom)
	var tl cache.TLBLane
	t.AttachLane(&tl)
	t.AccessLane(&tl, 0)
	out["cache.tlb_lane_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			if t.AccessLane(&tl, cache.Addr(i&1023)) {
				sink++
			}
		}
	})
	t.DetachLanes()
	sink += x
	return nil
}

// probeMemsys times the page-to-home lookups on an address space shaped
// like a sorting run's: a dozen regions around one large blocked array.
func probeMemsys(_ *runCtx, out map[string]float64) error {
	as, err := memsys.New(1024, 8, func(p int) int { return p / 2 })
	if err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		as.AllocRoundRobin("pre", 64<<10)
	}
	r := as.AllocBlocked("keys", 1<<22, 16)
	for i := 0; i < 6; i++ {
		as.AllocOnNode("post", 64<<10, i)
	}
	base, span := uint64(r.Base()), uint64(r.Size())
	x := uint64(1)
	const iters = 1 << 19
	out["memsys.homeof_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			x = lcg(x)
			sink += uint64(as.HomeOf(cache.Addr(base + x%span)))
		}
	})
	out["memsys.pagehome_ns"] = perOp(iters, func(n int) {
		for i := 0; i < n; i++ {
			x = lcg(x)
			h, _ := as.PageHome(cache.Addr(base + x%span))
			sink += uint64(h)
		}
	})
	return nil
}

func bigMachineConfig(procs int, kind string) machine.Config {
	cfg := machine.Origin2000Scaled(procs)
	cfg.Topology.Kind = kind
	return cfg
}

func probeTopology(_ *runCtx, out map[string]float64) error {
	for name, cfg := range map[string]machine.Config{
		"hypercube64":   bigMachineConfig(64, topology.KindHypercube),
		"dragonfly1024": bigMachineConfig(1024, topology.KindDragonfly),
	} {
		var err error
		out["topology.build_ms."+name] = perOp(1, func(int) {
			var net topology.Network
			if net, err = topology.New(cfg.Topology); err == nil {
				sink += uint64(net.Nodes())
			}
		}) / 1e6
		if err != nil {
			return err
		}
		out["machine.new_ms."+name] = perOp(1, func(int) {
			var m *machine.Machine
			if m, err = machine.New(cfg); err == nil {
				m.Release()
			}
		}) / 1e6
		if err != nil {
			return err
		}
	}
	return nil
}

// probeStreams times the machine's access-charging paths on processor 0
// of a 4-processor machine over a 4 MB key array, 16 times the cache.
func probeStreams(_ *runCtx, out map[string]float64) error {
	m, err := machine.New(machine.Origin2000Scaled(4))
	if err != nil {
		return err
	}
	defer m.Release()
	const n = 1 << 20
	const mask = 255
	src := machine.NewArrayBlocked[uint32](m, "probe.src", n)
	dst := machine.NewArrayBlocked[uint32](m, "probe.dst", n)
	tbl := machine.NewArrayOnProc[int32](m, "probe.tbl", mask+1, 0)
	x := uint64(1)
	idx := make([]int64, n)
	starts := make([]int64, mask+1)
	for i := range src.Data {
		x = lcg(x)
		src.Data[i] = uint32(x >> 33)
		idx[i] = int64(x >> 20 % n)
		starts[src.Data[i]&mask]++
	}
	var sum int64
	for d, c := range starts {
		starts[d], sum = sum, sum+c
	}
	pos := make([]int64, mask+1)

	// on0 runs body on processor 0 inside one Machine.Run.
	on0 := func(body func(p *machine.Proc)) func(int) {
		return func(int) {
			m.Run(func(p *machine.Proc) {
				if p.ID == 0 {
					body(p)
				}
			})
		}
	}
	out["machine.load_stream_ns"] = perOp(n, on0(func(p *machine.Proc) {
		src.LoadRangeWith(p, 0, n, machine.Private, 1)
	}))
	out["machine.count_stream_ns"] = perOp(n, on0(func(p *machine.Proc) {
		clear(tbl.Data)
		p.CountStream(src, 0, n, machine.Private, 0, mask, tbl, machine.Private, 1)
	}))
	out["machine.permute_stream_ns"] = perOp(n, on0(func(p *machine.Proc) {
		copy(pos, starts)
		p.PermuteStream(src, dst, 0, n, 0, mask, tbl, pos, machine.Private, machine.Private, machine.ConflictWrite, 1)
	}))
	out["machine.scatter_stream_ns"] = perOp(n, on0(func(p *machine.Proc) {
		dst.ScatterStore(p, idx, machine.ConflictWrite, 1)
	}))
	out["machine.cursor_access_ns"] = perOp(n, on0(func(p *machine.Proc) {
		var cur machine.SeqCursor
		src.OpenCursor(&cur, p, false, machine.Private)
		for i := 0; i < n; i++ {
			cur.Access(i)
		}
		p.CloseCursors()
	}))
	out["machine.elem_load_ns"] = perOp(n, on0(func(p *machine.Proc) {
		var s uint32
		for i := 0; i < n; i++ {
			s += src.Load(p, i, machine.Private)
		}
		sink += uint64(s)
	}))
	return nil
}

// probeSync times the goroutine hand-offs under every parallel program:
// starting one goroutine per simulated processor, and one barrier
// episode with empty bodies.
func probeSync(_ *runCtx, out map[string]float64) error {
	for _, procs := range []int{64, 256} {
		m, err := machine.New(machine.Origin2000Scaled(procs))
		if err != nil {
			return err
		}
		out[fmt.Sprintf("machine.run_spawn_us.p%d", procs)] = perOp(20, func(n int) {
			for i := 0; i < n; i++ {
				m.Run(func(*machine.Proc) {})
			}
		}) / 1e3
		if procs == 64 {
			out["machine.barrier_ns"] = perOp(2000, func(n int) {
				m.Run(func(p *machine.Proc) {
					for i := 0; i < n; i++ {
						m.Barrier(p)
					}
				})
			})
		}
		m.Release()
	}
	return nil
}

const commProcs = 64

// perCall spreads the wall of iters rounds, in each of which all
// commProcs processors make one call, over the calls.
func perCall(m *machine.Machine, iters int, body func(p *machine.Proc, i int)) float64 {
	return perOp(iters, func(n int) {
		m.Run(func(p *machine.Proc) {
			for i := 0; i < n; i++ {
				body(p, i)
			}
		})
	}) / commProcs
}

func probeMPI(_ *runCtx, out map[string]float64) error {
	m, err := machine.New(machine.Origin2000Scaled(commProcs))
	if err != nil {
		return err
	}
	defer m.Release()
	scale := float64(machine.ScaleFactor)
	for name, cfg := range map[string]mpi.Config{
		"mpi.sendrecv_ns":        mpi.DefaultDirect().Scaled(scale),
		"mpi.sendrecv_ns.staged": mpi.DefaultStaged().Scaled(scale),
	} {
		comm := mpi.New(m, cfg)
		out[name] = perCall(m, 500, func(p *machine.Proc, i int) {
			comm.SendRecv(p, p.ID^1, i, nil, 256, p.ID^1, 0, 0)
		})
	}
	comm := mpi.New(m, mpi.DefaultDirect().Scaled(scale))
	mine := make([]int32, 256)
	out["mpi.allgather_us"] = perOp(20, func(n int) {
		m.Run(func(p *machine.Proc) {
			for i := 0; i < n; i++ {
				sink += uint64(len(mpi.Allgather(comm, p, mine)))
			}
		})
	}) / 1e3
	return nil
}

func probeShmem(_ *runCtx, out map[string]float64) error {
	m, err := machine.New(machine.Origin2000Scaled(commProcs))
	if err != nil {
		return err
	}
	defer m.Release()
	c := shmem.New(m, shmem.DefaultConfig().Scaled(float64(machine.ScaleFactor)))
	// Each rank writes elements [0,64) of a neighbour's segment and reads
	// [512,576), so concurrent calls never touch the same host memory.
	sym := shmem.NewSym[uint32](c, "probe.sym", 1024)
	out["shmem.put_ns"] = perCall(m, 500, func(p *machine.Proc, _ int) {
		sym.Put(p, (p.ID+1)%commProcs, 0, 512, 64)
	})
	out["shmem.get_ns"] = perCall(m, 500, func(p *machine.Proc, _ int) {
		sym.Get(p, 0, (p.ID+1)%commProcs, 512, 64)
	})
	const count = 16
	src := shmem.NewSym[int32](c, "probe.src", count)
	dst := shmem.NewSym[int32](c, "probe.dst", count*commProcs)
	out["shmem.collect_us"] = perOp(20, func(n int) {
		m.Run(func(p *machine.Proc) {
			for i := 0; i < n; i++ {
				shmem.Collect(p, src, dst, count)
				c.Barrier(p) // the next episode overwrites dst
			}
		})
	}) / 1e3
	return nil
}

func probeCCSAS(_ *runCtx, out map[string]float64) error {
	m, err := machine.New(machine.Origin2000Scaled(commProcs))
	if err != nil {
		return err
	}
	defer m.Release()
	w := ccsas.NewWorld(m)
	tree := ccsas.NewPrefixTree(w, 256)
	out["ccsas.prefix_reduce_us"] = perOp(20, func(n int) {
		m.Run(func(p *machine.Proc) {
			local := make([]int32, 256)
			for i := 0; i < n; i++ {
				tree.Reduce(p, local)
				w.Barrier(p) // episodes share the tree's arrays
			}
		})
	}) / 1e3
	flags := make([]*ccsas.Flag, commProcs/2)
	for i := range flags {
		flags[i] = ccsas.NewFlag(w)
	}
	// Even processors set, their odd neighbours wait: one hand-off each.
	out["ccsas.flag_ns"] = perOp(2000, func(n int) {
		m.Run(func(p *machine.Proc) {
			f := flags[p.ID/2]
			for i := 0; i < n; i++ {
				if p.ID%2 == 0 {
					f.Set(p)
				} else {
					f.Wait(p)
				}
			}
		})
	}) / (commProcs / 2)
	return nil
}

func probeResultCache(ctx *runCtx, out map[string]float64) error {
	dir, err := os.MkdirTemp(filepath.Join(ctx.buildDir, "tmp"), "resultcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const n = 200
	type config struct {
		Algorithm string
		N, Seed   int
	}
	keyOf := func(i int) string {
		k, err := resultcache.Key("probe", config{"radix", 1 << 16, i})
		if err != nil {
			panic(err) // a struct of strings and ints always encodes
		}
		return k
	}
	out["resultcache.key_us"] = perOp(n, func(int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(keyOf(i)))
		}
	}) / 1e3
	val := make([]byte, 2048) // about one result document
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Misses and disk reads happen once per key and store, so each
	// repetition opens a fresh store: on a fresh directory for the
	// misses, on the filled one for the disk reads.
	out["resultcache.do_miss_us"] = perOp(n, func(int) {
		sub, err := os.MkdirTemp(dir, "miss-")
		note(err)
		st, err := resultcache.New(resultcache.Config{Dir: sub})
		note(err)
		for i := 0; i < n && firstErr == nil; i++ {
			_, _, err := st.Do(keyOf(i), func() ([]byte, error) { return val, nil })
			note(err)
		}
	}) / 1e3
	filled := filepath.Join(dir, "filled")
	st, err := resultcache.New(resultcache.Config{Dir: filled})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		_, _, err := st.Do(keyOf(i), func() ([]byte, error) { return val, nil })
		note(err)
	}
	out["resultcache.get_mem_us"] = perOp(n, func(int) {
		for i := 0; i < n; i++ {
			if _, src, ok := st.Get(keyOf(i)); !ok || src != resultcache.SourceMem {
				note(fmt.Errorf("resultcache probe: key %d came from %q", i, src))
			}
		}
	}) / 1e3
	out["resultcache.get_disk_us"] = perOp(n, func(int) {
		cold, err := resultcache.New(resultcache.Config{Dir: filled})
		note(err)
		for i := 0; i < n && firstErr == nil; i++ {
			if _, src, ok := cold.Get(keyOf(i)); !ok || src != resultcache.SourceDisk {
				note(fmt.Errorf("resultcache probe: key %d came from %q", i, src))
			}
		}
	}) / 1e3
	return firstErr
}

// probeGuards covers the layers that have no end-to-end metric here but
// that ROADMAP items 4-5 build on: virtual-time trace export, paranoid
// checking, seed ensembles and the analytic model.
func probeGuards(ctx *runCtx, out map[string]float64) error {
	cell, err := parseCell("radix-shmem-n16-p64", ctx.seed)
	if err != nil {
		return err
	}
	var firstErr error
	timeRun := func(e repro.Experiment, reps int) float64 {
		var walls []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := repro.Run(e); err != nil && firstErr == nil {
				firstErr = err
			}
			walls = append(walls, ms(time.Since(t0)))
		}
		return median(walls)
	}
	plain := timeRun(cell, 3)
	paranoid, sampled := cell, cell
	paranoid.Paranoid = true
	sampled.ParanoidSampleEvery = 64
	out["check.paranoid_slowdown"] = timeRun(paranoid, 1) / plain
	out["check.sampled_slowdown"] = timeRun(sampled, 3) / plain
	if firstErr != nil {
		return firstErr
	}

	traced, err := parseCell("radix-mpi-n16-p16", ctx.seed)
	if err != nil {
		return err
	}
	traced.Trace = true
	tout, err := repro.Run(traced)
	if err != nil {
		return err
	}
	out["trace.write_chrome_ms"] = perOp(1, func(int) {
		if err := trace.WriteChrome(io.Discard, tout.Trace()); err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1e6

	base := repro.Experiment{N: 1 << 14, Procs: 8, Radix: 8}
	variants, err := stats.Programs(base, []string{"radix/ccsas-new", "radix/shmem"})
	if err != nil {
		return err
	}
	out["stats.ensemble_ms"] = perOp(1, func(int) {
		if _, err := stats.RunEnsemble(stats.Config{Seeds: 2, BaseSeed: ctx.seed, Parallelism: ctx.nproc}, variants); err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1e6

	scale := float64(machine.ScaleFactor)
	pr, err := perfmodel.New(machine.Origin2000Scaled(64), mpi.DefaultDirect().Scaled(scale), shmem.DefaultConfig().Scaled(scale))
	if err != nil {
		return err
	}
	out["perfmodel.predict_us"] = perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := pr.PredictAll(perfmodel.Workload{N: 1 << 18, Procs: 64, Radix: 8}); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}) / 1e3
	return firstErr
}
