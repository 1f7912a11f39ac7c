package sorts

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

func TestChunkPlanCoversEverything(t *testing.T) {
	// Synthetic histograms: verify chunks tile the output exactly.
	hists := [][]int32{
		{3, 0, 5, 2},
		{1, 4, 0, 2},
		{0, 0, 7, 0},
		{2, 2, 2, 2},
	}
	n := 0
	for _, h := range hists {
		for _, c := range h {
			n += int(c)
		}
	}
	pl := newChunkPlan(hists, blockedParts(n, 4))
	covered := make([]int, n)
	for src := 0; src < 4; src++ {
		bufSeen := make(map[int]bool)
		for dst := 0; dst < 4; dst++ {
			plo := dst * n / 4
			pl.each(src, dst, func(ch chunk) {
				if ch.count <= 0 {
					t.Fatalf("empty chunk %+v", ch)
				}
				for o := 0; o < ch.count; o++ {
					covered[plo+ch.dstOff+o]++
					if bufSeen[ch.srcOff+o] {
						t.Fatalf("src %d buffer offset %d sent twice", src, ch.srcOff+o)
					}
					bufSeen[ch.srcOff+o] = true
				}
			})
		}
		// Every key in src's buffer is sent exactly once.
		var total int32
		for _, c := range hists[src] {
			total += c
		}
		if len(bufSeen) != int(total) {
			t.Fatalf("src %d sent %d keys, owns %d", src, len(bufSeen), total)
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("output position %d covered %d times", i, c)
		}
	}
}

func TestChunkPlanGlobalOrder(t *testing.T) {
	// gStart must be monotone and rank consistent with histogram sums.
	hists := [][]int32{{5, 1}, {2, 8}}
	pl := newChunkPlan(hists, blockedParts(16, 2))
	if pl.gStart[0] != 0 || pl.gStart[1] != 7 {
		t.Errorf("gStart = %v, want [0 7]", pl.gStart)
	}
	if pl.rank[1][0] != 5 || pl.rank[1][1] != 1 {
		t.Errorf("rank[1] = %v, want [5 1]", pl.rank[1])
	}
	if pl.bufPos[0][1] != 5 {
		t.Errorf("bufPos[0][1] = %d, want 5", pl.bufPos[0][1])
	}
}

func TestRadixMPISorts(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		for _, engine := range []mpi.Engine{mpi.Direct, mpi.Staged} {
			m := scaled(t, procs)
			in := genKeys(t, keys.Gauss, 1<<14, procs, 8)
			cfg := Config{Radix: 8, MPI: mpi.ConfigFor(engine)}
			res, err := RadixMPI(m, in, cfg)
			if err != nil {
				t.Fatalf("RadixMPI(p=%d, %v): %v", procs, engine, err)
			}
			checkSorted(t, in, res)
		}
	}
}

func TestRadixMPIAllDistributions(t *testing.T) {
	for _, d := range keys.AllDists {
		m := scaled(t, 4)
		in := genKeys(t, d, 1<<13, 4, 8)
		res, err := RadixMPI(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatalf("RadixMPI(%v): %v", d, err)
		}
		checkSorted(t, in, res)
	}
}

func TestRadixSHMEMSorts(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		m := scaled(t, procs)
		in := genKeys(t, keys.Gauss, 1<<14, procs, 8)
		res, err := RadixSHMEM(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatalf("RadixSHMEM(p=%d): %v", procs, err)
		}
		checkSorted(t, in, res)
	}
}

func TestRadixSHMEMAllDistributions(t *testing.T) {
	for _, d := range keys.AllDists {
		m := scaled(t, 4)
		in := genKeys(t, d, 1<<13, 4, 11)
		res, err := RadixSHMEM(m, in, Config{Radix: 11})
		if err != nil {
			t.Fatalf("RadixSHMEM(%v): %v", d, err)
		}
		checkSorted(t, in, res)
	}
}

func TestRadixModelsDeterministic(t *testing.T) {
	type runner func(m *machine.Machine, in []uint32) (*Result, error)
	cases := map[string]runner{
		"mpi": func(m *machine.Machine, in []uint32) (*Result, error) {
			return RadixMPI(m, in, Config{Radix: 8})
		},
		"shmem": func(m *machine.Machine, in []uint32) (*Result, error) {
			return RadixSHMEM(m, in, Config{Radix: 8})
		},
	}
	for name, fn := range cases {
		run := func() float64 {
			m := scaled(t, 8)
			in := genKeys(t, keys.Gauss, 1<<13, 8, 8)
			res, err := fn(m, in)
			if err != nil {
				t.Fatal(err)
			}
			return res.TimeNs()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s non-deterministic: %v vs %v", name, a, b)
		}
	}
}

func TestRadixStagedSlowerThanDirect(t *testing.T) {
	// Figure 1's shape: the vendor-style staged MPI is slower than the
	// authors' direct implementation for radix sort.
	in := genKeys(t, keys.Gauss, 1<<15, 8, 8)
	direct, err := RadixMPI(scaled(t, 8), in, Config{Radix: 8, MPI: mpi.DefaultDirect()})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := RadixMPI(scaled(t, 8), in, Config{Radix: 8, MPI: mpi.DefaultStaged()})
	if err != nil {
		t.Fatal(err)
	}
	if staged.TimeNs() <= direct.TimeNs() {
		t.Errorf("staged MPI (%v) should be slower than direct (%v)",
			staged.TimeNs(), direct.TimeNs())
	}
}

func TestRadixSHMEMBeatsOriginalCCSASAtScale(t *testing.T) {
	// Figure 3's headline: SHMEM beats the original CC-SAS for large
	// data sets.
	in := genKeys(t, keys.Gauss, 1<<17, 8, 8)
	shm, err := RadixSHMEM(scaled(t, 8), in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RadixCCSAS(scaled(t, 8), in, Config{Radix: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	if shm.TimeNs() >= cc.TimeNs() {
		t.Errorf("SHMEM (%v) should beat original CC-SAS (%v) at scale",
			shm.TimeNs(), cc.TimeNs())
	}
}

func TestRadixLocalDistributionNoRemoteTraffic(t *testing.T) {
	// The local distribution moves no keys between processors: SHMEM
	// radix should transfer (almost) nothing beyond the histogram
	// collectives.
	procs := 8
	m := scaled(t, procs)
	inLocal := genKeys(t, keys.Local, 1<<14, procs, 8)
	resLocal, err := RadixSHMEM(m, inLocal, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	m2 := scaled(t, procs)
	inRemote := genKeys(t, keys.Remote, 1<<14, procs, 8)
	resRemote, err := RadixSHMEM(m2, inRemote, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	var locBytes, remBytes int64
	for i := 0; i < procs; i++ {
		locBytes += resLocal.Run.PerProc[i].Traffic.RemoteBytes
		remBytes += resRemote.Run.PerProc[i].Traffic.RemoteBytes
	}
	// The local distribution still pays for the histogram collectives
	// (the paper: "the only interprocess communication is the collective
	// function call"), so compare against the remote distribution's
	// strictly larger total.
	if locBytes >= remBytes {
		t.Errorf("local dist moved %d remote bytes vs remote dist %d: want less",
			locBytes, remBytes)
	}
	if resLocal.TimeNs() >= resRemote.TimeNs() {
		t.Errorf("local dist (%v) should be faster than remote dist (%v)",
			resLocal.TimeNs(), resRemote.TimeNs())
	}
}

func TestRadixMPIOneMessagePerDestSorts(t *testing.T) {
	for _, d := range []keys.Dist{keys.Gauss, keys.Zero} {
		m := scaled(t, 8)
		in := genKeys(t, d, 1<<14, 8, 8)
		res, err := RadixMPI(m, in, Config{Radix: 8, MPIOneMessagePerDest: true})
		if err != nil {
			t.Fatalf("one-msg variant (%v): %v", d, err)
		}
		checkSorted(t, in, res)
		if res.Model != "mpi-NEW-onemsg" {
			t.Errorf("model label = %q", res.Model)
		}
	}
}

func TestRadixMPIOneMsgTradeoff(t *testing.T) {
	// The paper's tradeoff: one message per destination sends far fewer
	// messages but pays extra gather/reorganization passes over the data
	// (the paper found per-chunk faster on the Origin2000; our simulated
	// machine prices the window stalls of per-chunk more harshly — see
	// EXPERIMENTS.md).
	in := genKeys(t, keys.Gauss, 1<<16, 8, 8)
	perChunk, err := RadixMPI(scaled(t, 8), in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	oneMsg, err := RadixMPI(scaled(t, 8), in, Config{Radix: 8, MPIOneMessagePerDest: true})
	if err != nil {
		t.Fatal(err)
	}
	var chunkMsgs, oneMsgs int64
	var chunkBusy, oneBusy float64
	for i := 0; i < 8; i++ {
		chunkMsgs += perChunk.Run.PerProc[i].Traffic.Messages
		oneMsgs += oneMsg.Run.PerProc[i].Traffic.Messages
		chunkBusy += perChunk.Run.PerProc[i].Breakdown.LMem
		oneBusy += oneMsg.Run.PerProc[i].Breakdown.LMem
	}
	if oneMsgs >= chunkMsgs {
		t.Errorf("one-msg variant sent %d messages vs per-chunk's %d", oneMsgs, chunkMsgs)
	}
	// The reorganization costs the one-msg variant extra local memory
	// passes (gather into and stream out of the staging buffers).
	if oneBusy <= chunkBusy {
		t.Errorf("one-msg local-memory time (%v) should exceed per-chunk's (%v)",
			oneBusy, chunkBusy)
	}
}
