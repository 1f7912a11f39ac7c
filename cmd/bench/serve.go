package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// The simd-serve workload drives the built simd binary through one
// client session per round, on a fresh cache directory each time:
//
//	cold    every cell once via POST /v1/run         (computed)
//	warm    warmRequests uniformly random repeats    (mem)
//	get     GET /v1/result/{key} for some keys       (mem)
//	restart SIGTERM, same directory, new process
//	disk    every cell once                          (disk)
//	grid    one POST /v1/grid, half cached half new  (mem / computed)
//
// Load is closed-loop: nproc client goroutines, each sending its next
// request when the previous one completed, against simd -j nproc.
const (
	serveSeedsPerConfig = 2
	warmRequests        = 8000
	resultGets          = 64
	drainBudget         = 10 * time.Second
)

var (
	servePrograms = [][2]string{{"radix", "ccsas-new"}, {"radix", "mpi"}, {"sample", "shmem"}, {"psrs", "ccsas"}}
	serveLogNs    = []int{16, 17, 18}
	serveProcs    = []int{16, 64}
)

// serveCell is one experiment as the client sends it, with the reference
// result an in-process repro.Run of the same experiment gave.
type serveCell struct {
	exp     repro.Experiment
	body    []byte // request
	timeNs  float64
	breaks  []breakdownDoc
	counts  simCounts
	localMs float64 // in-process wall, for simd.cold_overhead_ms
	// cold is the response the first session's cold phase stored; every
	// later response for the cell must equal it byte for byte.
	cold []byte
	key  string
}

type breakdownDoc struct {
	Busy float64 `json:"busy_ns"`
	LMem float64 `json:"lmem_ns"`
	RMem float64 `json:"rmem_ns"`
	Sync float64 `json:"sync_ns"`
}

type resultDoc struct {
	Key        string         `json:"key"`
	TimeNs     float64        `json:"time_ns"`
	Verified   bool           `json:"verified"`
	Breakdowns []breakdownDoc `json:"breakdowns"`
}

type cacheStats struct {
	MemHits   int64 `json:"mem_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Shared    int64 `json:"shared"`
	Computed  int64 `json:"computed"`
	Errors    int64 `json:"errors"`
	Evictions int64 `json:"evictions"`
}

func (c *cacheStats) add(o cacheStats) {
	c.MemHits += o.MemHits
	c.DiskHits += o.DiskHits
	c.Shared += o.Shared
	c.Computed += o.Computed
	c.Errors += o.Errors
	c.Evictions += o.Evictions
}

type serve struct {
	ctx    *runCtx
	simd   string
	client *http.Client
	cells  []*serveCell // the session's cell list
	fresh  []*serveCell // the grid's not-yet-cached half
	res    *result
	// sim totals every cell a session makes the servers compute: its
	// cell list and the grid's fresh half.
	sim simCounts
	// live is the most recently started server process, for dieWithServer.
	live atomic.Pointer[os.Process]
}

// dieWithServer makes an interrupted bench take its running server with
// it, so that no process outlives the run. The returned function ends
// the watch.
func (sv *serve) dieWithServer() (stop func()) {
	sigc := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigc:
			if p := sv.live.Load(); p != nil {
				p.Kill() // an error means it already exited
			}
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}

// sessionStats is one round of simd-serve.
type sessionStats struct {
	wall, cpu    time.Duration
	rssMB        float64
	setup        time.Duration   // cache dir + first start to healthz
	starts       []time.Duration // both incarnations
	drains       []time.Duration
	cold, warm   []float64 // latencies, µs
	disk, gets   []float64
	warmWall     time.Duration
	gridWall     time.Duration
	respBytes    []float64
	stats        cacheStats // both incarnations summed
	requestCount int
}

func runServe(ctx *runCtx) (*result, error) {
	res := newResult(ctx)
	sv := &serve{ctx: ctx, res: res, simd: filepath.Join(ctx.buildDir, "bin", "simd")}
	defer sv.dieWithServer()()
	b0 := time.Now()
	if err := sv.build(); err != nil {
		return nil, err
	}
	buildS := time.Since(b0).Seconds()
	sv.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: ctx.nproc, MaxIdleConns: ctx.nproc},
		Timeout:   60 * time.Second,
	}
	defer sv.client.CloseIdleConnections()
	p0 := time.Now()
	if err := sv.makeCells(); err != nil {
		return nil, err
	}
	prep := time.Since(p0)

	cal, err := startCalibrator(ctx)
	if err != nil {
		return nil, err
	}
	defer cal.stop()
	if err := cal.sample(); err != nil {
		return nil, err
	}
	var sessions []sessionStats
	var heapPeak float64 // of this client process, sampled after each session
	one := func(rec *recorder) error {
		st, err := sv.session(rec, len(sessions))
		if err != nil {
			return err
		}
		if err := cal.sample(); err != nil {
			return err
		}
		heapPeak = max(heapPeak, heapInuseMB())
		sessions = append(sessions, st)
		res.Attempted += st.requestCount
		return nil
	}
	rec := newRecorder()
	if !ctx.trace {
		for start := time.Now(); ctx.measuring(len(sessions), start); {
			if err := one(nil); err != nil {
				return nil, err
			}
		}
	} else {
		passes := []*recorder{nil, rec, nil}
		if ctx.quick {
			passes = passes[:2]
		}
		for _, r := range passes {
			if err := one(r); err != nil {
				return nil, err
			}
		}
	}

	var wallMs, nsPerAccess, cpuPerCell, rss []float64
	for _, st := range sessions {
		wallMs = append(wallMs, ms(st.wall))
		nsPerAccess = append(nsPerAccess, float64(st.wall)/float64(sv.sim.Accesses))
		cpuPerCell = append(cpuPerCell, ms(st.cpu)/float64(len(sv.cells)+len(sv.fresh)))
		rss = append(rss, st.rssMB)
	}
	if !ctx.trace {
		res.Samples = map[string][]float64{"round": wallMs, "calibration_ns": cal.nsPerStep()}
		for _, st := range sessions {
			res.Samples["cold_p50"] = append(res.Samples["cold_p50"], median(st.cold)/1e3)
			res.Samples["warm_wall"] = append(res.Samples["warm_wall"], ms(st.warmWall))
			res.Samples["grid_wall"] = append(res.Samples["grid_wall"], ms(st.gridWall))
		}
		// Set-up is everything before the first timed request: the cells
		// with their in-process reference results, and the first server
		// start. Fresh processes repeat it for a median.
		setups := []float64{(prep + sessions[0].setup).Seconds()}
		more, err := childSetups(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		// Each session's servers are fresh processes, so the peak RSS is
		// a per-session sample like the timings.
		reportEndToEnd(res, cal.factor(), setups, wallMs, nsPerAccess, cpuPerCell, value{median(rss), "MB", len(rss)})
		return res, nil
	}

	out := map[string]float64{"bench.build_s": buildS}
	sv.layers(sessions, cal.factor(), out)
	traced := sessions[1]
	var refMs []float64
	for i, st := range sessions {
		if i != 1 {
			refMs = append(refMs, ms(st.wall))
		}
	}
	out["bench.trace_overhead_frac"] = ms(traced.wall)/median(refMs) - 1
	out["runtime.heap_peak_mb"] = heapPeak
	out["bench.host_factor"] = cal.factor()
	if err := finishTraced(ctx, rec, res, out); err != nil {
		return nil, err
	}
	return res, nil
}

// serveSetupOnly repeats simd-serve's set-up in this fresh process: the
// cells with their reference results, then one server start on an empty
// cache directory. The simd binary is the parent's.
func serveSetupOnly(ctx *runCtx) (float64, error) {
	sv := &serve{ctx: ctx, res: newResult(ctx), simd: filepath.Join(ctx.buildDir, "bin", "simd")}
	defer sv.dieWithServer()()
	sv.client = &http.Client{Timeout: 60 * time.Second}
	defer sv.client.CloseIdleConnections()
	t0 := time.Now()
	if err := sv.makeCells(); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(filepath.Join(ctx.buildDir, "tmp"), "simd-cache-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	s, err := sv.start(dir)
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	s.stop(sv.res)
	if sv.res.Failed > 0 {
		return 0, fmt.Errorf("set-up failed: %v", sv.res.Failures)
	}
	return setup.Seconds(), nil
}

func (sv *serve) build() error {
	if err := os.MkdirAll(filepath.Dir(sv.simd), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", sv.simd, "./cmd/simd")
	cmd.Dir = sv.ctx.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/simd: %v\n%s", err, out)
	}
	return nil
}

// makeCells derives the session's cells from the seed and computes each
// one's reference result in this process, nproc at a time like the
// server.
func (sv *serve) makeCells() error {
	logNs, procs, seeds := serveLogNs, serveProcs, serveSeedsPerConfig
	if sv.ctx.quick {
		logNs, procs, seeds = []int{12}, []int{8}, 2
	}
	add := func(list *[]*serveCell, prog [2]string, logN, p int, seed uint64) error {
		alg, err := repro.ParseAlgorithm(prog[0])
		if err != nil {
			return err
		}
		model, err := repro.ParseModel(prog[1])
		if err != nil {
			return err
		}
		c := &serveCell{exp: repro.Experiment{Algorithm: alg, Model: model, N: 1 << logN, Procs: p, Radix: 8, Seed: seed}}
		c.body, err = json.Marshal(map[string]any{
			"algorithm": prog[0], "model": prog[1], "n": c.exp.N, "procs": p, "seed": seed,
		})
		*list = append(*list, c)
		return err
	}
	for s := 0; s < seeds; s++ {
		for _, logN := range logNs {
			for _, p := range procs {
				for _, prog := range servePrograms {
					if err := add(&sv.cells, prog, logN, p, sv.ctx.seed*1000+uint64(s)); err != nil {
						return err
					}
				}
			}
		}
	}
	// The grid's fresh half: the smallest size on other seeds.
	for s := seeds; s < seeds+2; s++ {
		for _, p := range procs {
			for _, prog := range servePrograms {
				if err := add(&sv.fresh, prog, logNs[0], p, sv.ctx.seed*1000+uint64(s)); err != nil {
					return err
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(sv.ctx.seed)))
	rng.Shuffle(len(sv.cells), func(i, j int) { sv.cells[i], sv.cells[j] = sv.cells[j], sv.cells[i] })

	all := append(append([]*serveCell(nil), sv.cells...), sv.fresh...)
	var firstErr error
	var mu sync.Mutex
	sv.parallel(len(all), func(_, i int) {
		c := all[i]
		t0 := time.Now()
		out, err := repro.Run(c.exp)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		c.localMs = ms(time.Since(t0))
		c.timeNs = out.TimeNs
		for _, b := range out.Breakdowns() {
			c.breaks = append(c.breaks, breakdownDoc{b.Busy, b.LMem, b.RMem, b.Sync})
		}
		c.counts = countsOf(out.Result)
	})
	for _, c := range all { // in cell order: float sums must repeat exactly
		sv.sim.add(c.counts)
	}
	return firstErr
}

// parallel runs fn(client, i) for i in [0, n) on nproc closed-loop
// client goroutines.
func (sv *serve) parallel(n int, fn func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < sv.ctx.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// server is one running simd process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	logs *bytes.Buffer
	done chan struct{} // closed when the stderr reader finished
}

// start launches simd on dir and returns once /healthz answers.
func (sv *serve) start(dir string) (*server, error) {
	cmd := exec.Command(sv.simd, "-addr", "127.0.0.1:0", "-cache-dir", dir,
		"-j", fmt.Sprint(sv.ctx.nproc), "-drain", drainBudget.String())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sv.live.Store(cmd.Process)
	s := &server{cmd: cmd, logs: &bytes.Buffer{}, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(s.done)
		defer close(ready)
		announced := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.logs.WriteString(line + "\n")
			if i := strings.Index(line, "listening on http://"); i >= 0 && !announced {
				announced = true
				ready <- strings.Fields(line[i+len("listening on "):])[0]
			}
		}
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("simd exited before listening:\n%s", s.logs)
		}
		s.base = addr
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("simd did not listen within 20 s:\n%s", s.logs)
	}
	resp, err := sv.client.Get(s.base + "/healthz")
	if err != nil {
		s.kill()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.kill()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// stop sends SIGTERM and waits for a clean exit within the drain budget.
// It returns the server's CPU time and peak RSS.
func (s *server) stop(res *result) (cpu time.Duration, rssMB float64) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(drainBudget+5*time.Second, func() { s.cmd.Process.Kill() })
	<-s.done // the stderr pipe must be drained before Wait
	err := s.cmd.Wait()
	timer.Stop()
	if err != nil {
		res.fail("simd did not exit cleanly on SIGTERM: %v\n%s", err, s.logs)
	} else if !strings.Contains(s.logs.String(), "drained; bye") {
		res.fail("simd exited without draining:\n%s", s.logs)
	}
	ps := s.cmd.ProcessState
	if ps == nil {
		return 0, 0
	}
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB
}

// post sends one /v1/run request and returns the body, the
// X-Simd-Source header and the latency.
func (sv *serve) post(s *server, body []byte) ([]byte, string, time.Duration, error) {
	t0 := time.Now()
	resp, err := sv.client.Post(s.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, "", lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", lat, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(got))
	}
	return got, resp.Header.Get("X-Simd-Source"), lat, nil
}

func (sv *serve) statsz(s *server) (cacheStats, error) {
	var doc struct {
		Cache cacheStats `json:"cache"`
	}
	resp, err := sv.client.Get(s.base + "/statsz")
	if err != nil {
		return cacheStats{}, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Cache, err
}

// checkDoc compares a result document with the in-process reference.
func (c *serveCell) checkDoc(body []byte) error {
	var doc resultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if !doc.Verified || doc.TimeNs != c.timeNs || len(doc.Breakdowns) != len(c.breaks) {
		return fmt.Errorf("time_ns %v verified %v, in-process run gave %v", doc.TimeNs, doc.Verified, c.timeNs)
	}
	for i := range doc.Breakdowns {
		if doc.Breakdowns[i] != c.breaks[i] {
			return fmt.Errorf("breakdown of processor %d differs from the in-process run", i)
		}
	}
	return nil
}

// phase runs n requests on the closed-loop clients under one phase span.
// pick chooses the cell of request i; wantSrc is the only acceptable
// X-Simd-Source. It returns the latencies in µs and the phase wall.
func (sv *serve) phase(rec *recorder, root int, s *server, name, wantSrc string, n int,
	pick func(client, i int) *serveCell, st *sessionStats) ([]float64, time.Duration) {
	res := sv.res
	lats := make([]float64, n)
	var mu sync.Mutex
	sp := rec.begin(root, name, name)
	t0 := time.Now()
	sv.parallel(n, func(client, i int) {
		c := pick(client, i)
		rs := rec.begin(sp, "POST /v1/run", cellID(c.exp))
		body, src, lat, err := sv.post(s, c.body)
		rec.end(rs)
		rec.attr(rs, "lane", client)
		rec.attr(rs, "source", src)
		lats[i] = us(lat)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			res.fail("%s %s: %v", name, cellID(c.exp), err)
		case src != wantSrc:
			res.fail("%s %s: X-Simd-Source %q, want %q", name, cellID(c.exp), src, wantSrc)
		case c.cold == nil:
			if err := c.checkDoc(body); err != nil {
				res.fail("%s %s: %v", name, cellID(c.exp), err)
				return
			}
			var doc resultDoc
			json.Unmarshal(body, &doc)
			c.cold, c.key = body, doc.Key
		case !bytes.Equal(body, c.cold):
			res.fail("%s %s: body differs from the first cold body", name, cellID(c.exp))
		}
		if err == nil {
			rec.attr(rs, "key", c.key)
			st.respBytes = append(st.respBytes, float64(len(body)))
		}
	})
	wall := time.Since(t0)
	rec.end(sp)
	st.requestCount += n
	return lats, wall
}

// session is one round: the whole client script against two server
// incarnations on one fresh cache directory.
func (sv *serve) session(rec *recorder, index int) (sessionStats, error) {
	var st sessionStats
	res := sv.res
	k := len(sv.cells)
	root := rec.begin(-1, "session", fmt.Sprint("session-", index))
	t0 := time.Now()
	dir, err := os.MkdirTemp(filepath.Join(sv.ctx.buildDir, "tmp"), "simd-cache-")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)

	sp := rec.begin(root, "start", "start")
	s, err := sv.start(dir)
	rec.end(sp)
	if err != nil {
		return st, err
	}
	st.setup = time.Since(t0)
	st.starts = append(st.starts, st.setup)
	stop := func() {
		sp := rec.begin(root, "drain", "drain")
		d0 := time.Now()
		cpu, rss := s.stop(res)
		st.drains = append(st.drains, time.Since(d0))
		rec.end(sp)
		st.cpu += cpu
		st.rssMB = max(st.rssMB, rss)
	}
	// expect compares the server's cache counters with what the script
	// so far must have caused, and keeps them for the per-phase counts.
	var seenStats cacheStats
	expect := func(when string, want cacheStats) error {
		got, err := sv.statsz(s)
		if err != nil {
			s.kill()
			return err
		}
		if got != want {
			res.fail("/statsz %s: cache %+v, want %+v", when, got, want)
		}
		seenStats = got
		return nil
	}
	byIndex := func(_, i int) *serveCell { return sv.cells[i] }

	// cold: every cell computed exactly once.
	st.cold, _ = sv.phase(rec, root, s, "cold", "computed", k, byIndex, &st)
	if err := expect("after cold", cacheStats{Computed: int64(k)}); err != nil {
		return st, err
	}
	// warm: memory-tier repeats, nothing computed.
	rngs := make([]*rand.Rand, sv.ctx.nproc)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(sv.ctx.seed)<<20 + int64(index)<<8 + int64(c)))
	}
	warmN := warmRequests
	if sv.ctx.quick {
		warmN = 500
	}
	st.warm, st.warmWall = sv.phase(rec, root, s, "warm", "mem", warmN,
		func(client, _ int) *serveCell { return sv.cells[rngs[client].Intn(k)] }, &st)
	// get: content-addressed lookups.
	gets := min(resultGets, k)
	sp = rec.begin(root, "get", "get")
	for i := 0; i < gets; i++ {
		c := sv.cells[i]
		g0 := time.Now()
		resp, err := sv.client.Get(s.base + "/v1/result/" + c.key)
		if err != nil {
			res.fail("get %s: %v", c.key, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		st.gets = append(st.gets, us(time.Since(g0)))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, c.cold) {
			res.fail("get %s: status %s or body differs from the cold body", c.key, resp.Status)
		}
	}
	rec.end(sp)
	st.requestCount += gets
	if err := expect("after warm", cacheStats{Computed: int64(k), MemHits: int64(warmN + gets)}); err != nil {
		return st, err
	}
	st.stats = seenStats
	stop()

	// restart on the same directory: disk-tier fetches, nothing computed.
	r0 := time.Now()
	sp = rec.begin(root, "restart", "restart")
	s, err = sv.start(dir)
	rec.end(sp)
	if err != nil {
		return st, err
	}
	st.starts = append(st.starts, time.Since(r0))
	st.disk, _ = sv.phase(rec, root, s, "disk", "disk", k, byIndex, &st)
	if err := expect("after disk", cacheStats{DiskHits: int64(k)}); err != nil {
		return st, err
	}

	// grid: the first cells (now in memory) beside as many fresh ones.
	half := len(sv.fresh)
	gridCells := append(append([]*serveCell(nil), sv.cells[:half]...), sv.fresh...)
	sp = rec.begin(root, "grid", "grid")
	g0 := time.Now()
	err = sv.grid(s, gridCells, half)
	st.gridWall = time.Since(g0)
	rec.end(sp)
	if err != nil {
		res.fail("grid: %v", err)
	}
	st.requestCount += len(gridCells)
	if err := expect("after grid", cacheStats{DiskHits: int64(k), MemHits: int64(half), Computed: int64(half)}); err != nil {
		return st, err
	}
	st.stats.add(seenStats)
	stop()
	st.wall = time.Since(t0)
	rec.end(root)

	return st, nil
}

// grid posts one /v1/grid batch and checks every NDJSON line: each cell
// reports once and without error, the first `cached` cells from memory
// and the rest computed, with the reference simulated time.
func (sv *serve) grid(s *server, cells []*serveCell, cached int) error {
	var req struct {
		Cells []json.RawMessage `json:"cells"`
	}
	for _, c := range cells {
		req.Cells = append(req.Cells, c.body)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := sv.client.Post(s.base+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	seen := make([]bool, len(cells))
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index  *int    `json:"index"`
			Source string  `json:"source"`
			TimeNs float64 `json:"time_ns"`
			Error  string  `json:"error"`
			Done   bool    `json:"done"`
			OK     int     `json:"ok"`
			Errors int     `json:"errors"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		if line.Done {
			if line.OK != len(cells) || line.Errors != 0 {
				return fmt.Errorf("summary ok=%d errors=%d, want %d and 0", line.OK, line.Errors, len(cells))
			}
			done = true
			continue
		}
		if line.Index == nil || *line.Index < 0 || *line.Index >= len(cells) || seen[*line.Index] {
			return fmt.Errorf("line %q: bad or repeated index", sc.Text())
		}
		i := *line.Index
		seen[i] = true
		want := "computed"
		if i < cached {
			want = "mem"
		}
		if line.Error != "" || line.Source != want || line.TimeNs != cells[i].timeNs {
			return fmt.Errorf("cell %d (%s): source %q time_ns %v error %q, want %q and %v",
				i, cellID(cells[i].exp), line.Source, line.TimeNs, line.Error, want, cells[i].timeNs)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("no summary line")
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("cell %d never reported", i)
		}
	}
	return nil
}

// layers pools the sessions' samples into the serving metrics.
func (sv *serve) layers(sessions []sessionStats, factor float64, out map[string]float64) {
	var cold, warm, disk, gets, resp, starts, drains, rps, gridRate, local []float64
	last := sessions[len(sessions)-1]
	for _, st := range sessions {
		cold = append(cold, st.cold...)
		warm = append(warm, st.warm...)
		disk = append(disk, st.disk...)
		gets = append(gets, st.gets...)
		resp = append(resp, st.respBytes...)
		rps = append(rps, float64(len(st.warm))/st.warmWall.Seconds())
		gridRate = append(gridRate, float64(2*len(sv.fresh))/st.gridWall.Seconds())
		for _, d := range st.starts {
			starts = append(starts, ms(d))
		}
		for _, d := range st.drains {
			drains = append(drains, ms(d))
		}
	}
	for _, c := range sv.cells {
		local = append(local, c.localMs)
	}
	// The four serving numbers carry bounds in -compare, so like the
	// end-to-end timings they are taken to nominal host speed; the
	// simd.* figures below stay raw.
	out["cold_ms_p50"] = factor * median(cold) / 1e3
	out["warm_us_p50"] = factor * median(warm)
	out["warm_rps"] = median(rps) / factor
	out["disk_us_p50"] = factor * median(disk)
	out["simd.warm_us_p99"] = tailAt(warm, 99)
	out["simd.cold_overhead_ms"] = median(cold)/1e3 - median(local)
	out["simd.grid_cells_per_s"] = median(gridRate)
	out["simd.resp_bytes_p50"] = median(resp)
	out["simd.start_ms"] = median(starts)
	out["simd.drain_ms"] = median(drains)
	out["simd.result_get_us"] = median(gets)
	out["resultcache.mem_hits"] = float64(last.stats.MemHits)
	out["resultcache.disk_hits"] = float64(last.stats.DiskHits)
	out["resultcache.computed"] = float64(last.stats.Computed)
	out["resultcache.shared"] = float64(last.stats.Shared)
	out["resultcache.errors"] = float64(last.stats.Errors)
	out["resultcache.evictions"] = float64(last.stats.Evictions)
	fillCounts(out, sv.sim)
}
