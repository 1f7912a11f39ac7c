package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/keys"
	"repro/internal/resultcache"
	"repro/internal/topology"
)

// experimentRequest is the wire form of one experiment cell, shared by
// POST /v1/run (one cell) and POST /v1/grid (a batch). All names are
// the lowercase strings the CLI tools use (ParseAlgorithm / ParseModel
// / keys.ParseDist).
type experimentRequest struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	N         int    `json:"n"`
	Procs     int    `json:"procs"`
	// Radix defaults to 8, the paper's baseline digit size.
	Radix int `json:"radix,omitempty"`
	// Dist defaults to gauss, the paper's default distribution.
	Dist string `json:"dist,omitempty"`
	// Topo selects the machine interconnect by registered network kind
	// (hypercube, fattree, torus, torus3d, dragonfly, numa2); defaults
	// to the paper's Origin2000 hypercube.
	Topo     string `json:"topo,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	FullSize bool   `json:"full_size,omitempty"`
	// Trace embeds the run's deterministic flat trace metrics in the
	// result document (breakdown.*, phase.*, tx.*, traffic.*, …).
	Trace bool `json:"trace,omitempty"`
}

// cacheConfig is the canonical, fully-defaulted form of a request. Its
// JSON encoding (struct fields in declaration order, every field
// present) is the config half of the cache key, so two requests that
// normalize to the same cacheConfig are the same experiment — the cache
// key definition documented in the README.
type cacheConfig struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	N         int    `json:"n"`
	Procs     int    `json:"procs"`
	Radix     int    `json:"radix"`
	Dist      string `json:"dist"`
	Topo      string `json:"topo"`
	Seed      uint64 `json:"seed"`
	FullSize  bool   `json:"full_size"`
	Trace     bool   `json:"trace"`
}

// runResult is the cached result document: a pure function of
// (cacheConfig, code version), serialized once at compute time and
// served byte-identically from every tier forever after.
type runResult struct {
	Key         string             `json:"key"`
	CodeVersion string             `json:"code_version"`
	Config      cacheConfig        `json:"config"`
	TimeNs      float64            `json:"time_ns"`
	Verified    bool               `json:"verified"`
	Breakdowns  []breakdownJSON    `json:"breakdowns"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// breakdownJSON is one processor's BUSY/LMEM/RMEM/SYNC split in
// simulated nanoseconds.
type breakdownJSON struct {
	Busy float64 `json:"busy_ns"`
	LMem float64 `json:"lmem_ns"`
	RMem float64 `json:"rmem_ns"`
	Sync float64 `json:"sync_ns"`
}

// gridRequest is the POST /v1/grid body.
type gridRequest struct {
	Cells []experimentRequest `json:"cells"`
}

// gridCellStatus is one NDJSON progress line of a /v1/grid response:
// cells report in completion order (each line carries its cell index),
// and every cell reports exactly once — errors are per-cell, a bad cell
// never aborts the batch.
type gridCellStatus struct {
	Index  int     `json:"index"`
	Key    string  `json:"key,omitempty"`
	Source string  `json:"source,omitempty"`
	TimeNs float64 `json:"time_ns,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// gridSummary is the final NDJSON line of a /v1/grid response.
type gridSummary struct {
	Done   bool `json:"done"`
	Cells  int  `json:"cells"`
	OK     int  `json:"ok"`
	Errors int  `json:"errors"`
}

// serverConfig configures a simd server.
type serverConfig struct {
	// CacheDir is the persistent result tier ("" = memory only).
	CacheDir string
	// CacheEntries bounds the in-memory result tier (default 4096).
	CacheEntries int
	// Jobs bounds concurrent simulations across all requests (default
	// GOMAXPROCS); excess computes queue on the semaphore while cache
	// hits keep flowing.
	Jobs int
	// MaxN rejects single experiments above this key count (default
	// 2^24, the scaled 256M class) before they can exhaust host memory.
	MaxN int
	// MaxGridCells bounds one /v1/grid batch (default 4096).
	MaxGridCells int
	// Paranoid shadows every simulation with the invariant-checking
	// reference models (DESIGN.md §9). Results are byte-identical, so
	// the cache key is unaffected; host time grows severalfold.
	Paranoid bool
	// Progress, when set, receives one serialized line per completed
	// simulation (wired to -v).
	Progress func(format string, args ...any)
}

func (c serverConfig) withDefaults() serverConfig {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.Jobs < 1 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 24
	}
	if c.MaxGridCells <= 0 {
		c.MaxGridCells = 4096
	}
	return c
}

// server is the simd experiment service: a content-addressed result
// cache in front of the deterministic simulation harness.
type server struct {
	cfg     serverConfig
	version string
	start   time.Time
	h       *repro.Harness
	cache   *resultcache.Store
	// sem bounds concurrent simulations; cache lookups don't take a slot.
	sem chan struct{}
	// simulate runs one experiment (normally (*server).runExperiment;
	// tests stub it to inject failures and panics).
	simulate func(repro.Experiment) (*repro.Outcome, error)
}

func newServer(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	cache, err := resultcache.New(resultcache.Config{Dir: cfg.CacheDir, MaxEntries: cfg.CacheEntries})
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:     cfg,
		version: resultcache.CodeVersion(),
		start:   time.Now(),
		h:       repro.NewHarness(repro.Options{Progress: cfg.Progress}),
		cache:   cache,
		sem:     make(chan struct{}, cfg.Jobs),
	}
	s.simulate = s.runExperiment
	return s, nil
}

// handler returns the service's routes.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("GET /v1/result/{hash}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// parseRequest validates one wire cell and returns the experiment to
// run plus its canonical cache form. Every failure here is the client's
// fault and maps to 400.
func (s *server) parseRequest(req experimentRequest) (repro.Experiment, cacheConfig, error) {
	var zero repro.Experiment
	alg, err := repro.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return zero, cacheConfig{}, err
	}
	model, err := repro.ParseModel(req.Model)
	if err != nil {
		return zero, cacheConfig{}, err
	}
	dist := keys.Gauss
	if req.Dist != "" {
		if dist, err = keys.ParseDist(req.Dist); err != nil {
			return zero, cacheConfig{}, err
		}
	}
	topo, err := repro.ParseTopology(req.Topo)
	if err != nil {
		return zero, cacheConfig{}, err
	}
	radix := req.Radix
	if radix == 0 {
		radix = 8
	}
	if req.N > s.cfg.MaxN {
		return zero, cacheConfig{}, fmt.Errorf("n must be in [1, %d], got %d", s.cfg.MaxN, req.N)
	}
	if req.Procs > 1024 {
		return zero, cacheConfig{}, fmt.Errorf("procs must be in [1, 1024], got %d", req.Procs)
	}
	exp := repro.Experiment{
		Algorithm: alg, Model: model, N: req.N, Procs: req.Procs, Radix: radix,
		Dist: dist, Topo: topo, Seed: req.Seed, FullSize: req.FullSize, Trace: req.Trace,
	}
	// Everything Run would refuse without simulating is the client's
	// fault too: radix range, algorithm × model support, power-of-two
	// CC-SAS machines, the sequential baseline's single processor.
	if err := exp.Validate(); err != nil {
		return zero, cacheConfig{}, err
	}
	// Canonical topo: an empty request field IS the hypercube, and the
	// two spellings must hit the same cache entry.
	canonTopo := topo
	if canonTopo == "" {
		canonTopo = topology.KindHypercube
	}
	canon := cacheConfig{
		Algorithm: string(alg), Model: string(model), N: req.N, Procs: req.Procs,
		Radix: radix, Dist: dist.String(), Topo: canonTopo, Seed: req.Seed,
		FullSize: req.FullSize, Trace: req.Trace,
	}
	return exp, canon, nil
}

// runExperiment executes one simulation under the global concurrency
// bound. A traced run's trace rides on the Outcome only — the harness
// keeps none of it, so trace memory is bounded by in-flight requests.
func (s *server) runExperiment(e repro.Experiment) (*repro.Outcome, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	if s.cfg.Paranoid {
		e.Paranoid = true
	}
	return s.h.RunExperiment(e)
}

// computeCell simulates one validated cell and serializes its result
// document — the bytes that the cache will serve verbatim forever.
func (s *server) computeCell(e repro.Experiment, canon cacheConfig, key string) ([]byte, error) {
	out, err := s.simulate(e)
	if err != nil {
		return nil, err
	}
	doc := runResult{
		Key: key, CodeVersion: s.version, Config: canon,
		TimeNs: out.TimeNs, Verified: out.Verified,
	}
	for _, b := range out.Breakdowns() {
		doc.Breakdowns = append(doc.Breakdowns, breakdownJSON{
			Busy: b.Busy, LMem: b.LMem, RMem: b.RMem, Sync: b.Sync,
		})
	}
	if e.Trace {
		if tr := out.Trace(); tr != nil {
			// Metrics marshal with sorted keys, so the document stays
			// deterministic.
			doc.Metrics = tr.Metrics()
		}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// runCell resolves one validated cell through the cache: memory, disk,
// a shared in-flight compute, or a fresh simulation.
func (s *server) runCell(e repro.Experiment, canon cacheConfig) (val []byte, key string, src resultcache.Source, err error) {
	key, err = resultcache.Key(s.version, canon)
	if err != nil {
		return nil, "", "", err
	}
	val, src, err = s.cache.Do(key, func() ([]byte, error) {
		return s.computeCell(e, canon, key)
	})
	return val, key, src, err
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req experimentRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	exp, canon, err := s.parseRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	val, key, src, err := s.runCell(exp, canon)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Simd-Key", key)
	h.Set("X-Simd-Source", string(src))
	if src == resultcache.SourceComputed {
		h.Set("X-Simd-Cache", "miss")
	} else {
		h.Set("X-Simd-Cache", "hit")
	}
	w.Write(val)
}

func (s *server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req gridRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("grid has no cells"))
		return
	}
	if len(req.Cells) > s.cfg.MaxGridCells {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("grid has %d cells, limit %d", len(req.Cells), s.cfg.MaxGridCells))
		return
	}
	// Validation is all-or-nothing and 4xx: a malformed batch is the
	// client's bug. Runtime failures below are per-cell.
	exps := make([]repro.Experiment, len(req.Cells))
	canons := make([]cacheConfig, len(req.Cells))
	for i, cell := range req.Cells {
		exp, canon, err := s.parseRequest(cell)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cell %d: %w", i, err))
			return
		}
		exps[i], canons[i] = exp, canon
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var (
		writeMu sync.Mutex
		enc     = json.NewEncoder(w)
		emitted = make([]bool, len(exps))
		okCount int
		errs    int
	)
	emit := func(st gridCellStatus) {
		writeMu.Lock()
		defer writeMu.Unlock()
		emitted[st.Index] = true
		if st.Error == "" {
			okCount++
		} else {
			errs++
		}
		enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The harness's panic-contained worker pool: a panicking cell comes
	// back as a structured per-cell error, never a dead worker.
	panics := repro.ForEachIndex(s.cfg.Jobs, len(exps), func(i int) {
		val, key, src, err := s.runCell(exps[i], canons[i])
		if err != nil {
			emit(gridCellStatus{Index: i, Key: key, Error: err.Error()})
			return
		}
		var doc struct {
			TimeNs float64 `json:"time_ns"`
		}
		json.Unmarshal(val, &doc)
		emit(gridCellStatus{Index: i, Key: key, Source: string(src), TimeNs: doc.TimeNs})
	})
	for _, pe := range panics {
		if !emitted[pe.Index] {
			emit(gridCellStatus{Index: pe.Index, Error: pe.Error()})
		}
	}
	writeMu.Lock()
	defer writeMu.Unlock()
	enc.Encode(gridSummary{Done: true, Cells: len(exps), OK: okCount, Errors: errs})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !resultcache.ValidKey(hash) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("malformed result key %q (want sha256:<64 hex>)", hash))
		return
	}
	val, src, ok := s.cache.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result for %s", hash))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Simd-Key", hash)
	h.Set("X-Simd-Source", string(src))
	w.Write(val)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// statszResponse is the GET /statsz schema.
type statszResponse struct {
	UptimeS     float64           `json:"uptime_s"`
	CodeVersion string            `json:"code_version"`
	Jobs        int               `json:"jobs"`
	Harness     repro.HarnessStats `json:"harness"`
	Cache       resultcache.Stats `json:"cache"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statszResponse{
		UptimeS:     time.Since(s.start).Seconds(),
		CodeVersion: s.version,
		Jobs:        s.cfg.Jobs,
		Harness:     s.h.Stats(),
		Cache:       s.cache.Stats(),
	})
}

// decodeJSON parses a bounded request body strictly: unknown fields and
// trailing garbage are client errors.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid request body: trailing data")
	}
	return nil
}

// writeError sends a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
