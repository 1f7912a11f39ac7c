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
	"repro/internal/machine"
	"repro/internal/resultcache"
)

// runResult is the cached result document: a pure function of (the
// canonical repro.Request, code version), serialized once at compute
// time and served byte-identically from every tier forever after.
type runResult struct {
	Key         string             `json:"key"`
	CodeVersion string             `json:"code_version"`
	Config      repro.Request      `json:"config"`
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

// gridRequest is the POST /v1/grid body; a cell is the POST /v1/run
// body.
type gridRequest struct {
	Cells []repro.Request `json:"cells"`
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

// admit applies the service's own bounds to one wire cell, then hands
// it to Request.Experiment: the experiment to run plus the canonical
// request that is its cache-key config. Every failure here is the
// client's fault and maps to 400.
func (s *server) admit(req repro.Request) (repro.Experiment, repro.Request, error) {
	if req.N > s.cfg.MaxN {
		return repro.Experiment{}, repro.Request{}, fmt.Errorf("n must be in [1, %d], got %d", s.cfg.MaxN, req.N)
	}
	if req.Procs > 1024 {
		return repro.Experiment{}, repro.Request{}, fmt.Errorf("procs must be in [1, 1024], got %d", req.Procs)
	}
	return req.Experiment()
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
func (s *server) computeCell(e repro.Experiment, canon repro.Request, key string) ([]byte, error) {
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
func (s *server) runCell(e repro.Experiment, canon repro.Request) (val []byte, key string, src resultcache.Source, err error) {
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
	var req repro.Request
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	exp, canon, err := s.admit(req)
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
	canons := make([]repro.Request, len(req.Cells))
	for i, cell := range req.Cells {
		exp, canon, err := s.admit(cell)
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
	UptimeS     float64            `json:"uptime_s"`
	CodeVersion string             `json:"code_version"`
	Jobs        int                `json:"jobs"`
	Harness     repro.HarnessStats `json:"harness"`
	Cache       resultcache.Stats  `json:"cache"`
	// Arena is the process-wide slab pool backing simulated arrays.
	Arena machine.ArenaUsage `json:"arena"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statszResponse{
		UptimeS:     time.Since(s.start).Seconds(),
		CodeVersion: s.version,
		Jobs:        s.cfg.Jobs,
		Harness:     s.h.Stats(),
		Cache:       s.cache.Stats(),
		Arena:       machine.ArenaStats(),
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
