package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/sorts"
)

// newTestServer builds a server plus an httptest front end.
func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tinyRun is a request small enough to simulate in milliseconds.
func tinyRun(seed uint64) repro.Request {
	return repro.Request{Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4, Seed: seed}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunColdWarmByteIdentical: the warm response must be the cold
// response's exact bytes, served as a cache hit without resimulating.
func TestRunColdWarmByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	cold := postJSON(t, ts.URL+"/v1/run", tinyRun(1))
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", cold.StatusCode)
	}
	if got := cold.Header.Get("X-Simd-Cache"); got != "miss" {
		t.Errorf("cold X-Simd-Cache = %q, want miss", got)
	}
	coldBody := readAll(t, cold)

	warm := postJSON(t, ts.URL+"/v1/run", tinyRun(1))
	if got := warm.Header.Get("X-Simd-Cache"); got != "hit" {
		t.Errorf("warm X-Simd-Cache = %q, want hit", got)
	}
	warmBody := readAll(t, warm)
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm body differs from cold body:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if runs := s.h.Stats().Runs; runs != 1 {
		t.Errorf("harness ran %d simulations for two identical requests, want 1", runs)
	}
	var doc runResult
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Verified || doc.TimeNs <= 0 || len(doc.Breakdowns) != 4 {
		t.Errorf("result document malformed: %+v", doc)
	}
	if doc.Key != cold.Header.Get("X-Simd-Key") {
		t.Errorf("document key %q != header key %q", doc.Key, cold.Header.Get("X-Simd-Key"))
	}
}

// TestRunValidation maps every malformed request to 400.
func TestRunValidation(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{MaxN: 1 << 16})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"bad json", `{"algorithm":`},
		{"unknown field", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"bogus":1}`},
		{"trailing data", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4} {}`},
		{"unknown algorithm", `{"algorithm":"bogo","model":"shmem","n":4096,"procs":4}`},
		{"unknown model", `{"algorithm":"radix","model":"openmp","n":4096,"procs":4}`},
		{"unknown dist", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"dist":"weird"}`},
		{"zero n", `{"algorithm":"radix","model":"shmem","n":0,"procs":4}`},
		{"n over max", `{"algorithm":"radix","model":"shmem","n":131072,"procs":4}`},
		{"zero procs", `{"algorithm":"radix","model":"shmem","n":4096,"procs":0}`},
		{"procs over max", `{"algorithm":"radix","model":"shmem","n":4096,"procs":2048}`},
		{"radix out of range", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":25}`},
		// Above the key generators' and sorting programs' bound: these
		// used to pass validation and die in keys.Generate as a 500.
		{"radix 17", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":17}`},
		{"radix 20", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":20}`},
		{"radix 24", `{"algorithm":"sample","model":"mpi","n":4096,"procs":4,"radix":24}`},
		{"negative radix", `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":-1}`},
		// Machines the interconnect cannot wire (formerly a 500 out of
		// machine.New): two processors per node, and a hypercube needs a
		// power-of-two router count.
		{"sample ccsas procs 3", `{"algorithm":"sample","model":"ccsas","n":4096,"procs":3}`},
		{"mpi procs 3", `{"algorithm":"radix","model":"mpi","n":4096,"procs":3}`},
		{"mpi procs 12", `{"algorithm":"radix","model":"mpi","n":4096,"procs":12}`},
		{"ccsas-new procs 12", `{"algorithm":"radix","model":"ccsas-new","n":4096,"procs":12}`},
		{"shmem procs 5 torus", `{"algorithm":"radix","model":"shmem","n":4096,"procs":5,"topo":"torus"}`},
		{"seq with procs", `{"algorithm":"radix","model":"seq","n":4096,"procs":4}`},
		{"seq sample", `{"algorithm":"sample","model":"seq","n":4096,"procs":1}`},
		{"sample ccsas-new", `{"algorithm":"sample","model":"ccsas-new","n":4096,"procs":4}`},
		{"seq psrs", `{"algorithm":"psrs","model":"seq","n":4096,"procs":1}`},
		{"psrs ccsas-new", `{"algorithm":"psrs","model":"ccsas-new","n":4096,"procs":4}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, body)
		}
	}
	// A rejected request never reaches the simulator.
	if runs := s.h.Stats().Runs; runs != 0 {
		t.Errorf("harness Runs = %d after only malformed requests, want 0", runs)
	}
}

// TestRunTopo covers the interconnect field of /v1/run: an unknown kind
// is rejected up front with 400, every registered kind simulates and
// verifies — the CC-SAS programs on 6 fat-tree processors too, the radix
// sort through its prefix tree included, and radix CC-SAS on 6 hypercube
// processors — and the empty string canonicalizes to "hypercube" in the
// cache key so the default spelled two ways is a single cache entry.
func TestRunTopo(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})

	resp := postJSON(t, ts.URL+"/v1/run", repro.Request{
		Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4, Topo: "mesh"})
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown topo: status %d, want 400 (body %s)", resp.StatusCode, body)
	}

	var reqs []repro.Request
	for _, kind := range []string{"fattree", "torus", "torus3d", "dragonfly", "numa2"} {
		req := tinyRun(7)
		req.Topo = kind
		reqs = append(reqs, req)
	}
	reqs = append(reqs,
		repro.Request{Algorithm: "sample", Model: "ccsas", N: 1 << 12, Procs: 6, Topo: "fattree"},
		repro.Request{Algorithm: "radix", Model: "ccsas", N: 1 << 12, Procs: 6, Topo: "fattree"},
		repro.Request{Algorithm: "radix", Model: "ccsas", N: 1 << 12, Procs: 6})
	for _, req := range reqs {
		resp := postJSON(t, ts.URL+"/v1/run", req)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d (body %s)", req, resp.StatusCode, body)
		}
		var doc runResult
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if !doc.Verified || doc.TimeNs <= 0 {
			t.Errorf("%+v: result malformed: %+v", req, doc)
		}
	}

	def := postJSON(t, ts.URL+"/v1/run", tinyRun(9))
	if got := def.Header.Get("X-Simd-Cache"); got != "miss" {
		t.Errorf("default topo cold request: X-Simd-Cache = %q, want miss", got)
	}
	defKey := def.Header.Get("X-Simd-Key")
	readAll(t, def)

	spelled := tinyRun(9)
	spelled.Topo = "hypercube"
	warm := postJSON(t, ts.URL+"/v1/run", spelled)
	readAll(t, warm)
	if got := warm.Header.Get("X-Simd-Cache"); got != "hit" {
		t.Errorf(`topo "hypercube" after default run: X-Simd-Cache = %q, want hit`, got)
	}
	if key := warm.Header.Get("X-Simd-Key"); key != defKey {
		t.Errorf(`topo "" and "hypercube" map to different cache keys %q vs %q`, defKey, key)
	}
	if runs := s.h.Stats().Runs; runs < 1 {
		t.Errorf("harness Runs = %d, want ≥ 1", runs)
	}
}

// TestRunPsrs: the service accepts the PSRS programs added beyond the
// paper's eight; a psrs cell must simulate, verify, and cache like any
// other algorithm/model combination.
func TestRunPsrs(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	for _, model := range []string{"ccsas", "mpi", "shmem"} {
		resp := postJSON(t, ts.URL+"/v1/run", repro.Request{
			Algorithm: "psrs", Model: model, N: 1 << 12, Procs: 4, Seed: 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("psrs-%s status %d: %s", model, resp.StatusCode, readAll(t, resp))
		}
		var doc runResult
		if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
			t.Fatal(err)
		}
		if !doc.Verified || doc.TimeNs <= 0 {
			t.Errorf("psrs-%s result malformed: %+v", model, doc)
		}
	}
}

// TestRunTraceMetrics: trace:true embeds deterministic flat metrics and
// the server drains the harness trace buffer (the unbounded-growth
// bugfix's service-side contract).
func TestRunTraceMetrics(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	req := tinyRun(3)
	req.Trace = true
	first := readAll(t, postJSON(t, ts.URL+"/v1/run", req))
	var doc runResult
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("traced run returned no metrics")
	}
	if doc.Metrics["breakdown.busy_ns"] <= 0 {
		t.Errorf("metrics lack breakdown.busy_ns: %v", doc.Metrics)
	}
	if got := len(s.h.Traces()); got != 0 {
		t.Errorf("harness buffer holds %d traces after a traced request, want 0 (drained)", got)
	}
	// An untraced request for the same config is a different document
	// (trace is part of the cache key), still deterministic.
	req2 := tinyRun(3)
	second := readAll(t, postJSON(t, ts.URL+"/v1/run", req2))
	if bytes.Equal(first, second) {
		t.Error("traced and untraced documents share cache entries")
	}
}

// TestResultEndpoint round-trips the content address.
func TestResultEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp := postJSON(t, ts.URL+"/v1/run", tinyRun(5))
	key := resp.Header.Get("X-Simd-Key")
	body := readAll(t, resp)

	got, err := http.Get(ts.URL + "/v1/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", got.StatusCode)
	}
	if !bytes.Equal(readAll(t, got), body) {
		t.Error("GET /v1/result bytes differ from the run response")
	}

	missing, err := http.Get(ts.URL + "/v1/result/sha256:" + strings.Repeat("a", 64))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, missing)
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("absent key: status %d, want 404", missing.StatusCode)
	}

	bad, err := http.Get(ts.URL + "/v1/result/not-a-hash")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, bad)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", bad.StatusCode)
	}
}

// TestGridPerCellErrors: one batch mixing good cells, a runtime-failing
// cell (seed 3 passes validation, then the simulate stub fails it), and
// duplicates. Every cell reports exactly once; failures stay per-cell.
func TestGridPerCellErrors(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{Jobs: 4})
	real := s.simulate
	s.simulate = func(e repro.Experiment) (*repro.Outcome, error) {
		if e.Seed == 3 {
			return nil, errors.New("injected runtime failure")
		}
		return real(e)
	}
	grid := gridRequest{Cells: []repro.Request{
		tinyRun(1),
		tinyRun(3), // fails at runtime
		tinyRun(2),
		tinyRun(1), // duplicate of cell 0: must not resimulate
	}}
	resp := postJSON(t, ts.URL+"/v1/grid", grid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	defer resp.Body.Close()
	seen := make(map[int]gridCellStatus)
	var summary gridSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var st gridCellStatus
		if err := json.Unmarshal(line, &st); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", line, err)
		}
		var sum gridSummary
		json.Unmarshal(line, &sum)
		if sum.Done {
			summary = sum
			continue
		}
		if _, dup := seen[st.Index]; dup {
			t.Errorf("cell %d reported twice", st.Index)
		}
		seen[st.Index] = st
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("got %d cell lines, want 4 (%v)", len(seen), seen)
	}
	for _, i := range []int{0, 2, 3} {
		if seen[i].Error != "" || seen[i].TimeNs <= 0 {
			t.Errorf("cell %d should have succeeded: %+v", i, seen[i])
		}
	}
	if !strings.Contains(seen[1].Error, "injected runtime failure") {
		t.Errorf("cell 1 should carry its runtime error, got %+v", seen[1])
	}
	if summary.Cells != 4 || summary.OK != 3 || summary.Errors != 1 {
		t.Errorf("summary = %+v, want 4 cells / 3 ok / 1 error", summary)
	}
	// Cells 0 and 3 are identical: exactly 2 unique simulations ran.
	if runs := s.h.Stats().Runs; runs != 2 {
		t.Errorf("harness ran %d simulations, want 2 (dedup of duplicate cells)", runs)
	}
}

// TestGridValidation: malformed batches are rejected whole, 4xx.
func TestGridValidation(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{MaxGridCells: 2})
	for name, body := range map[string]string{
		"empty":               `{"cells":[]}`,
		"bad cell":            `{"cells":[{"algorithm":"radix","model":"shmem","n":0,"procs":4}]}`,
		"too large":           `{"cells":[{"algorithm":"radix","model":"shmem","n":4096,"procs":4},{"algorithm":"radix","model":"shmem","n":4096,"procs":4},{"algorithm":"radix","model":"shmem","n":4096,"procs":4}]}`,
		"unbuildable machine": `{"cells":[{"algorithm":"radix","model":"shmem","n":4096,"procs":4},{"algorithm":"radix","model":"mpi","n":4096,"procs":12}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/grid", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A rejected batch runs none of its cells, the valid ones included.
	if runs := s.h.Stats().Runs; runs != 0 {
		t.Errorf("harness Runs = %d after only rejected batches, want 0", runs)
	}
}

// TestPanicContainment: a panicking simulation becomes a 500 for that
// request only — the server stays up, the key is not poisoned, and the
// next request for the same config succeeds.
func TestPanicContainment(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	real := s.simulate
	s.simulate = func(e repro.Experiment) (*repro.Outcome, error) {
		panic(fmt.Sprintf("injected panic for n=%d", e.N))
	}
	resp := postJSON(t, ts.URL+"/v1/run", tinyRun(9))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "injected panic") {
		t.Errorf("500 body does not carry the panic: %s", body)
	}

	s.simulate = real
	resp = postJSON(t, ts.URL+"/v1/run", tinyRun(9))
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after panic, same config: status %d, want 200 (error poisoned the cache?)", resp.StatusCode)
	}

	// Same containment through /v1/grid: the panic surfaces as that
	// cell's error while other cells complete.
	s.simulate = func(e repro.Experiment) (*repro.Outcome, error) {
		if e.Seed == 77 {
			panic("injected grid panic")
		}
		return real(e)
	}
	gresp := postJSON(t, ts.URL+"/v1/grid", gridRequest{Cells: []repro.Request{tinyRun(77), tinyRun(78)}})
	glines := readAll(t, gresp)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("grid with panicking cell: status %d", gresp.StatusCode)
	}
	if !strings.Contains(string(glines), "injected grid panic") {
		t.Errorf("grid stream does not report the panicking cell: %s", glines)
	}
	if !strings.Contains(string(glines), `"done":true`) {
		t.Errorf("grid stream has no summary: %s", glines)
	}
	s.simulate = real
}

// TestRunMachineFailure: a simulated processor that panics is a short
// 500 naming it — the run's error, no host stack — and the error is not
// cached: the same request without the failure computes a 200.
func TestRunMachineFailure(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	sorts.SetCorruptPSRSBoundaryForTest(func(proc, _ int, _ []int64) {
		if proc == 2 {
			panic("processor 2 lost its boundaries")
		}
	})
	defer sorts.SetCorruptPSRSBoundaryForTest(nil)
	req := repro.Request{Algorithm: "psrs", Model: "mpi", N: 1 << 12, Procs: 4}
	resp := postJSON(t, ts.URL+"/v1/run", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError || len(body) >= 300 ||
		strings.Contains(string(body), "goroutine") || !strings.Contains(string(body), "processor 2 panicked") {
		t.Errorf("failed run: status %d, %d-byte body %s; want a 500 under 300 bytes naming processor 2 and no stack",
			resp.StatusCode, len(body), body)
	}
	sorts.SetCorruptPSRSBoundaryForTest(nil)
	resp = postJSON(t, ts.URL+"/v1/run", req)
	readAll(t, resp)
	if src := resp.Header.Get("X-Simd-Source"); resp.StatusCode != http.StatusOK || src != "computed" {
		t.Errorf("same request after the failure: status %d from %q, want a computed 200", resp.StatusCode, src)
	}
}

// TestHealthzStatsz sanity-checks the operational endpoints.
func TestHealthzStatsz(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}

	readAll(t, postJSON(t, ts.URL+"/v1/run", tinyRun(11)))
	// A cell of half the keys borrows slabs one class smaller, which the
	// pool cuts from the first cell's released ones.
	half := tinyRun(11)
	half.N /= 2
	readAll(t, postJSON(t, ts.URL+"/v1/run", half))
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st statszResponse
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Harness.Runs != 2 || st.Harness.SimNs <= 0 {
		t.Errorf("statsz harness = %+v, want 2 runs with positive sim time", st.Harness)
	}
	if st.Cache.Computed != 2 {
		t.Errorf("statsz cache = %+v, want 2 computed", st.Cache)
	}
	if st.CodeVersion == "" || st.Jobs < 1 {
		t.Errorf("statsz metadata incomplete: %+v", st)
	}
	if a := st.Arena; a.HighWater <= 0 || a.Mapped > a.HighWater {
		t.Errorf("statsz arena = %+v, want slabs mapped up to a positive high-water mark", a)
	}
	if a := st.Arena; a.Splits == 0 || a.Merges == 0 || a.Merges > a.Splits {
		t.Errorf("statsz arena = %+v, want splits and merges, no more merges than splits", a)
	}
}

// TestMethodNotAllowed: the mux's method patterns reject mismatches.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// TestRunSkewDists: the four skew distributions are accepted
// end-to-end — simulated, verified, 200 — and every one of them (plus
// gauss) occupies a distinct cache key, so skew results can never
// shadow gauss results. An unknown dist stays a 400 (covered above);
// here the distinct-key half of the contract is pinned.
func TestRunSkewDists(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	keysSeen := map[string]string{}
	for _, dist := range []string{"gauss", "zipf", "selfsim", "dupheavy", "adversarial"} {
		req := tinyRun(1)
		req.Dist = dist
		resp := postJSON(t, ts.URL+"/v1/run", req)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dist %s: status %d (body %s)", dist, resp.StatusCode, body)
		}
		var doc runResult
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if !doc.Verified {
			t.Errorf("dist %s: output not verified", dist)
		}
		key := resp.Header.Get("X-Simd-Key")
		if key == "" {
			t.Fatalf("dist %s: missing cache key", dist)
		}
		if prev, dup := keysSeen[key]; dup {
			t.Errorf("dist %s shares a cache key with %s: %s", dist, prev, key)
		}
		keysSeen[key] = dist
	}
	if runs := s.h.Stats().Runs; runs != 5 {
		t.Errorf("harness ran %d simulations for five distinct dists, want 5", runs)
	}
}

// TestGridSkewCells: a /v1/grid batch over the skew distributions runs
// every cell under a distinct cache key, and a batch containing an
// unknown dist is rejected whole by the upfront validation (4xx) before
// anything simulates.
func TestGridSkewCells(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	grid := gridRequest{Cells: []repro.Request{
		{Algorithm: "sample", Model: "ccsas", N: 1 << 12, Procs: 4, Dist: "zipf"},
		{Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4, Dist: "adversarial"},
		{Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4, Dist: "gauss"},
	}}
	resp := postJSON(t, ts.URL+"/v1/grid", grid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	seen := make(map[int]gridCellStatus)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var st gridCellStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", sc.Bytes(), err)
		}
		var sum gridSummary
		json.Unmarshal(sc.Bytes(), &sum)
		if sum.Done {
			if sum.OK != 3 || sum.Errors != 0 {
				t.Errorf("summary = %+v, want 3 ok / 0 errors", sum)
			}
			continue
		}
		seen[st.Index] = st
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	keysSeen := map[string]bool{}
	for i := 0; i < 3; i++ {
		st, ok := seen[i]
		if !ok || st.Error != "" || st.TimeNs <= 0 {
			t.Fatalf("cell %d missing or failed: %+v", i, st)
		}
		if keysSeen[st.Key] {
			t.Errorf("cell %d shares a cache key with an earlier cell", i)
		}
		keysSeen[st.Key] = true
	}
	if runs := s.h.Stats().Runs; runs != 3 {
		t.Errorf("harness ran %d simulations, want 3 (all cells distinct)", runs)
	}
	// Unknown dist in any cell: the whole batch is rejected upfront.
	bad := gridRequest{Cells: []repro.Request{
		{Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4, Dist: "weird"},
	}}
	resp = postJSON(t, ts.URL+"/v1/grid", bad)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-dist batch: status %d, want 400 (body %s)", resp.StatusCode, body)
	}
}

// TestWireContract pins the service's wire contract at a fixed code
// version: the literal sha256: key of each request body (captured from
// the commit before repro.Request replaced the service's own request and
// cache-config structs), the spellings that must land on one key — an
// omitted radix is 8, an empty topo is the hypercube, names are
// case-insensitive — and one full result document, byte for byte. A
// changed field, tag, order or default of repro.Request fails here
// before it silently orphans every cached result.
func TestWireContract(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	s.version = "wire-contract-v1"
	const base = "sha256:e8a009e12368f3dd92a23c76e4b04a2ad133263af63e01d3b023e53414b02dab"
	for _, tc := range []struct{ body, key string }{
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4}`, base},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":8}`, base},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":0,"dist":"","seed":0,"full_size":false,"trace":false}`, base},
		{`{"algorithm":"RADIX","model":"Shmem","n":4096,"procs":4,"dist":"GAUSS","topo":"HyperCube"}`, base},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"topo":""}`, base},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"topo":"hypercube"}`, base},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"seed":7}`, "sha256:6ba7e27563ef5070591b250561b7164a8abece8bf2bf645560078df7f32b2f70"},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":11}`, "sha256:311307045b182c35d8a39b86013e970c38f2399f6d09e36a22d4bc0aa73c9264"},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"dist":"zipf"}`, "sha256:d13b04d6823e6309041ae1c57e04c547d4326a53f2044dabd260e5ed450cf149"},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"topo":"torus3d"}`, "sha256:3ee2072d074db310ec8a0bc02e7d461cbf40302348c77228fb3de57a77ad3a32"},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"full_size":true}`, "sha256:8c6bdee06edab9ffc60c485da273ca2e7fe7e6bf82f95ab91db2b9a7d7a61829"},
		{`{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"trace":true}`, "sha256:0023b9a2118fbaa0f3bf51cb979bb12cb6c92f0613fa5a6d463150c868b8c6ae"},
		{`{"algorithm":"sample","model":"mpi-sgi","n":4096,"procs":4}`, "sha256:13064927b4e724c511705c95ccdac0afd6ccc23b887cf64b214d0e351f8029a0"},
		{`{"algorithm":"psrs","model":"ccsas","n":4096,"procs":4}`, "sha256:36b9f8058c693b5cc3c762982751b6b793e0f70ab2250a967cabc9bc33ffb772"},
		{`{"algorithm":"radix","model":"seq","n":4096,"procs":1}`, "sha256:9b62712246931946293652c03a5caef958673d53c0d3cac96adfd192f2cdc03d"},
		{`{"algorithm":"radix","model":"ccsas-new","n":4096,"procs":4}`, "sha256:7ce5a1631c865498733b1ad9ab2a47d196f0987adbfc7cbc53442a12dc554788"},
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if got := resp.Header.Get("X-Simd-Key"); resp.StatusCode != http.StatusOK || got != tc.key {
			t.Errorf("%s\n status %d key %s\n want 200 key %s (%s)", tc.body, resp.StatusCode, got, tc.key, body)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"algorithm":"Sample","model":"MPI","n":4096,"procs":4,"dist":"zipf","topo":"torus3d","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	const wantDoc = `{"key":"sha256:24d8432f2ae3e1abcaa06001d0886cfef183334757ec61c7c856b1e14421cb43","code_version":"wire-contract-v1","config":{"algorithm":"sample","model":"mpi","n":4096,"procs":4,"radix":8,"dist":"zipf","topo":"torus3d","seed":7,"full_size":false,"trace":false},"time_ns":1039714.4449998648,"verified":true,"breakdowns":[{"busy_ns":936857.6799998608,"lmem_ns":23732.75,"rmem_ns":5838.5,"sync_ns":1046.4649999999674},{"busy_ns":923971.1199998658,"lmem_ns":23006.25,"rmem_ns":5645.65,"sync_ns":698.4749999999767},{"busy_ns":854300.5899998932,"lmem_ns":21773.75,"rmem_ns":5782.674999999999,"sync_ns":949.1099999999278},{"busy_ns":1008205.7199998361,"lmem_ns":25020.25,"rmem_ns":5691.325,"sync_ns":797.1500000000233}]}` + "\n"
	if got := string(readAll(t, resp)); got != wantDoc {
		t.Errorf("result document:\n%swant:\n%s", got, wantDoc)
	}
}
