package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
)

// TestSimdLoad is the CI load test (vegeta-free, run under -race): it
// drives ≥1000 concurrent in-flight POST /v1/run requests spread over a
// small set of unique configurations and asserts the serving contract:
//
//   - zero duplicate simulations: the harness runs exactly one
//     simulation per unique config, however many requests race on it
//     (singleflight, verified via HarnessStats.Runs);
//   - warm responses are byte-identical to cold ones;
//   - a second server started on the same cache directory serves every
//     repeat from disk without re-simulating anything.
func TestSimdLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	cacheDir := t.TempDir()
	s, err := newServer(serverConfig{CacheDir: cacheDir, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.handler()

	// 16 unique tiny configs; 1000 requests round-robin over them, all
	// in flight at once (driven straight through ServeHTTP so host fd
	// limits can't cap the concurrency).
	var configs []repro.Request
	for _, model := range []string{"shmem", "mpi"} {
		for _, procs := range []int{2, 4} {
			for _, seed := range []uint64{0, 1} {
				for _, n := range []int{1 << 12, 1 << 13} {
					configs = append(configs, repro.Request{
						Algorithm: "radix", Model: model, N: n, Procs: procs, Seed: seed,
					})
				}
			}
		}
	}
	bodies := make([][]byte, len(configs))
	for i, c := range configs {
		if bodies[i], err = json.Marshal(c); err != nil {
			t.Fatal(err)
		}
	}

	const requests = 1000
	type reply struct {
		config int
		status int
		body   []byte
	}
	replies := make([]reply, requests)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-gate
			ci := r % len(configs)
			req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bodies[ci]))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			replies[r] = reply{config: ci, status: rec.Code, body: rec.Body.Bytes()}
		}(r)
	}
	close(gate) // release all 1000 at once
	wg.Wait()

	canonical := make([][]byte, len(configs))
	for r, rep := range replies {
		if rep.status != http.StatusOK {
			t.Fatalf("request %d (config %d): status %d, body %s", r, rep.config, rep.status, rep.body)
		}
		if canonical[rep.config] == nil {
			canonical[rep.config] = rep.body
		} else if !bytes.Equal(canonical[rep.config], rep.body) {
			t.Fatalf("config %d served two different documents:\n%s\n%s",
				rep.config, canonical[rep.config], rep.body)
		}
	}
	if runs := s.h.Stats().Runs; runs != len(configs) {
		t.Errorf("harness ran %d simulations for %d requests over %d configs, want exactly %d (zero duplicates)",
			runs, requests, len(configs), len(configs))
	}
	st := s.cache.Stats()
	if st.Computed != int64(len(configs)) {
		t.Errorf("cache computed %d results, want %d", st.Computed, len(configs))
	}
	if st.Errors != 0 {
		t.Errorf("cache recorded %d errors under load", st.Errors)
	}
	if total := st.MemHits + st.Shared + st.Computed; total != requests {
		t.Errorf("cache accounted for %d requests, want %d", total, requests)
	}

	// A fresh server on the same cache directory must serve every config
	// from the disk tier: byte-identical bytes, zero simulations.
	s2, err := newServer(serverConfig{CacheDir: cacheDir, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	handler2 := s2.handler()
	for ci := range configs {
		req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bodies[ci]))
		rec := httptest.NewRecorder()
		handler2.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("restart config %d: status %d, body %s", ci, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Header().Get("X-Simd-Source"); got != "disk" {
			t.Errorf("restart config %d served from %q, want disk", ci, got)
		}
		if !bytes.Equal(rec.Body.Bytes(), canonical[ci]) {
			t.Errorf("restart config %d bytes differ from first server's", ci)
		}
	}
	if runs := s2.h.Stats().Runs; runs != 0 {
		t.Errorf("restarted server re-simulated %d configs, want 0 (disk tier)", runs)
	}
}

// BenchmarkWarmRun measures the p99-dominating path: a fully warm
// cache hit through the HTTP handler.
func BenchmarkWarmRun(b *testing.B) {
	s, err := newServer(serverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	handler := s.handler()
	body, _ := json.Marshal(repro.Request{Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4})
	warm := func() int {
		req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := warm(); code != http.StatusOK {
		b.Fatalf("prime: status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := warm(); code != http.StatusOK {
			b.Fatal(fmt.Errorf("status %d", code))
		}
	}
}
