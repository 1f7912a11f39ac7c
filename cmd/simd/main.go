// Command simd is a long-running HTTP/JSON experiment service: "predict
// sort performance" queries against the deterministic simulator, served
// from a content-addressed result cache.
//
// Every simulation in this repository is a pure function of (experiment
// config, seed, code version) — byte-identical at any parallelism — so
// every result is cacheable forever. simd exploits that: results are
// keyed by a canonical hash of those inputs (internal/resultcache),
// identical in-flight requests are singleflight-deduplicated so a
// thundering herd costs one simulation, and completed results live in
// an LRU-bounded memory tier plus an optional persistent disk tier, so
// repeat queries cost ~0 across restarts.
//
// Usage:
//
//	simd [-addr host:port] [-cache-dir DIR] [-cache-entries N] [-j N]
//	     [-max-n N] [-grid-cells N] [-paranoid] [-v]
//
// Endpoints:
//
//	POST /v1/run            one experiment; response is the cached
//	                        result document (X-Simd-Cache: hit|miss,
//	                        X-Simd-Key, X-Simd-Source headers)
//	POST /v1/grid           a batch of cells; streams NDJSON progress
//	                        lines in completion order, one per cell
//	                        (per-cell errors — a bad cell never aborts
//	                        the batch), then a summary line
//	GET  /v1/result/{hash}  look up a result by its content address
//	GET  /healthz           liveness
//	GET  /statsz            harness run counters + cache tier stats + slab arena
//
// Request validation failures are 4xx; simulation failures are 5xx,
// whose body is the run's error: a failed simulated processor or a
// stranded run comes back from the simulator as an error, never a
// panic. A host bug that panics in a cell is still recovered per cell
// (repro.ForEachIndex / resultcache.Do) and reported as that cell's
// error — one poisoned request cannot take down the service. Errors are
// never cached, so a failed request is retried. On SIGINT/SIGTERM the server
// stops accepting connections and drains in-flight runs before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		cacheDir  = fs.String("cache-dir", "", "persistent result cache directory (empty = memory only)")
		cacheEnts = fs.Int("cache-entries", 4096, "in-memory result cache entries (LRU)")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (>= 1)")
		maxN      = fs.Int("max-n", 1<<24, "largest accepted key count per experiment")
		gridCells = fs.Int("grid-cells", 4096, "largest accepted /v1/grid batch")
		paranoid  = fs.Bool("paranoid", false, "shadow every simulation with the reference-model invariant checks (slow)")
		verbose   = fs.Bool("v", false, "log one line per completed simulation")
		drainFor  = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", *jobs)
	}
	logger := log.New(os.Stderr, "simd: ", log.LstdFlags)
	cfg := serverConfig{
		CacheDir:     *cacheDir,
		CacheEntries: *cacheEnts,
		Jobs:         *jobs,
		MaxN:         *maxN,
		MaxGridCells: *gridCells,
		Paranoid:     *paranoid,
	}
	if *verbose {
		cfg.Progress = func(format string, args ...any) {
			logger.Printf(format, args...)
		}
	}
	s, err := newServer(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.handler()}
	// The "listening" line is printed only after the port is bound, so
	// supervisors (and the CI smoke job) can poll for readiness safely.
	logger.Printf("listening on http://%s (cache dir %q, %d jobs, version %s)",
		ln.Addr(), *cacheDir, *jobs, s.version)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		logger.Printf("shutting down: draining in-flight runs (budget %s)", *drainFor)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Printf("drained; bye")
		return nil
	}
}
