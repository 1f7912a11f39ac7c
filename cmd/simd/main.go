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
	"sync"
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
	// The "listening" line is printed only after the port is bound, so
	// supervisors (and the CI smoke job) can poll for readiness safely.
	logger.Printf("listening on http://%s (cache dir %q, %d jobs, version %s)",
		ln.Addr(), *cacheDir, *jobs, s.version)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal during the drain kills the process
	return serveUntil(ctx, ln, s.handler(), *drainFor, logger)
}

// serveUntil serves h on ln until ctx is done, then stops accepting
// connections and drains in-flight requests for at most drain.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, logger *log.Logger) error {
	unused := &unusedConns{conns: map[net.Conn]struct{}{}}
	srv := &http.Server{Handler: h, ConnState: unused.track}
	srv.RegisterOnShutdown(unused.closeAll)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Printf("shutting down: draining in-flight runs (budget %s)", drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
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

// unusedConns tracks the connections that have not sent a request, so
// that shutdown can close them at once. http.Server.Shutdown closes idle
// keep-alive connections but waits five seconds for a new one to send
// its first request, and a client's transport leaves such connections
// behind: it dials for a request, hands the request to a connection
// that frees up before the dial completes, and keeps the dialed one idle.
type unusedConns struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (u *unusedConns) track(c net.Conn, state http.ConnState) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if state == http.StateNew {
		u.conns[c] = struct{}{}
	} else {
		delete(u.conns, c)
	}
}

// closeAll closes every connection that has not sent a request.
// Shutdown starts it once the listener is closed.
func (u *unusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for c := range u.conns {
		c.Close()
	}
}
