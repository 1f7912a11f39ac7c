// Package resultcache is a content-addressed store for deterministic
// experiment results. Every simulation in this repository is a pure
// function of (experiment configuration, seed, code version) — byte-
// identical at any parallelism — so a result, once computed, is valid
// forever. The store exploits that: results are keyed by a canonical
// hash of their inputs, identical in-flight computations are
// singleflight-deduplicated, and completed results live in an
// LRU-bounded in-memory tier backed by an optional persistent on-disk
// tier (one file per key, written atomically and checksummed), so repeat
// queries cost ~0 across process restarts.
//
// It generalizes the harness's singleflight baseline cache (figures.go)
// and applies the same hard-won rule: errors are never cached. A failed
// or panicking compute is reported to every waiter of that flight and
// then forgotten, so the next caller retries instead of being poisoned
// by a stale error.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"sync"
)

// Key returns the content address of a result: "sha256:<hex>" over the
// code version and the canonical JSON encoding of config. encoding/json
// writes struct fields in declaration order and map keys sorted, so the
// encoding — and therefore the key — is deterministic for a given
// config value. Two processes running the same code version agree on
// every key, which is what lets the disk tier be shared across
// restarts.
func Key(version string, config any) (string, error) {
	buf, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("resultcache: encoding config: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0}) // domain-separate version from config bytes
	h.Write(buf)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// CodeVersion identifies the running code in cache keys. It prefers the
// VCS revision stamped into the build (plus a "+dirty" marker for
// modified trees), then the main module version, then "dev". Results
// keyed under "dev" are still internally consistent within one build;
// they just cannot distinguish two different dev builds, which is the
// same trust model as any local cache.
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = "dev"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			codeVersion = rev + dirty
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			codeVersion = v
		}
	})
	return codeVersion
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// keyPattern is the only key shape the disk tier maps to a file name.
// Keys reach the store from HTTP paths (GET /v1/result/{hash}), so
// anything that does not match is treated as absent rather than being
// spliced into a filesystem path.
var keyPattern = regexp.MustCompile(`^sha256:[0-9a-f]{64}$`)

// ValidKey reports whether key has the canonical "sha256:<64 hex>"
// shape produced by Key.
func ValidKey(key string) bool { return keyPattern.MatchString(key) }

// Source says which tier satisfied a lookup.
type Source string

const (
	// SourceMem is an in-memory LRU hit.
	SourceMem Source = "mem"
	// SourceDisk is a persistent-tier hit (the value was promoted to
	// memory on the way out).
	SourceDisk Source = "disk"
	// SourceComputed means this call ran the compute function.
	SourceComputed Source = "computed"
	// SourceShared means the call joined another caller's in-flight
	// lookup/compute for the same key and shared its outcome.
	SourceShared Source = "shared"
)

// Stats are the store's monotonic counters plus two gauges (InFlight,
// MemEntries). Hit ratio over a window is (MemHits+DiskHits+Shared) /
// (MemHits+DiskHits+Shared+Computed+Errors) diffed across snapshots.
type Stats struct {
	MemHits    int64 `json:"mem_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Shared     int64 `json:"shared"`
	Computed   int64 `json:"computed"`
	Errors     int64 `json:"errors"`
	Evictions  int64 `json:"evictions"`
	DiskErrors int64 `json:"disk_errors"`
	InFlight   int   `json:"in_flight"`
	MemEntries int   `json:"mem_entries"`
}

// Config configures a Store.
type Config struct {
	// Dir is the persistent tier's directory (created if missing). Empty
	// disables the disk tier.
	Dir string
	// MaxEntries bounds the in-memory tier (default 1024). The disk tier
	// is unbounded: one small file per distinct result ever computed.
	MaxEntries int
}

// Store is a two-tier content-addressed result store with singleflight
// admission. It is safe for concurrent use.
type Store struct {
	dir string
	max int

	mu     sync.Mutex
	lru    *list.List               // front = most recent; values are *memEntry
	mem    map[string]*list.Element // key → LRU element
	flight map[string]*flight       // key → in-flight lookup/compute
	stats  Stats
}

// memEntry is one in-memory cache slot.
type memEntry struct {
	key string
	val []byte
}

// flight is one singleflight slot: the first caller fills val/err and
// closes done; everyone else waits on done. Unlike memEntry a flight is
// always removed when it completes — errors live only as long as their
// flight, never in a tier. computing distinguishes a Do flight (will
// produce a value) from a lookup-only Get flight (may legitimately end
// empty), so a Do never mistakes a Get's empty miss for its own result.
type flight struct {
	done      chan struct{}
	computing bool
	val       []byte
	err       error
	src       Source
}

// New opens a store, creating the disk-tier directory when configured.
func New(cfg Config) (*Store, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return &Store{
		dir:    cfg.Dir,
		max:    cfg.MaxEntries,
		lru:    list.New(),
		mem:    make(map[string]*list.Element),
		flight: make(map[string]*flight),
	}, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.InFlight = len(s.flight)
	st.MemEntries = s.lru.Len()
	return st
}

// Get returns the cached value for key from the memory or disk tier,
// without computing anything. It joins an in-flight Do for the key if
// one exists (reporting SourceShared and that flight's outcome).
func (s *Store) Get(key string) ([]byte, Source, bool) {
	val, src, err := s.do(key, nil)
	if err != nil || val == nil {
		return nil, src, false
	}
	return val, src, true
}

// Do returns the value for key, computing it at most once: memory tier,
// then disk tier, then compute, with all concurrent callers for the
// same key sharing one flight. A successful compute is stored in both
// tiers; its exact bytes are returned to every caller forever after, so
// warm responses are byte-identical to cold ones. A compute that fails
// — or panics; the panic is recovered and converted into an error — is
// returned to every waiter of that flight and then dropped: errors are
// never cached, the next caller retries (the baseline-cache poisoning
// fix, generalized).
func (s *Store) Do(key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	if compute == nil {
		return nil, SourceComputed, fmt.Errorf("resultcache: nil compute for %s", key)
	}
	return s.do(key, compute)
}

// do is the shared Get/Do body; compute == nil means lookup-only.
func (s *Store) do(key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	var f *flight
	for {
		s.mu.Lock()
		if el, ok := s.mem[key]; ok {
			s.lru.MoveToFront(el)
			s.stats.MemHits++
			val := el.Value.(*memEntry).val
			s.mu.Unlock()
			return val, SourceMem, nil
		}
		if g, ok := s.flight[key]; ok {
			if compute == nil || g.computing {
				s.stats.Shared++
				s.mu.Unlock()
				<-g.done
				return g.val, SourceShared, g.err
			}
			// A Do behind a lookup-only Get flight: wait it out, then
			// retry — either the Get promoted a disk value to memory, or
			// this caller opens its own computing flight.
			s.mu.Unlock()
			<-g.done
			continue
		}
		f = &flight{done: make(chan struct{}), computing: compute != nil}
		s.flight[key] = f
		s.mu.Unlock()
		break
	}

	f.val, f.src, f.err = s.fill(key, compute)

	s.mu.Lock()
	delete(s.flight, key)
	switch {
	case f.err != nil:
		s.stats.Errors++
	case f.val == nil:
		// Lookup-only miss: nothing to admit.
	default:
		if f.src == SourceDisk {
			s.stats.DiskHits++
		} else {
			s.stats.Computed++
		}
		s.admit(key, f.val)
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, f.src, f.err
}

// fill resolves a missed key outside the lock: disk tier first, then
// the compute function (guarded against panics). It returns a nil value
// with a nil error only for lookup-only calls that miss everywhere.
func (s *Store) fill(key string, compute func() ([]byte, error)) (val []byte, src Source, err error) {
	if buf, ok := s.readDisk(key); ok {
		return buf, SourceDisk, nil
	}
	if compute == nil {
		return nil, SourceDisk, nil
	}
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("resultcache: compute for %s panicked: %v\n%s", key, r, debug.Stack())
		}
	}()
	val, err = compute()
	if err != nil {
		return nil, SourceComputed, err
	}
	s.writeDisk(key, val)
	return val, SourceComputed, nil
}

// admit inserts a value into the memory tier, evicting from the LRU
// tail past MaxEntries. Caller holds s.mu.
func (s *Store) admit(key string, val []byte) {
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*memEntry).val = val
		return
	}
	s.mem[key] = s.lru.PushFront(&memEntry{key: key, val: val})
	for s.lru.Len() > s.max {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.mem, tail.Value.(*memEntry).key)
		s.stats.Evictions++
	}
}

// path maps a key to its disk-tier file, or "" when the key is invalid
// or the disk tier is disabled.
func (s *Store) path(key string) string {
	if s.dir == "" || !ValidKey(key) {
		return ""
	}
	return filepath.Join(s.dir, "sha256-"+key[len("sha256:"):]+".json")
}

// readDisk returns the persisted value for key, if any. A file is the
// value followed by its 4-byte CRC-32; one whose checksum does not match
// — truncated, or corrupted on disk — is a miss counted in DiskErrors,
// and a Do recomputes the value and rewrites the file.
func (s *Store) readDisk(key string) ([]byte, bool) {
	p := s.path(key)
	if p == "" {
		return nil, false
	}
	buf, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	n := len(buf) - crc32.Size
	if n < 0 || crc32.ChecksumIEEE(buf[:n]) != binary.BigEndian.Uint32(buf[n:]) {
		s.diskError()
		return nil, false
	}
	return buf[:n:n], true
}

// diskError counts one failed disk-tier read or write.
func (s *Store) diskError() {
	s.mu.Lock()
	s.stats.DiskErrors++
	s.mu.Unlock()
}

// writeDisk persists a value and its checksum atomically: temp file in
// the same directory, then rename, so a concurrent reader (or a crash)
// never observes a partial file. Persistence is best-effort — a failure
// only bumps DiskErrors; the memory tier still serves the value.
func (s *Store) writeDisk(key string, val []byte) {
	p := s.path(key)
	if p == "" {
		return
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.diskError()
		return
	}
	if _, err := tmp.Write(binary.BigEndian.AppendUint32(slices.Clip(val), crc32.ChecksumIEEE(val))); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.diskError()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.diskError()
		return
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		s.diskError()
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		s.diskError()
	}
}
