package resultcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type cfgA struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

// TestKeyDeterministic pins that equal configs and versions hash to
// equal keys, and that any input change moves the key.
func TestKeyDeterministic(t *testing.T) {
	k1, err := Key("v1", cfgA{"radix", 4096})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key("v1", cfgA{"radix", 4096})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equal inputs hashed differently: %s vs %s", k1, k2)
	}
	if !ValidKey(k1) {
		t.Errorf("Key produced an invalid key %q", k1)
	}
	kN, _ := Key("v1", cfgA{"radix", 4097})
	kV, _ := Key("v2", cfgA{"radix", 4096})
	if k1 == kN || k1 == kV || kN == kV {
		t.Errorf("distinct inputs collided: %s %s %s", k1, kN, kV)
	}
}

// TestKeyVersionDomainSeparated pins the version/config domain
// separation: moving bytes across the boundary must change the key.
func TestKeyVersionDomainSeparated(t *testing.T) {
	a, _ := Key("ab", "c")
	b, _ := Key("a", "bc")
	if a == b {
		t.Error("version and config bytes are not domain-separated")
	}
}

func TestValidKey(t *testing.T) {
	good, _ := Key("v", 1)
	for _, tc := range []struct {
		key string
		ok  bool
	}{
		{good, true},
		{"sha256:" + strings.Repeat("0", 64), true},
		{"sha256:" + strings.Repeat("0", 63), false},
		{"sha256:" + strings.Repeat("G", 64), false},
		{"md5:" + strings.Repeat("0", 64), false},
		{"../../etc/passwd", false},
		{"", false},
	} {
		if got := ValidKey(tc.key); got != tc.ok {
			t.Errorf("ValidKey(%q) = %v, want %v", tc.key, got, tc.ok)
		}
	}
}

// TestDoComputesOnce: the second Do for a key must serve the first's
// exact bytes from memory without recomputing.
func TestDoComputesOnce(t *testing.T) {
	s := mustStore(t, Config{})
	var calls atomic.Int64
	compute := func() ([]byte, error) {
		calls.Add(1)
		return []byte(`{"t":1}`), nil
	}
	v1, src1, err := s.Do("k", compute)
	if err != nil || src1 != SourceComputed {
		t.Fatalf("first Do: %q, %v", src1, err)
	}
	v2, src2, err := s.Do("k", compute)
	if err != nil || src2 != SourceMem {
		t.Fatalf("second Do: %q, %v", src2, err)
	}
	if string(v1) != string(v2) {
		t.Errorf("warm bytes %q differ from cold bytes %q", v2, v1)
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
}

// TestDoSingleflight hammers one key from many goroutines; exactly one
// compute may run, everyone must see its bytes.
func TestDoSingleflight(t *testing.T) {
	s := mustStore(t, Config{})
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 64
	vals := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			v, _, err := s.Do("k", func() ([]byte, error) {
				calls.Add(1)
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[w] = v
		}(w)
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times under contention, want 1", calls.Load())
	}
	for w, v := range vals {
		if string(v) != "payload" {
			t.Errorf("worker %d saw %q", w, v)
		}
	}
	st := s.Stats()
	if st.Computed != 1 {
		t.Errorf("Stats.Computed = %d, want 1", st.Computed)
	}
	if st.MemHits+st.Shared != workers-1 {
		t.Errorf("MemHits+Shared = %d, want %d", st.MemHits+st.Shared, workers-1)
	}
}

// TestErrorsNotCached is the cache-poisoning regression, resultcache
// flavor: a failed compute must be retried by the next caller, and the
// waiters of the failed flight must all see the error.
func TestErrorsNotCached(t *testing.T) {
	s := mustStore(t, Config{Dir: t.TempDir()})
	k, _ := Key("v1", "poisonable")
	injected := errors.New("injected failure")
	fail := true
	v, _, err := s.Do(k, func() ([]byte, error) {
		if fail {
			return nil, injected
		}
		return []byte("recovered"), nil
	})
	if !errors.Is(err, injected) || v != nil {
		t.Fatalf("first Do = %q, %v; want injected failure", v, err)
	}
	fail = false
	v, src, err := s.Do(k, func() ([]byte, error) { return []byte("recovered"), nil })
	if err != nil {
		t.Fatalf("second Do still failing: %v (error was cached)", err)
	}
	if src != SourceComputed || string(v) != "recovered" {
		t.Errorf("second Do = %q from %q, want computed %q", v, src, "recovered")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("Stats.Errors = %d, want 1", st.Errors)
	}
	// The failed flight must not have persisted anything either.
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("disk tier holds %d files, want exactly the retried success", len(ents))
	}
}

// TestPanicContained: a panicking compute becomes an error, is not
// cached, and leaves the store fully usable.
func TestPanicContained(t *testing.T) {
	s := mustStore(t, Config{})
	_, _, err := s.Do("k", func() ([]byte, error) { panic("boom at cell") })
	if err == nil || !strings.Contains(err.Error(), "boom at cell") {
		t.Fatalf("panicking compute returned %v, want panic-derived error", err)
	}
	if !strings.Contains(err.Error(), "resultcache_test.go") {
		t.Errorf("panic error carries no stack: %v", err)
	}
	v, src, err := s.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" || src != SourceComputed {
		t.Errorf("store unusable after panic: %q, %q, %v", v, src, err)
	}
}

// TestLRUBound fills the memory tier past MaxEntries and checks the
// oldest keys were evicted while the newest survive.
func TestLRUBound(t *testing.T) {
	s := mustStore(t, Config{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := s.Do(k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemEntries != 4 {
		t.Errorf("MemEntries = %d, want 4", st.MemEntries)
	}
	if st.Evictions != 6 {
		t.Errorf("Evictions = %d, want 6", st.Evictions)
	}
	if _, _, ok := s.Get("k0"); ok {
		t.Error("evicted key k0 still served from memory")
	}
	if v, src, ok := s.Get("k9"); !ok || src != SourceMem || string(v) != "k9" {
		t.Errorf("freshest key: %q, %q, %v", v, src, ok)
	}
}

// TestDiskTierSurvivesRestart computes through one store and reads the
// same keys through a fresh store on the same directory: the values
// must come back byte-identical from disk without recomputing.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := mustStore(t, Config{Dir: dir})
	key, _ := Key("v1", cfgA{"radix", 64})
	want := []byte(`{"time_ns":42}`)
	if _, _, err := s1.Do(key, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	s2 := mustStore(t, Config{Dir: dir})
	v, src, err := s2.Do(key, func() ([]byte, error) {
		t.Error("restarted store recomputed a persisted result")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk || string(v) != string(want) {
		t.Errorf("restart read %q from %q, want %q from disk", v, src, want)
	}
	// Promoted to memory: the next read is a mem hit.
	if _, src, ok := s2.Get(key); !ok || src != SourceMem {
		t.Errorf("disk hit was not promoted to memory (src %q, ok %v)", src, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Computed != 0 {
		t.Errorf("restart stats = %+v, want 1 disk hit, 0 computed", st)
	}
}

// TestDiskTierAtomicNoTempLeak checks the write path leaves only the
// final file behind and that empty/corrupt files read as misses.
func TestDiskTierAtomicNoTempLeak(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, Config{Dir: dir})
	key, _ := Key("v1", 7)
	if _, _, err := s.Do(key, func() ([]byte, error) { return []byte("x"), nil }); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || strings.HasPrefix(ents[0].Name(), ".tmp-") {
		t.Fatalf("disk tier left %v, want exactly one final file", ents)
	}
	// Truncate the file: the store must treat it as a miss and recompute.
	if err := os.WriteFile(filepath.Join(dir, ents[0].Name()), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustStore(t, Config{Dir: dir})
	v, src, err := s2.Do(key, func() ([]byte, error) { return []byte("x2"), nil })
	if err != nil || src != SourceComputed || string(v) != "x2" {
		t.Errorf("corrupt file not treated as miss: %q, %q, %v", v, src, err)
	}
}

// TestDiskTierChecksum: a file cut in half or with one byte flipped is a
// miss under Get and a recompute under Do, counted in DiskErrors, and the
// recompute rewrites the file, which the next store reads as a disk hit.
// A value that is not JSON at all round-trips like any other.
func TestDiskTierChecksum(t *testing.T) {
	want := []byte(`{"time_ns":42,"verified":true}`)
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flip", func(b []byte) []byte { b[len(b)/3] ^= 0x20; return b }},
	} {
		dir := t.TempDir()
		key, _ := Key("v1", tc.name)
		if _, _, err := mustStore(t, Config{Dir: dir}).Do(key, func() ([]byte, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		path := mustStore(t, Config{Dir: dir}).path(key)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tc.corrupt(buf), 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustStore(t, Config{Dir: dir})
		if v, src, ok := s.Get(key); ok {
			t.Errorf("%s: Get served %q from %q", tc.name, v, src)
		}
		v, src, err := s.Do(key, func() ([]byte, error) { return want, nil })
		if err != nil || src != SourceComputed || string(v) != string(want) {
			t.Errorf("%s: Do = %q from %q, %v; want a recompute", tc.name, v, src, err)
		}
		if st := s.Stats(); st.DiskErrors != 2 {
			t.Errorf("%s: DiskErrors = %d, want 2 (the Get and the Do)", tc.name, st.DiskErrors)
		}
		if v, src, ok := mustStore(t, Config{Dir: dir}).Get(key); !ok || src != SourceDisk || string(v) != string(want) {
			t.Errorf("%s: after the rewrite Get = %q from %q, %v; want the value from disk", tc.name, v, src, ok)
		}
	}
	dir := t.TempDir()
	key, _ := Key("v1", "zeros")
	zeros := make([]byte, 2048)
	if _, _, err := mustStore(t, Config{Dir: dir}).Do(key, func() ([]byte, error) { return zeros, nil }); err != nil {
		t.Fatal(err)
	}
	if v, src, ok := mustStore(t, Config{Dir: dir}).Get(key); !ok || src != SourceDisk || string(v) != string(zeros) {
		t.Errorf("2048 zero bytes: Get = %d bytes from %q, %v; want them from disk", len(v), src, ok)
	}
}

// TestGetMissAndInvalidKeys: lookups never invent values, and keys that
// could escape the cache directory are rejected outright.
func TestGetMissAndInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, Config{Dir: dir})
	if _, _, ok := s.Get("sha256:" + strings.Repeat("a", 64)); ok {
		t.Error("Get invented a value for an absent key")
	}
	if _, _, ok := s.Get("../escape"); ok {
		t.Error("Get accepted a traversal key")
	}
	if p := s.path("../escape"); p != "" {
		t.Errorf("path(%q) = %q, want rejection", "../escape", p)
	}
}

// TestDoBehindGetFlight runs concurrent Get and Do traffic on the same
// missing key: every Do must end with the value even when it initially
// lands behind a lookup-only flight.
func TestDoBehindGetFlight(t *testing.T) {
	s := mustStore(t, Config{})
	const rounds = 50
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("k%d", r)
		gate := make(chan struct{})
		var wg sync.WaitGroup
		var calls atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				s.Get(key)
			}()
		}
		vals := make([][]byte, 4)
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				<-gate
				v, _, err := s.Do(key, func() ([]byte, error) {
					calls.Add(1)
					return []byte(key), nil
				})
				if err != nil {
					t.Error(err)
				}
				vals[d] = v
			}(d)
		}
		close(gate)
		wg.Wait()
		if calls.Load() != 1 {
			t.Fatalf("round %d: compute ran %d times, want 1", r, calls.Load())
		}
		for d, v := range vals {
			if string(v) != key {
				t.Fatalf("round %d: Do %d got %q, want %q", r, d, v, key)
			}
		}
	}
}

// TestCodeVersionStable: whatever the build stamps, the version must be
// non-empty and stable across calls (keys depend on it).
func TestCodeVersionStable(t *testing.T) {
	v := CodeVersion()
	if v == "" {
		t.Fatal("CodeVersion is empty")
	}
	if v2 := CodeVersion(); v2 != v {
		t.Errorf("CodeVersion changed between calls: %q then %q", v, v2)
	}
}
