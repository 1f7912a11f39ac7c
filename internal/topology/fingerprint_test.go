package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/networks.json from the current implementation")

// fingerprint is one network's observable behaviour, read through the
// public API only. Floats are stored as the hex of their IEEE-754 bits:
// the file pins values bit for bit, and JSON numbers would not.
type fingerprint struct {
	Kind     string `json:"kind"`
	Procs    int    `json:"procs"`
	Nodes    int    `json:"nodes"`
	Routers  int    `json:"routers"`
	MaxHops  int    `json:"max_hops"`
	Furthest string `json:"furthest_bits"`
	Average  string `json:"average_bits"`
	// Pairs is the SHA-256 over every ordered node pair (a-major) of
	// Hops as 4 little-endian bytes followed by Float64bits(ReadLatency)
	// as 8.
	Pairs string `json:"pairs_sha256"`
}

func fingerprintOf(t *testing.T, kind string, procs int) fingerprint {
	t.Helper()
	net, err := New(testNetConfig(kind, procs))
	if err != nil {
		t.Fatalf("New(%s, %d): %v", kind, procs, err)
	}
	h := sha256.New()
	n := net.Nodes()
	row := make([]byte, 12*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			binary.LittleEndian.PutUint32(row[12*b:], uint32(net.Hops(a, b)))
			binary.LittleEndian.PutUint64(row[12*b+4:], math.Float64bits(net.ReadLatency(a, b)))
		}
		h.Write(row)
	}
	return fingerprint{
		Kind:     kind,
		Procs:    procs,
		Nodes:    n,
		Routers:  net.Routers(),
		MaxHops:  net.MaxHops(),
		Furthest: fmt.Sprintf("%016x", math.Float64bits(net.FurthestReadLatency())),
		Average:  fmt.Sprintf("%016x", math.Float64bits(net.AverageReadLatency())),
		Pairs:    hex.EncodeToString(h.Sum(nil)),
	}
}

// TestNetworkFingerprints pins every kind at every axiomSizes machine
// against testdata/networks.json: shape, MaxHops, the exact bits of the
// furthest and all-pairs mean latency, and a hash of every node pair's
// (Hops, ReadLatency). Every simulated remote access is priced on these
// values, so the file may only change with `-update` when a change to
// the latency model is the point of the change.
func TestNetworkFingerprints(t *testing.T) {
	const path = "testdata/networks.json"
	var got []fingerprint
	for _, kind := range Kinds() {
		for _, procs := range axiomSizes(kind) {
			got = append(got, fingerprintOf(t, kind, procs))
		}
	}
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []fingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d networks, %s has %d (regenerate with -update only if the set of kinds or sizes changed on purpose)",
			len(got), path, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s/%d:\n got  %+v\n want %+v", want[i].Kind, want[i].Procs, got[i], want[i])
		}
	}
}
