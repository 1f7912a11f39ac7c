package repro

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/sorts"
	"repro/internal/topology"
)

// TestRequestExperiment: for every program × {gauss, zipf} × {default,
// torus3d} the Request front door yields exactly the Experiment the
// front ends used to assemble by hand (names parsed, radix 8 written
// out, an empty topo left empty) and a canonical request with every
// default spelled; and however the names are cased, the canonical form
// is the same.
func TestRequestExperiment(t *testing.T) {
	dists := map[string]keys.Dist{"": keys.Gauss, "gauss": keys.Gauss, "zipf": keys.Zipf}
	for _, v := range sorts.Variants() {
		procs := 8
		if v.Model == string(Seq) {
			procs = 1
		}
		for distName, dist := range dists {
			for _, topo := range []string{"", "torus3d"} {
				req := Request{Algorithm: v.Algorithm, Model: v.Model, N: 1 << 14, Procs: procs,
					Dist: distName, Topo: topo, Seed: 5, FullSize: true, Trace: true}
				want := Experiment{
					Algorithm: Algorithm(v.Algorithm), Model: Model(v.Model), N: 1 << 14, Procs: procs, Radix: 8,
					Dist: dist, Topo: topo, Seed: 5, FullSize: true, Trace: true,
				}
				wantCanon := req
				wantCanon.Radix, wantCanon.Dist = 8, dist.String()
				if topo == "" {
					wantCanon.Topo = topology.KindHypercube
				}
				e, canon, err := req.Experiment()
				if err != nil || e != want || canon != wantCanon {
					t.Errorf("%+v:\n got %+v\n     %+v, %v\nwant %+v\n     %+v", req, e, canon, err, want, wantCanon)
				}
				loud := req
				loud.Algorithm, loud.Model = strings.ToUpper(req.Algorithm), strings.ToUpper(req.Model)
				loud.Dist, loud.Topo, loud.Radix = strings.ToUpper(req.Dist), strings.ToUpper(req.Topo), 8
				if e2, canon2, err := loud.Experiment(); err != nil || canon2 != canon || e2.Label() != e.Label() {
					t.Errorf("%+v: %+v, %+v, %v; want the canonical form of %+v", loud, e2, canon2, err, req)
				}
			}
		}
	}
	// The canonical request is simd's cache-key config: ten fields, this
	// order, every one present.
	_, canon, err := Request{Algorithm: "radix", Model: "shmem", N: 4096, Procs: 4}.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(canon)
	const want = `{"algorithm":"radix","model":"shmem","n":4096,"procs":4,"radix":8,"dist":"gauss","topo":"hypercube","seed":0,"full_size":false,"trace":false}`
	if string(got) != want {
		t.Errorf("canonical request encodes as\n%s\nwant\n%s", got, want)
	}
}

// TestRequestRejections: what a Request can get wrong comes back as the
// error the parsers and the layers' validators give — the program's
// processor rule included — word for word (CI greps the radix message).
func TestRequestRejections(t *testing.T) {
	ok := Request{Algorithm: "radix", Model: "shmem", N: 1 << 12, Procs: 4}
	for _, tc := range []struct {
		name string
		edit func(*Request)
		want string
	}{
		{"radix 17", func(r *Request) { r.Radix = 17 }, "keys: RadixBits must be in [1,16], got 17"},
		{"radix 20", func(r *Request) { r.Radix = 20 }, "keys: RadixBits must be in [1,16], got 20"},
		{"radix 24", func(r *Request) { r.Radix = 24 }, "keys: RadixBits must be in [1,16], got 24"},
		{"radix negative", func(r *Request) { r.Radix = -2 }, "keys: RadixBits must be in [1,16], got -2"},
		{"zero n", func(r *Request) { r.N = 0 }, "keys: N must be positive, got 0"},
		{"zero procs", func(r *Request) { r.Procs = 0 }, "keys: Procs must be positive, got 0"},
		{"mpi procs 3", func(r *Request) { r.Model, r.Procs = "mpi", 3 }, "topology: processors (3) not a multiple of procs per node (2)"},
		{"mpi procs 12", func(r *Request) { r.Model, r.Procs = "mpi", 12 }, "topology: hypercube router count 3 is not a power of two"},
		{"seq procs 4", func(r *Request) { r.Model = "seq" }, "repro: radix/seq runs on 1 processor, got 4"},
		{"seq sample", func(r *Request) { r.Algorithm, r.Model, r.Procs = "sample", "seq", 1 },
			`repro: no program for algorithm "sample" under model "seq" (models: [ccsas mpi mpi-sgi shmem])`},
		{"ccsas-new procs 12", func(r *Request) { r.Model, r.Procs = "ccsas-new", 12 }, "topology: hypercube router count 3 is not a power of two"},
		{"psrs ccsas procs 3", func(r *Request) { r.Algorithm, r.Model, r.Procs = "psrs", "ccsas", 3 }, "topology: processors (3) not a multiple of procs per node (2)"},
		{"sample ccsas-new", func(r *Request) { r.Algorithm, r.Model = "sample", "ccsas-new" },
			`repro: no program for algorithm "sample" under model "ccsas-new" (models: [ccsas mpi mpi-sgi shmem])`},
		{"unknown algorithm", func(r *Request) { r.Algorithm = "bogo" }, `repro: unknown algorithm "bogo"`},
		{"unknown model", func(r *Request) { r.Model = "openmp" }, `repro: unknown model "openmp"`},
		{"unknown dist", func(r *Request) { r.Dist = "weird" }, `keys: unknown distribution "weird"`},
		{"unknown topo", func(r *Request) { r.Topo = "moebius" },
			`repro: unknown topology "moebius" (known: dragonfly, fattree, hypercube, numa2, torus, torus3d)`},
	} {
		req := ok
		tc.edit(&req)
		e, canon, err := req.Experiment()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if e != (Experiment{}) || canon != (Request{}) {
			t.Errorf("%s: a rejected request still returned %+v, %+v", tc.name, e, canon)
		}
	}
	for _, model := range []string{"mpi", "ccsas", "ccsas-new"} {
		if _, _, err := (Request{Algorithm: "radix", Model: model, N: 4096, Procs: 6}).Experiment(); err != nil {
			t.Errorf("%s on 6 processors: %v, want it accepted", model, err)
		}
	}
}
