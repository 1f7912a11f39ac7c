package topology

import "testing"

// FuzzNetworkMetrics explores random (kind, machine size, node pair)
// tuples and holds every constructed network to the pointwise metric
// contracts: symmetry of hops, latency, and distance class; zero
// self-distance; positive latency; class 0 exactly on local pairs; and
// agreement of the summary statistics with the pair being probed.
// Invalid configurations must be rejected by New, never panic.
func FuzzNetworkMetrics(f *testing.F) {
	f.Add(uint8(0), uint16(64), uint16(0), uint16(31))
	f.Add(uint8(1), uint16(52), uint16(3), uint16(17))
	f.Add(uint8(2), uint16(24), uint16(1), uint16(11))
	f.Add(uint8(3), uint16(250), uint16(7), uint16(99))
	f.Add(uint8(4), uint16(1024), uint16(511), uint16(0))
	f.Add(uint8(5), uint16(6), uint16(0), uint16(2))
	f.Fuzz(func(t *testing.T, kindSel uint8, procs, pa, pb uint16) {
		kinds := Kinds()
		cfg := testNetConfig(kinds[int(kindSel)%len(kinds)], 1+int(procs)%2048)
		net, err := New(cfg)
		if err != nil {
			return // invalid size for this kind (e.g. odd procs, non-power-of-two hypercube)
		}
		n := net.Nodes()
		a, b := int(pa)%n, int(pb)%n
		h := net.Hops(a, b)
		if h != net.Hops(b, a) {
			t.Fatalf("%s: Hops(%d,%d)=%d != Hops(%d,%d)=%d", net.Kind(), a, b, h, b, a, net.Hops(b, a))
		}
		if h < 0 || h > net.MaxHops() {
			t.Fatalf("%s: Hops(%d,%d)=%d outside [0,%d]", net.Kind(), a, b, h, net.MaxHops())
		}
		if a == b && h != 0 {
			t.Fatalf("%s: self-distance Hops(%d,%d)=%d", net.Kind(), a, b, h)
		}
		lat := net.ReadLatency(a, b)
		if lat != net.ReadLatency(b, a) {
			t.Fatalf("%s: ReadLatency(%d,%d)=%v != ReadLatency(%d,%d)=%v",
				net.Kind(), a, b, lat, b, a, net.ReadLatency(b, a))
		}
		if lat <= 0 || lat > net.FurthestReadLatency() {
			t.Fatalf("%s: ReadLatency(%d,%d)=%v outside (0,%v]",
				net.Kind(), a, b, lat, net.FurthestReadLatency())
		}
		cls := net.DistanceClass(a, b)
		if cls != net.DistanceClass(b, a) {
			t.Fatalf("%s: DistanceClass(%d,%d)=%d != DistanceClass(%d,%d)=%d",
				net.Kind(), a, b, cls, b, a, net.DistanceClass(b, a))
		}
		if cls < 0 || cls >= net.NumDistanceClasses() {
			t.Fatalf("%s: DistanceClass(%d,%d)=%d outside [0,%d)",
				net.Kind(), a, b, cls, net.NumDistanceClasses())
		}
		if (cls == 0) != (a == b) {
			t.Fatalf("%s: DistanceClass(%d,%d)=%d; class 0 must be exactly local pairs",
				net.Kind(), a, b, cls)
		}
		if avg := net.AverageReadLatency(); avg < LocalLatency || avg > net.FurthestReadLatency() {
			t.Fatalf("%s: AverageReadLatency()=%v outside [%v,%v]",
				net.Kind(), avg, LocalLatency, net.FurthestReadLatency())
		}
	})
}
