package memsys

import "testing"

// TestPageTableMatchesClosures replays the flat page→home table against
// the region walk for all three placement policies, with deliberately
// odd sizes so partitions straddle pages and tail pages carry alignment
// padding. Every byte address of a region's page-aligned span must
// resolve identically through HomeOf (flat table), ReferenceHomeOf
// (region walk) and the region's closure: the table is a cache of the
// closures, never a reinterpretation.
func TestPageTableMatchesClosures(t *testing.T) {
	as := testAS(t)
	ps := as.PageSize()
	regions := []*Region{
		// Partitions of 16000/7 bytes: not page multiples, so most pages
		// mix two partitions (and often two nodes).
		as.AllocBlocked("blocked-odd", 16000, 7),
		// Exact page multiple: every page uniform.
		as.AllocBlocked("blocked-even", 16*ps, 16),
		as.AllocRoundRobin("rr", 5*ps+123),
		as.AllocOnNode("onnode", 3*ps-1, 5),
		// One-byte region: tail-page padding dominates.
		as.AllocBlocked("tiny", 1, 4),
	}
	step := 64 // one probe per simulated cache line
	for _, r := range regions {
		for off := 0; off < r.Size(); off += step {
			a := r.Addr(off)
			want := as.ReferenceHomeOf(a)
			if got := as.HomeOf(a); got != want {
				t.Fatalf("%s offset %d: HomeOf=%d, region walk=%d", r.Name(), off, got, want)
			}
			if want != r.homeOf(off) {
				t.Fatalf("%s offset %d: region walk=%d, closure=%d", r.Name(), off, want, r.homeOf(off))
			}
			// PageHome may decline (mixed page), but when it answers it
			// must agree with every byte of the page.
			if h, ok := as.PageHome(a); ok && h != want {
				t.Fatalf("%s offset %d: PageHome=%d, region walk=%d", r.Name(), off, h, want)
			}
		}
	}
	// Alignment padding past each region's last byte belongs to the
	// region: it is homed where the closure puts it — the last blocked
	// partition's node, the tail page's round-robin node, the region's
	// node — and never on node 0 by default.
	padHome := func(r *Region, off int) int {
		switch r.Name() {
		case "blocked-odd":
			return 6 / 2
		case "rr":
			return r.homeOf(r.Size() - 1)
		case "onnode":
			return 5
		case "tiny": // one byte per partition: procs 1-3 own the padding
			return min(off, 3) / 2
		}
		t.Fatalf("%s has padding", r.Name())
		return 0
	}
	for _, r := range regions {
		for off := r.Size(); off < as.align(r.Size()); off += step {
			a, want := r.Addr(off), padHome(r, off)
			if got := as.ReferenceHomeOf(a); got != want {
				t.Fatalf("%s pad offset %d: region walk=%d, want %d", r.Name(), off, got, want)
			}
			if got := as.HomeOf(a); got != want {
				t.Fatalf("%s pad offset %d: HomeOf=%d, want %d", r.Name(), off, got, want)
			}
		}
	}
}

// TestMixedPagesAreStraddledBoundaries pins which pages take the region
// walk: with every processor on its own node and every placement
// allocated at odd sizes, a page is mixedPage exactly when a blocked
// partition boundary lies strictly inside it. Padding never makes a page
// mixed.
func TestMixedPagesAreStraddledBoundaries(t *testing.T) {
	as, err := New(4096, 16, func(p int) int { return p })
	if err != nil {
		t.Fatal(err)
	}
	ps := as.PageSize()
	type blocked struct{ size, procs int }
	var regions []*Region
	parts := map[*Region]blocked{}
	for _, b := range []blocked{{16000, 7}, {16 * ps, 16}, {3*ps + 5, 3}, {1, 4}, {5*ps - 3, 16}} {
		r := as.AllocBlocked("blocked", b.size, b.procs)
		regions = append(regions, r)
		parts[r] = b
	}
	regions = append(regions, as.AllocRoundRobin("rr", 5*ps+123), as.AllocOnNode("onnode", 3*ps-1, 5),
		as.AllocRoundRobin("rr-tiny", 7))
	for _, r := range regions {
		for start := 0; start < r.Size(); start += ps {
			straddled := false
			if b, ok := parts[r]; ok {
				part := max(b.size/b.procs, 1)
				for q := 1; q < b.procs; q++ {
					if edge := q * part; start < edge && edge < start+ps {
						straddled = true
					}
				}
			}
			_, uniform := as.PageHome(r.Addr(start))
			if uniform == straddled {
				t.Errorf("%s of %d bytes, page at offset %d: PageHome ok=%v, boundary inside=%v",
					r.Name(), r.Size(), start, uniform, straddled)
			}
		}
	}
}

// TestPageTableMixedPagesFallBack checks that a page whose bytes span
// two homes is marked mixed: PageHome must decline, and HomeOf must
// still resolve each byte through the region walk.
func TestPageTableMixedPagesFallBack(t *testing.T) {
	as := testAS(t)
	ps := as.PageSize()
	// Partition = ps/4, two procs per node: page 0 covers procs 0..3,
	// i.e. nodes 0,0,1,1 — mixed.
	r := as.AllocBlocked("quarter-page-parts", 4*ps, 16)
	if _, ok := as.PageHome(r.Addr(0)); ok {
		t.Fatal("PageHome answered for a page spanning two homes")
	}
	if got := as.HomeOf(r.Addr(0)); got != 0 {
		t.Errorf("first quarter: home %d, want 0", got)
	}
	if got := as.HomeOf(r.Addr(ps / 2)); got != 1 {
		t.Errorf("third quarter: home %d, want 1", got)
	}
}
