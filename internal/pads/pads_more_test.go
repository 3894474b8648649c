package pads

import (
	"fmt"
	"reflect"
	"testing"

	"bristleblocks/internal/geom"
	"bristleblocks/internal/layer"
)

// TestDeterminism: the ring builder uses seeded shuffles internally, so the
// same request set must always produce the identical ring — rotation, wire
// paths, everything. Chip builds must be reproducible.
func TestDeterminism(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	a, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rotation != b.Rotation || a.TotalWireLen != b.TotalWireLen {
		t.Fatalf("non-deterministic ring: rot %d/%d wire %d/%d",
			a.Rotation, b.Rotation, a.TotalWireLen, b.TotalWireLen)
	}
	for i := range a.Wires {
		if !reflect.DeepEqual(a.Wires[i].Path, b.Wires[i].Path) {
			t.Fatalf("wire %d path differs between identical builds", i)
		}
	}
}

// TestOutwardHintRespected: a request with an explicit Outward direction
// must have its wire leave the target in that direction.
func TestOutwardHintRespected(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	reqs := testRequests(core)
	// Target below the core, exiting south (like a power-trunk head).
	reqs = append(reqs, Request{
		Net: "trunk", Class: "gnd",
		At:      geom.Pt(core.MaxX/2, core.MinY-geom.L(10)),
		Layer:   layer.Metal,
		Outward: geom.Pt(0, -1),
	})
	ring, err := Build(core, reqs, &Options{
		Obstacles: []geom.Rect{{MinX: core.MinX, MinY: core.MinY - geom.L(12), MaxX: core.MaxX, MaxY: core.MaxY}},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ring.Wires {
		if w.Net != "trunk" {
			continue
		}
		found = true
		// The wire's last segment arrives at the target; it must come from
		// below (south exit).
		end := w.Path[len(w.Path)-1]
		prev := w.Path[len(w.Path)-2]
		if end.X != prev.X || prev.Y >= end.Y {
			t.Errorf("trunk wire approaches from %v to %v, want from straight below", prev, end)
		}
	}
	if !found {
		t.Fatal("no wire routed for the trunk request")
	}
}

// TestWiresAvoidObstacles: no routed wire segment may cross the blocked
// region (except the landing leg at its own target).
func TestWiresAvoidObstacles(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	ring, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := core.Inset(geom.L(8)) // clearance for landing legs
	for _, w := range ring.Wires {
		for i := 0; i+1 < len(w.Path); i++ {
			seg := geom.R(w.Path[i].X, w.Path[i].Y, w.Path[i+1].X, w.Path[i+1].Y)
			if seg.Overlaps(inner) {
				t.Errorf("wire %s segment %v..%v crosses the core", w.Net, w.Path[i], w.Path[i+1])
			}
		}
	}
}

// TestWirePathsAreManhattan: every wire is a sequence of axis-aligned
// segments with no zero-length steps.
func TestWirePathsAreManhattan(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	ring, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ring.Wires {
		if len(w.Path) < 2 {
			t.Errorf("wire %s has a degenerate path %v", w.Net, w.Path)
			continue
		}
		for i := 0; i+1 < len(w.Path); i++ {
			a, b := w.Path[i], w.Path[i+1]
			dx, dy := b.X-a.X, b.Y-a.Y
			if (dx == 0) == (dy == 0) {
				t.Errorf("wire %s segment %v..%v is not a Manhattan step", w.Net, a, b)
			}
		}
	}
}

// TestWireLenMatchesPath: the recorded Len equals the Manhattan length of
// the recorded path.
func TestWireLenMatchesPath(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	ring, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ring.Wires {
		var sum geom.Coord
		for i := 0; i+1 < len(w.Path); i++ {
			sum += w.Path[i].Manhattan(w.Path[i+1])
		}
		if sum != w.Len {
			t.Errorf("wire %s: recorded %d, path measures %d", w.Net, w.Len, sum)
		}
	}
}

// TestGrowingRequestSets: rings of increasing size around a mid-size core;
// all must route and stay deterministic in pad count.
func TestGrowingRequestSets(t *testing.T) {
	core := geom.R(0, 0, geom.L(500), geom.L(400))
	for _, n := range []int{4, 8, 12, 16, 20} {
		var reqs []Request
		for i := 0; i < n; i++ {
			// Spread targets over the west and north edges.
			if i%2 == 0 {
				reqs = append(reqs, Request{
					Net: fmt.Sprintf("w%d", i), Class: "io",
					At:    geom.Pt(core.MinX, core.MinY+geom.Coord(i/2+1)*geom.L(30)),
					Layer: layer.Metal,
				})
			} else {
				reqs = append(reqs, Request{
					Net: fmt.Sprintf("n%d", i), Class: "input",
					At:    geom.Pt(core.MinX+geom.Coord(i/2+1)*geom.L(40), core.MaxY),
					Layer: layer.Poly,
				})
			}
		}
		ring, err := Build(core, reqs, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ring.PadCount != n {
			t.Fatalf("n=%d: pad count %d", n, ring.PadCount)
		}
		if len(ring.Wires) != n {
			t.Fatalf("n=%d: wires %d", n, len(ring.Wires))
		}
	}
}

// TestMoatOptionRespected: a larger moat produces a strictly larger ring.
func TestMoatOptionRespected(t *testing.T) {
	core := geom.R(0, 0, geom.L(300), geom.L(300))
	small, err := Build(core, testRequests(core), &Options{Moat: geom.L(90)})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(core, testRequests(core), &Options{Moat: geom.L(150)})
	if err != nil {
		t.Fatal(err)
	}
	if big.Bounds.W() <= small.Bounds.W() || big.Bounds.H() <= small.Bounds.H() {
		t.Errorf("moat 150λ ring %v not larger than moat 90λ ring %v", big.Bounds, small.Bounds)
	}
}

// TestPadCellsPerNet: each request net yields exactly one pad cell named
// after it.
func TestPadCellsPerNet(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	reqs := testRequests(core)
	ring, err := Build(core, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, in := range ring.Cell.Insts {
		names[in.Cell.Name]++
	}
	for _, rq := range reqs {
		if names["pad."+rq.Net] != 1 {
			t.Errorf("net %s: %d pad cells, want 1 (have %v)", rq.Net, names["pad."+rq.Net], names)
		}
	}
}

// TestEvenSpacingOption: the paper's "evenly spaced around the chip" user
// option. Consecutive slot stubs sit one even step apart, and the ring
// still routes.
func TestEvenSpacingOption(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	even, err := Build(core, testRequests(core), &Options{EvenSpacing: true})
	if err != nil {
		t.Fatalf("even-spacing ring failed to route: %v", err)
	}
	pulled, err := Build(core, testRequests(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	if even.PadCount != pulled.PadCount {
		t.Fatalf("pad counts differ: %d vs %d", even.PadCount, pulled.PadCount)
	}
	// Pulled placement never does worse than even placement on estimated
	// wire length (it starts from the even division and only improves).
	if pulled.EstimatedLen > even.EstimatedLen {
		t.Errorf("pulled estimate %d worse than even %d", pulled.EstimatedLen, even.EstimatedLen)
	}
}

// TestRipUpIdenticalAcrossParallelism crowds eight pads onto the core's
// west edge, so the first attempt of the first (moat, strategy) combo
// fails, its rip-up ladder runs out, and the remaining combos race on the
// pool. Every attempt restores its grid from the combo's obstacle
// template; the ring and its RouteStats must not depend on how many
// combos raced.
func TestRipUpIdenticalAcrossParallelism(t *testing.T) {
	core := geom.R(0, 0, geom.L(400), geom.L(300))
	const n = 8
	var reqs []Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{
			Net: fmt.Sprintf("w%d", i), Class: "io",
			At:    geom.Pt(core.MinX, core.MinY+geom.Coord(i+1)*geom.L(300)/(n+1)),
			Layer: layer.Metal,
		})
	}
	serial, err := Build(core, reqs, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.RouteStats.Nets <= int64(serial.PadCount) {
		t.Fatalf("RouteStats.Nets = %d for %d pads: the first attempt did not fail",
			serial.RouteStats.Nets, serial.PadCount)
	}
	for run := 0; run < 3; run++ {
		wide, err := Build(core, reqs, &Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if wide.RouteStats != serial.RouteStats {
			t.Fatalf("RouteStats at -j 4 %+v, at -j 1 %+v", wide.RouteStats, serial.RouteStats)
		}
		if !reflect.DeepEqual(wide, serial) {
			t.Fatal("ring at -j 4 differs from the ring at -j 1")
		}
	}
}
