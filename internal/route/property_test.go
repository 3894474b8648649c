package route

import (
	"fmt"
	"math/rand"
	"testing"

	"bristleblocks/internal/geom"
)

// leeOracle is an independent breadth-first reference: it computes the
// optimal cell-step distance from (sx,sy) to (tx,ty) for a net that may
// pass free cells and its own, reading the owner grid directly. It shares
// no code with the A* engine, so an A* bug cannot hide in its own oracle.
func leeOracle(r *Router, net string, sx, sy, tx, ty int) (int, bool) {
	id := r.ids[net] // freeCell when the net was never interned
	dist := make([]int, r.nx*r.ny)
	for i := range dist {
		dist[i] = -1
	}
	start, goal := r.idx(sx, sy), r.idx(tx, ty)
	if o := r.owner[start]; o != freeCell && o != id {
		return 0, false
	}
	dist[start] = 0
	queue := []int{start}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if c == goal {
			return dist[c], true
		}
		cx, cy := c%r.nx, c/r.nx
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx2, ny2 := cx+d[0], cy+d[1]
			if !r.inBounds(nx2, ny2) {
				continue
			}
			n := r.idx(nx2, ny2)
			if dist[n] >= 0 {
				continue
			}
			if o := r.owner[n]; o != freeCell && o != id {
				continue
			}
			dist[n] = dist[c] + 1
			queue = append(queue, n)
		}
	}
	return 0, false
}

// TestRouteMatchesLeeOracle routes random terminal pairs across seeded
// random obstacle fields and checks every returned path against the
// reference: in bounds, Manhattan-contiguous, clear of obstacles, and
// exactly Lee-optimal in length (A* with a consistent heuristic must
// never return a longer path, and it cannot return a shorter one).
func TestRouteMatchesLeeOracle(t *testing.T) {
	const pitch = geom.Coord(32)
	region := geom.R(0, 0, 24*pitch, 24*pitch)
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := mustRouter(t, region, pitch)
			for i := 0; i < 10; i++ {
				x := geom.Coord(rng.Intn(22)) * pitch
				y := geom.Coord(rng.Intn(22)) * pitch
				w := geom.Coord(1+rng.Intn(6)) * pitch
				h := geom.Coord(1+rng.Intn(6)) * pitch
				r.Block(geom.R(x, y, x+w, y+h), "obs")
			}
			for pair := 0; pair < 24; pair++ {
				net := fmt.Sprintf("n%d", pair)
				fx, fy := rng.Intn(24), rng.Intn(24)
				tx, ty := rng.Intn(24), rng.Intn(24)
				from := r.center(fx, fy)
				to := r.center(tx, ty)
				if o := r.Owner(from); o != "" {
					continue // start inside an obstacle or an earlier net
				}
				if o := r.Owner(to); o != "" {
					continue
				}
				// Oracle first: Route claims cells on success and would
				// change the answer.
				optimal, reachable := leeOracle(r, net, fx, fy, tx, ty)
				pts, err := r.Route(net, from, to)
				if !reachable {
					if err == nil {
						t.Fatalf("pair %d: oracle says unreachable, Route found %v", pair, pts)
					}
					continue
				}
				if err != nil {
					t.Fatalf("pair %d: oracle says reachable in %d steps, Route failed: %v", pair, optimal, err)
				}
				checkManhattan(t, pts, from, to)
				for _, p := range pts {
					if !region.Contains(p) {
						t.Fatalf("pair %d: point %v out of bounds", pair, p)
					}
					if o := r.Owner(p); o != net {
						t.Fatalf("pair %d: path point %v owned by %q, want %q", pair, p, o, net)
					}
				}
				if got, want := PathLength(pts), geom.Coord(optimal)*pitch; got != want {
					t.Fatalf("pair %d: path length %d, Lee-optimal is %d", pair, got, want)
				}
			}
		})
	}
}

// TestFloodCacheMixedGoals exercises the failed-flood cache the way Pass
// 3's approach-point scan does: many Route calls for the SAME net from the
// SAME start, mixing goals inside a walled-off pocket (unreachable) with
// open goals (reachable). A failed probe floods the start's whole
// reachable component and caches it; the cache must answer per-goal from
// the flood's stamps — unstamped goals fail fast, but a stamped goal after
// a failed probe must still route (regression: the cache once returned
// failure for ANY goal once one probe from the start had failed).
func TestFloodCacheMixedGoals(t *testing.T) {
	const p = geom.Coord(32)
	r := mustRouter(t, geom.R(0, 0, 24*p, 24*p), p)
	// A closed "obs" ring: interior cells [10,13]×[10,13] are free but
	// unreachable from outside.
	r.Block(geom.R(9*p, 9*p, 15*p, 10*p), "obs")
	r.Block(geom.R(9*p, 14*p, 15*p, 15*p), "obs")
	r.Block(geom.R(9*p, 10*p, 10*p, 14*p), "obs")
	r.Block(geom.R(14*p, 10*p, 15*p, 14*p), "obs")

	const net = "n"
	sx, sy := 2, 2
	from := r.center(sx, sy)
	goals := []struct {
		cx, cy    int
		reachable bool
	}{
		{11, 11, false}, // fresh flood of the outside component, cached
		{12, 12, false}, // cache hit, goal unstamped: fast fail
		{20, 20, true},  // cache hit, goal stamped: must still route
		{13, 13, false}, // the route's owner writes cleared the cache: fresh flood
		{2, 20, true},   // cache hit, goal stamped: must still route
	}
	for i, g := range goals {
		to := r.center(g.cx, g.cy)
		optimal, reachable := leeOracle(r, net, sx, sy, g.cx, g.cy)
		if reachable != g.reachable {
			t.Fatalf("goal %d: oracle reachable=%v, fixture expects %v", i, reachable, g.reachable)
		}
		pts, err := r.Route(net, from, to)
		if !reachable {
			if err == nil {
				t.Fatalf("goal %d: oracle says unreachable, Route found %v", i, pts)
			}
			continue
		}
		if err != nil {
			t.Fatalf("goal %d: oracle says reachable in %d steps, Route failed: %v", i, optimal, err)
		}
		checkManhattan(t, pts, from, to)
		if got, want := PathLength(pts), geom.Coord(optimal)*p; got != want {
			t.Fatalf("goal %d: path length %d, Lee-optimal is %d", i, got, want)
		}
	}

	// The same property over random fields: one net, one fixed start, many
	// random goals, each independently oracle-checked. Unreachable and
	// blocked goals hit the cache's fail-fast arm; reachable ones after a
	// failure hit the stamped fall-through arm.
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random-seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := mustRouter(t, geom.R(0, 0, 24*p, 24*p), p)
			for i := 0; i < 14; i++ {
				x := geom.Coord(rng.Intn(22)) * p
				y := geom.Coord(rng.Intn(22)) * p
				w := geom.Coord(1+rng.Intn(6)) * p
				h := geom.Coord(1+rng.Intn(6)) * p
				r.Block(geom.R(x, y, x+w, y+h), "obs")
			}
			sx, sy := -1, -1
			for cy := 0; cy < 24 && sx < 0; cy++ {
				for cx := 0; cx < 24; cx++ {
					if r.Owner(r.center(cx, cy)) == "" {
						sx, sy = cx, cy
						break
					}
				}
			}
			if sx < 0 {
				t.Skip("field fully blocked")
			}
			from := r.center(sx, sy)
			for probe := 0; probe < 40; probe++ {
				gx, gy := rng.Intn(24), rng.Intn(24)
				to := r.center(gx, gy)
				optimal, reachable := leeOracle(r, "n", sx, sy, gx, gy)
				pts, err := r.Route("n", from, to)
				if reachable != (err == nil) {
					t.Fatalf("probe %d (%d,%d): oracle reachable=%v, Route err=%v", probe, gx, gy, reachable, err)
				}
				if err != nil {
					continue
				}
				checkManhattan(t, pts, from, to)
				if got, want := PathLength(pts), geom.Coord(optimal)*p; got != want {
					t.Fatalf("probe %d: path length %d, Lee-optimal is %d", probe, got, want)
				}
			}
		})
	}
}

// TestOwnerSemantics pins the ownership contract Pass 3 depends on: the
// empty net is the free cell and never an owner (Block("") and Claim("")
// are no-ops), nets that share a name prefix are distinct owners (interning compares whole names, never prefixes), a net
// may re-enter its own cells, and other nets may not.
func TestOwnerSemantics(t *testing.T) {
	r := mustRouter(t, geom.R(0, 0, geom.L(100), geom.L(100)), geom.L(10))
	probe := geom.Pt(geom.L(5), geom.L(5))

	r.Block(geom.R(0, 0, geom.L(10), geom.L(10)), "")
	if got := r.Owner(probe); got != "" {
		t.Fatalf(`Block("") claimed a cell: owner %q`, got)
	}
	r.Claim(geom.R(0, 0, geom.L(10), geom.L(10)), "")
	if got := r.Owner(probe); got != "" {
		t.Fatalf(`Claim("") claimed a cell: owner %q`, got)
	}

	// Prefix-sharing nets are distinct owners in both directions.
	r.Block(geom.R(0, 0, geom.L(10), geom.L(10)), "n")
	r.Block(geom.R(geom.L(20), 0, geom.L(30), geom.L(10)), "n1")
	if got := r.Owner(probe); got != "n" {
		t.Fatalf("owner %q, want n", got)
	}
	if got := r.Owner(geom.Pt(geom.L(25), geom.L(5))); got != "n1" {
		t.Fatalf("owner %q, want n1", got)
	}
	r.Claim(geom.R(0, 0, geom.L(30), geom.L(10)), "n1")
	if got := r.Owner(probe); got != "n" {
		t.Fatalf(`Claim("n1") stole an "n" cell`)
	}

	// Block overwrites, so Pass 3 only ever Blocks its fixed obstacle
	// geometry; Claim, the routing-time write, must skip every owned cell.
	r.Claim(geom.R(0, geom.L(20), geom.L(10), geom.L(30)), "a")
	r.Claim(geom.R(0, geom.L(20), geom.L(10), geom.L(30)), "b")
	if got := r.Owner(geom.Pt(geom.L(5), geom.L(25))); got != "a" {
		t.Fatalf("routing-time Claim stole a cell: owner %q, want a", got)
	}
}

// TestCloneIntoRestoresTemplate pins the template restore Pass 3 starts
// every rip-up attempt from: after a route, CloneInto from the template
// gives back exactly the template's grid with zeroed stats, reuses the
// destination's buffers, and a rerun of the same route gives the same
// path.
func TestCloneIntoRestoresTemplate(t *testing.T) {
	template := mustRouter(t, geom.R(0, 0, 800, 800), 32)
	template.Block(geom.R(380, 0, 420, 700), "wall")
	r := template.CloneInto(nil)
	first, err := r.Route("n1", geom.Pt(48, 400), geom.Pt(752, 400))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats() == (SearchStats{}) {
		t.Fatal("route recorded no search stats")
	}
	owner := &r.owner[0]
	if again := template.CloneInto(r); again != r || &r.owner[0] != owner {
		t.Fatal("CloneInto did not reuse the destination's buffers")
	}
	if got := r.Stats(); got != (SearchStats{}) {
		t.Fatalf("stats survive CloneInto: %+v", got)
	}
	// The restored router shares the template's name table, so equal ids
	// are equal owners.
	for i := range template.owner {
		if r.owner[i] != template.owner[i] {
			t.Fatalf("cell %d: owner id %d after restore, template has %d", i, r.owner[i], template.owner[i])
		}
	}
	if got := template.Owner(geom.Pt(48, 400)); got != "" {
		t.Fatalf("routing on the clone wrote the template: owner %q", got)
	}
	second, err := r.Route("n1", geom.Pt(48, 400), geom.Pt(752, 400))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("route after restore differs: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("route after restore differs at %d: %v vs %v", i, first, second)
		}
	}
}
