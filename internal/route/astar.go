// A*-directed maze search over the router grid.
//
// On a unit-cost Manhattan grid the f-value of a neighbor differs from its
// parent's by exactly 0 or +2 (g grows by 1, the Manhattan heuristic
// changes by exactly ±1, and f parity is fixed by the start/goal cells).
// The open list therefore needs no heap: two FIFO buckets suffice — `cur`
// holds the current f-level, `next` holds f+2, and when cur drains the
// buckets swap.
//
// Ties within a bucket pop in push (FIFO) order and neighbors are visited
// in a fixed order, so the search — and every path it returns — is fully
// deterministic.
//
// A cell discovered a second time on a cheaper path is re-pushed with the
// improved g (mark-on-discovery A* is NOT optimal); the stale queue entry
// is skipped at pop via the closed stamp. With the consistent Manhattan
// heuristic this guarantees returned paths have Lee-optimal length, which
// the property tests assert against a reference Lee oracle.
//
// All per-search state lives in a scratch struct owned by the Router and
// reused across calls: arrays are invalidated by bumping an epoch stamp
// instead of clearing, so a search allocates nothing in steady state (the
// seed allocated a fresh grid-sized visited array per call, and GC of
// those arrays was ~a third of the pad pass).

package route

import (
	"fmt"

	"bristleblocks/internal/geom"
)

// scratch is the reusable per-Router search state. Stamps equal to the
// current epoch mark cells discovered (stamp) or expanded (closed) by the
// running search; older stamps are garbage from earlier searches.
type scratch struct {
	stamp  []uint32 // epoch when the cell was discovered
	closed []uint32 // epoch when the cell was expanded
	gval   []int32  // best known path length from the start
	prev   []int32  // predecessor cell on that path (-1 at the start)
	epoch  uint32
	cur    []int32 // FIFO bucket for the current f-level
	next   []int32 // FIFO bucket for f-level + 2
	path   []int32 // walk-back buffer

	// Failed-flood cache. A search that finds no path has flooded every
	// cell reachable from its start; until the next search or owner write
	// invalidates the flood, "can net id reach cell c from start s?" is
	// answered by the stamp array instead of another full flood. Pass 3's
	// approach-point scan probes dozens of targets from one start, so a
	// walled-in start pays for one flood instead of dozens.
	floodID    netID
	floodStart int32
	floodOK    bool
}

func newScratch(n int) *scratch {
	return &scratch{
		stamp:  make([]uint32, n),
		closed: make([]uint32, n),
		gval:   make([]int32, n),
		prev:   make([]int32, n),
	}
}

// nextEpoch invalidates all stamps. On the (astronomically rare) uint32
// wrap the stamp arrays are cleared so stale epochs can't alias.
func (sc *scratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.stamp {
			sc.stamp[i], sc.closed[i] = 0, 0
		}
		sc.epoch = 1
	}
}

// noPathError and blockedError format lazily: Pass 3 probes many
// unreachable approach points and discards the error unseen, so Route's
// failure path must not pay for fmt.
type noPathError struct {
	net      string
	from, to geom.Point
}

func (e *noPathError) Error() string {
	return fmt.Sprintf("route: no path for %s from %v to %v", e.net, e.from, e.to)
}

type blockedError struct {
	net   string
	which string // "start" or "target"
	at    geom.Point
	owner string
}

func (e *blockedError) Error() string {
	return fmt.Sprintf("route: %s %s %v is blocked by %q", e.net, e.which, e.at, e.owner)
}

// Route finds a Manhattan path for net from one point to another,
// traveling through free cells and cells already owned by the net. On
// success the path's cells become owned by the net and the simplified
// corner-point path (starting at from, ending at to) is returned.
func (r *Router) Route(net string, from, to geom.Point) ([]geom.Point, error) {
	if net == "" {
		return nil, fmt.Errorf("route: empty net name")
	}
	id := r.intern(net)
	sx, sy := r.cellOf(from)
	tx, ty := r.cellOf(to)
	start := r.idx(sx, sy)
	goal := r.idx(tx, ty)
	if o := r.owner[start]; o != freeCell && o != id {
		return nil, &blockedError{net: net, which: "start", at: from, owner: r.names[o]}
	}
	if o := r.owner[goal]; o != freeCell && o != id {
		return nil, &blockedError{net: net, which: "target", at: to, owner: r.names[o]}
	}

	cells, ok := r.search(id, sx, sy, tx, ty)
	if !ok {
		return nil, &noPathError{net: net, from: from, to: to}
	}

	// Claim the path's cells.
	for _, i := range cells {
		r.setOwner(int(i), id)
	}

	// Build the point path: to ... grid centers ... from, then reverse
	// (cells are in goal→start walk-back order).
	pts := make([]geom.Point, 0, len(cells)+2)
	pts = append(pts, to)
	for _, i := range cells {
		pts = append(pts, r.center(int(i)%r.nx, int(i)/r.nx))
	}
	pts = append(pts, from)
	reverse(pts)
	return simplify(pts), nil
}

// search runs the bucketed best-first search from (sx,sy) to (tx,ty) for
// net id. On success it returns the path's cells in goal→start order (the
// slice aliases scratch and is valid until the next search).
func (r *Router) search(id netID, sx, sy, tx, ty int) ([]int32, bool) {
	n := r.nx * r.ny
	if r.sc == nil {
		r.sc = newScratch(n)
	}
	sc := r.sc
	start := int32(r.idx(sx, sy))
	goal := int32(r.idx(tx, ty))
	if sc.floodOK && sc.floodID == id && sc.floodStart == start {
		if sc.stamp[goal] != sc.epoch {
			// The previous search from this start flooded everything
			// reachable and never stamped this goal, and nothing has
			// changed since (owner writes clear floodOK) — the goal is
			// still unreachable.
			r.stats.Searches++
			r.stats.Failures++
			return nil, false
		}
		// The flood stamped the goal: it IS reachable. Fall through to a
		// full search rather than walking the flood's prev tree — that
		// tree was shaped by a different goal's heuristic, and re-running
		// keeps the returned path byte-identical to the cache-free search.
	}
	sc.floodOK = false
	sc.nextEpoch()
	e := sc.epoch
	r.stats.Searches++

	sc.stamp[start] = e
	sc.gval[start] = 0
	sc.prev[start] = -1
	if start == goal {
		sc.path = append(sc.path[:0], goal)
		return sc.path, true
	}

	cur, next := sc.cur[:0], sc.next[:0]
	cur = append(cur, start)
	head := 0
	var expanded, peak int64 = 0, 1

	found := false
	for {
		if head == len(cur) {
			if len(next) == 0 {
				break
			}
			cur, next = next, cur[:0]
			head = 0
		}
		ci := cur[head]
		head++
		if sc.closed[ci] == e {
			continue // stale entry superseded by a cheaper re-push
		}
		sc.closed[ci] = e
		expanded++
		if ci == goal {
			found = true
			break
		}
		g := sc.gval[ci]
		cx, cy := int(ci)%r.nx, int(ci)/r.nx
		hc := abs(cx-tx) + abs(cy-ty)
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx2, ny2 := cx+d[0], cy+d[1]
			if !r.inBounds(nx2, ny2) {
				continue
			}
			ni := int32(r.idx(nx2, ny2))
			o := r.owner[ni]
			if o != freeCell && o != id {
				continue // blocked reads are stable: owned cells never change
			}
			fresh := sc.stamp[ni] != e
			ng := g + 1
			if !fresh && (sc.closed[ni] == e || ng >= sc.gval[ni]) {
				continue
			}
			sc.stamp[ni] = e
			sc.gval[ni] = ng
			sc.prev[ni] = ci
			// Same f-level iff the heuristic dropped.
			if abs(nx2-tx)+abs(ny2-ty) < hc {
				cur = append(cur, ni)
			} else {
				next = append(next, ni)
			}
		}
		if f := int64(len(cur)-head) + int64(len(next)); f > peak {
			peak = f
		}
	}
	sc.cur, sc.next = cur[:0], next[:0]
	r.stats.CellsExpanded += expanded
	if peak > r.stats.FrontierPeak {
		r.stats.FrontierPeak = peak
	}
	if !found {
		r.stats.Failures++
		sc.floodOK, sc.floodID, sc.floodStart = true, id, start
		return nil, false
	}

	sc.path = sc.path[:0]
	for i := goal; ; i = sc.prev[i] {
		sc.path = append(sc.path, i)
		if sc.prev[i] == -1 {
			break
		}
	}
	return sc.path, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func reverse(p []geom.Point) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// simplify removes collinear interior points and zero-length steps, and
// inserts an elbow where consecutive points are not axis-aligned (the
// off-grid endpoints), keeping the path Manhattan.
func simplify(pts []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return pts
	}
	// Make strictly Manhattan: insert elbows for diagonal jumps.
	man := []geom.Point{pts[0]}
	for _, p := range pts[1:] {
		last := man[len(man)-1]
		if p == last {
			continue
		}
		if p.X != last.X && p.Y != last.Y {
			man = append(man, geom.Pt(p.X, last.Y))
		}
		man = append(man, p)
	}
	// Drop collinear interior points.
	out := []geom.Point{man[0]}
	for i := 1; i < len(man); i++ {
		if i+1 < len(man) {
			a, b, c := out[len(out)-1], man[i], man[i+1]
			if (a.X == b.X && b.X == c.X) || (a.Y == b.Y && b.Y == c.Y) {
				continue
			}
		}
		out = append(out, man[i])
	}
	return out
}
