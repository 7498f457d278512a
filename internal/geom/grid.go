package geom

import "math"

// Grid is a uniform spatial hash over the ground plane used to answer
// "all points within r of p" queries without O(n^2) scans. It is rebuilt
// per snapshot by the analysis pipeline and per tick by the world, so
// insertion and reset are the hot paths: the implementation reuses its
// bucket slices across Reset calls to stay allocation-free at steady state.
//
// Beyond the rebuild-per-snapshot pattern, the grid also supports
// in-place point maintenance (Remove, Move) for callers that keep one
// grid alive across snapshots and patch it incrementally — the
// temporal-coherence path of graph.Workspace.ApplyPositions.
//
// The cells form a dense window of w×h cells whose lower corner is cell
// (x0, y0), laid out column-major: cell (cx, cy) sits at index
// (cx-x0)·h + (cy-y0), so a query walks cx outer and cy inner over
// contiguous memory. The window grows on demand to cover inserted
// points, up to maxGridCells; a point outside it — far off-land or
// non-finite — is clamped into an edge cell. Queries clamp their cell box
// the same way and keep the exact distance check, so clamping changes
// the cost of such points, never a result.
//
// The grid is not safe for concurrent use.
type Grid struct {
	cell   float64
	x0, y0 int32 // window origin, in cells
	w, h   int32 // window extent, in cells; 0 until the first Insert
	// cells maps a window cell to 1 + its bucket index, 0 for a cell that
	// never held a point: four bytes per cell, with point storage only
	// for cells that were ever occupied.
	cells   []int32
	buckets []gridBucket
	// occupied lists the cells holding points since the last Reset, so
	// Reset truncates exactly those buckets instead of sweeping the
	// window — O(points), not O(window), per snapshot. The listed flag on
	// each bucket keeps the list duplicate-free even when Remove empties
	// a cell that Insert later refills, so a never-Reset incremental grid
	// cannot grow occupied without bound.
	occupied []int32
	n        int
}

// maxGridCells caps the window: 4 MB of cell index per grid. Points
// beyond it land in edge cells.
const maxGridCells = 1 << 20

// initialGridSpan is the window edge, in cells, laid around the first
// inserted point.
const initialGridSpan = 16

type gridEntry struct {
	id  int64
	pos Vec
}

// gridBucket is one cell's point list plus its membership flag for the
// occupied list.
type gridBucket struct {
	listed  bool
	entries []gridEntry
}

// NewGrid returns a grid with the given cell edge length in metres.
// A cell size close to the dominant query radius performs best.
func NewGrid(cell float64) *Grid {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	return &Grid{cell: cell}
}

// CellSize returns the configured cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Reset removes all points while retaining the window and bucket
// capacity.
//
//slmob:hotpath
func (g *Grid) Reset() {
	for _, c := range g.occupied {
		b := &g.buckets[g.cells[c]-1]
		b.entries = b.entries[:0]
		b.listed = false
	}
	g.occupied = g.occupied[:0]
	g.n = 0
}

// Insert adds a point with an opaque identifier.
//
//slmob:hotpath
func (g *Grid) Insert(id int64, p Vec) {
	g.cover(p)
	g.insertAt(g.index(p), gridEntry{id: id, pos: p})
}

// insertAt appends e to the cell at window index c, materialising the
// cell's bucket on first use.
//
//slmob:hotpath
func (g *Grid) insertAt(c int32, e gridEntry) {
	if g.cells[c] == 0 {
		g.buckets = append(g.buckets, gridBucket{})
		g.cells[c] = int32(len(g.buckets))
	}
	b := &g.buckets[g.cells[c]-1]
	if !b.listed {
		b.listed = true
		g.occupied = append(g.occupied, c)
	}
	b.entries = append(b.entries, e)
	g.n++
}

// Remove deletes the point with the given identifier stored at p (the
// position it was inserted or last moved to). It reports whether the
// point was found. The cell stays on the occupied list so a later
// re-insert does not duplicate it; Reset clears the list as usual.
//
//slmob:hotpath
func (g *Grid) Remove(id int64, p Vec) bool {
	if g.n == 0 {
		return false
	}
	k := g.cells[g.index(p)]
	if k == 0 {
		return false
	}
	b := &g.buckets[k-1]
	for i := range b.entries {
		if b.entries[i].id == id {
			last := len(b.entries) - 1
			b.entries[i] = b.entries[last]
			b.entries = b.entries[:last]
			g.n--
			return true
		}
	}
	return false
}

// Move relocates the point with the given identifier from its stored
// position to a new one, updating the stored position in place when both
// fall in the same cell. It reports whether the point was found at from.
//
//slmob:hotpath
func (g *Grid) Move(id int64, from, to Vec) bool {
	if g.n == 0 {
		return false
	}
	g.cover(to)
	kf, kt := g.index(from), g.index(to)
	if kf != kt {
		if !g.Remove(id, from) {
			return false
		}
		g.insertAt(kt, gridEntry{id: id, pos: to})
		return true
	}
	if k := g.cells[kf]; k != 0 {
		b := &g.buckets[k-1]
		for i := range b.entries {
			if b.entries[i].id == id {
				b.entries[i].pos = to
				return true
			}
		}
	}
	return false
}

// Len returns the number of stored points.
func (g *Grid) Len() int { return g.n }

// VisitWithin calls fn for every stored point whose ground-plane distance
// to p is at most r, including any point stored at p itself. Iteration
// stops early if fn returns false.
//
// The query's cell box is clamped into the window, which bounds the walk
// for huge or infinite radii; every point lives in the window, so the
// clamp never drops one.
//
//slmob:hotpath
func (g *Grid) VisitWithin(p Vec, r float64, fn func(id int64, q Vec) bool) {
	if !(r >= 0) || g.n == 0 { // rejects negative and NaN radii
		return
	}
	r2 := r * r
	minX, maxX, minY, maxY := int32(0), g.w-1, int32(0), g.h-1
	// Once r² overflows, the distance test accepts any offset whose
	// square overflows too — even from an infinite p — so only the whole
	// window is a safe box.
	if r2 <= math.MaxFloat64 {
		minX = clampLow(floorDiv(p.X-r, g.cell), g.x0, g.w)
		maxX = clampHigh(floorDiv(p.X+r, g.cell), g.x0, g.w)
		minY = clampLow(floorDiv(p.Y-r, g.cell), g.y0, g.h)
		maxY = clampHigh(floorDiv(p.Y+r, g.cell), g.y0, g.h)
	}
	for cx := minX; cx <= maxX; cx++ {
		col := g.cells[cx*g.h : (cx+1)*g.h]
		for cy := minY; cy <= maxY; cy++ {
			k := col[cy]
			if k == 0 {
				continue
			}
			for _, e := range g.buckets[k-1].entries {
				dx, dy := e.pos.X-p.X, e.pos.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					if !fn(e.id, e.pos) {
						return
					}
				}
			}
		}
	}
}

// Within returns the identifiers of all points within r of p, in
// unspecified order.
func (g *Grid) Within(p Vec, r float64) []int64 {
	var ids []int64
	g.VisitWithin(p, r, func(id int64, _ Vec) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// CountWithin returns the number of points within r of p.
func (g *Grid) CountWithin(p Vec, r float64) int {
	n := 0
	g.VisitWithin(p, r, func(int64, Vec) bool { n++; return true })
	return n
}

// index returns the window index of the cell p is stored in.
func (g *Grid) index(p Vec) int32 {
	return clampLow(floorDiv(p.X, g.cell), g.x0, g.w)*g.h + clampLow(floorDiv(p.Y, g.cell), g.y0, g.h)
}

// cover grows the window, if it can, so that p's cell lies inside it.
//
//slmob:hotpath
func (g *Grid) cover(p Vec) {
	fx, fy := floorDiv(p.X, g.cell), floorDiv(p.Y, g.cell)
	if g.w > 0 && fx >= float64(g.x0) && fx < float64(g.x0+g.w) &&
		fy >= float64(g.y0) && fy < float64(g.y0+g.h) {
		return
	}
	g.grow(fx, fy)
}

// grow widens the window to cover cell (fx, fy) with half the covered
// span again as slack on each side that grew, falling back to no slack,
// and then to no growth at all, when the result would exceed
// maxGridCells. Coordinates beyond ±2^30 cells (and NaN) never grow the
// window. The stored points are re-homed into the new window; a grown
// window only splits edge cells apart, never merges two cells, so every
// cell keeps its insertion order.
func (g *Grid) grow(fx, fy float64) {
	var x0, x1, y0, y1 int64
	if g.w == 0 {
		cx, cy := int64(0), int64(0)
		if reachable(fx) {
			cx = int64(fx)
		}
		if reachable(fy) {
			cy = int64(fy)
		}
		x0, x1 = cx-initialGridSpan/2, cx+initialGridSpan/2-1
		y0, y1 = cy-initialGridSpan/2, cy+initialGridSpan/2-1
	} else {
		lx, hx := int64(g.x0), int64(g.x0+g.w-1)
		ly, hy := int64(g.y0), int64(g.y0+g.h-1)
		x0, x1 = widen(lx, hx, fx, true)
		y0, y1 = widen(ly, hy, fy, true)
		if (x1-x0+1)*(y1-y0+1) > maxGridCells {
			x0, x1 = widen(lx, hx, fx, false)
			y0, y1 = widen(ly, hy, fy, false)
		}
		if (x1-x0+1)*(y1-y0+1) > maxGridCells || (x0 == lx && x1 == hx && y0 == ly && y1 == hy) {
			return
		}
	}

	// Lift the points out, then lay the new window and fresh buckets.
	moving := make([]gridEntry, 0, g.n)
	for _, c := range g.occupied {
		moving = append(moving, g.buckets[g.cells[c]-1].entries...)
	}
	g.x0, g.y0 = int32(x0), int32(y0)
	g.w, g.h = int32(x1-x0+1), int32(y1-y0+1)
	g.cells = make([]int32, int(g.w)*int(g.h))
	g.buckets = g.buckets[:0]
	g.occupied = g.occupied[:0]
	g.n = 0
	for _, e := range moving {
		g.insertAt(g.index(e.pos), e)
	}
}

// reachable reports whether a floored cell coordinate may grow the
// window.
func reachable(c float64) bool { return c >= -(1<<30) && c <= 1<<30 }

// widen returns the axis range [lo, hi] extended to cover cell c, with
// half the covered span as slack on the side that grew when slack is
// set. An unreachable c leaves the range as it is.
func widen(lo, hi int64, c float64, slack bool) (int64, int64) {
	if !reachable(c) {
		return lo, hi
	}
	ci := int64(c)
	switch {
	case ci < lo:
		lo = ci
		if slack {
			lo -= (hi - ci + 1) / 2
		}
	case ci > hi:
		hi = ci
		if slack {
			hi += (ci - lo + 1) / 2
		}
	}
	return lo, hi
}

// clampLow maps a floored cell coordinate to its window column (or row)
// in [0, n), sending NaN to 0.
func clampLow(c float64, lo, n int32) int32 {
	c -= float64(lo)
	if !(c >= 0) {
		return 0
	}
	if c >= float64(n) {
		return n - 1
	}
	return int32(c)
}

// clampHigh is clampLow for the upper corner of a query box: NaN goes to
// n-1, so a box whose upper bound is undefined spans to the window edge.
func clampHigh(c float64, lo, n int32) int32 {
	c -= float64(lo)
	if !(c < float64(n)) {
		return n - 1
	}
	if c < 0 {
		return 0
	}
	return int32(c)
}

// floorDiv returns floor(x/cell) as a float64 suitable for int conversion,
// correct for negative coordinates as well.
func floorDiv(x, cell float64) float64 {
	q := x / cell
	if !(q >= -(1<<62) && q <= 1<<62) {
		// NaN, ±Inf, or beyond int64's exact range: the float→int64
		// conversion below would be implementation-defined, and any
		// float64 of this magnitude is already an integer, so q is its
		// own floor. The window clamp handles such values before any int
		// conversion.
		return q
	}
	f := float64(int64(q))
	if q < 0 && q != f {
		f--
	}
	return f
}
