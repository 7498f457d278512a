package geom

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestGridFindsNeighborsExactly(t *testing.T) {
	g := NewGrid(10)
	pts := []Vec{
		V2(0, 0), V2(5, 0), V2(9.9, 0), V2(10.1, 0),
		V2(0, 5), V2(50, 50), V2(255, 255),
	}
	for i, p := range pts {
		g.Insert(int64(i), p)
	}
	got := g.Within(V2(0, 0), 10)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
}

func TestGridCountAndLen(t *testing.T) {
	g := NewGrid(20)
	for i := 0; i < 100; i++ {
		g.Insert(int64(i), V2(float64(i), float64(i)))
	}
	if g.Len() != 100 {
		t.Errorf("Len = %d", g.Len())
	}
	// Points on the diagonal within radius r of (50,50): |i-50|*sqrt2 <= r.
	n := g.CountWithin(V2(50, 50), 10)
	want := 0
	for i := 0; i < 100; i++ {
		if math.Hypot(float64(i)-50, float64(i)-50) <= 10 {
			want++
		}
	}
	if n != want {
		t.Errorf("CountWithin = %d, want %d", n, want)
	}
}

func TestGridReset(t *testing.T) {
	g := NewGrid(8)
	g.Insert(1, V2(1, 1))
	g.Insert(2, V2(100, 100))
	g.Reset()
	if g.Len() != 0 {
		t.Errorf("Len after reset = %d", g.Len())
	}
	if n := g.CountWithin(V2(1, 1), 500); n != 0 {
		t.Errorf("CountWithin after reset = %d", n)
	}
	g.Insert(3, V2(1, 1))
	if n := g.CountWithin(V2(0, 0), 5); n != 1 {
		t.Errorf("reuse after reset: CountWithin = %d", n)
	}
}

func TestGridEarlyStop(t *testing.T) {
	g := NewGrid(10)
	for i := 0; i < 10; i++ {
		g.Insert(int64(i), V2(1, 1))
	}
	calls := 0
	g.VisitWithin(V2(1, 1), 1, func(int64, Vec) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop visited %d, want 3", calls)
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, V2(-5, -5))
	g.Insert(2, V2(-25, -25))
	got := g.Within(V2(-4, -4), 3)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Within negative region = %v", got)
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, V2(0, 0))
	if got := g.Within(V2(0, 0), -1); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestGridZeroCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}

// TestGridMatchesBruteForceProperty cross-checks grid range queries against
// an O(n^2) scan on random point sets.
func TestGridMatchesBruteForceProperty(t *testing.T) {
	type input struct {
		Seed uint16
	}
	f := func(in input) bool {
		// Simple deterministic pseudo-random points from the seed.
		s := uint64(in.Seed) + 1
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53) * 256
		}
		const n = 60
		pts := make([]Vec, n)
		for i := range pts {
			pts[i] = V2(next(), next())
		}
		g := NewGrid(13)
		for i, p := range pts {
			g.Insert(int64(i), p)
		}
		center := V2(next(), next())
		r := next() / 4
		got := g.Within(center, r)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []int64
		for i, p := range pts {
			if p.DistXY(center) <= r {
				want = append(want, int64(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// Maintained grid: a stream of inserts, moves, and removals whose
	// points reach past the window (forcing growth mid-stream, with
	// earlier points moved and removed afterwards), below zero, past the
	// window cap, and to NaN, ±Inf, and ±1e300, checked against a scan
	// after every operation.
	grew := 0
	churn := func(in input) bool {
		s := uint64(in.Seed) + 7
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53)
		}
		coord := func() float64 {
			switch u := next(); {
			case u < 0.55:
				return 256 * next()
			case u < 0.75:
				return -300 + 600*next()
			case u < 0.92:
				return -6000 + 12000*next()
			case u < 0.95:
				return -3e7 + 6e7*next()
			default:
				return exotic[int(next()*float64(len(exotic)))]
			}
		}
		g := NewGrid(13)
		pts := map[int64]Vec{}
		ids := []int64{}
		area := 0
		for op := 0; op < 120; op++ {
			switch u := next(); {
			case u < 0.5 || len(ids) == 0:
				id := int64(op)
				p := V2(coord(), coord())
				g.Insert(id, p)
				pts[id] = p
				ids = append(ids, id)
			case u < 0.85:
				id := ids[int(next()*float64(len(ids)))]
				to := V2(coord(), coord())
				if !g.Move(id, pts[id], to) {
					return false
				}
				pts[id] = to
			default:
				k := int(next() * float64(len(ids)))
				id := ids[k]
				if !g.Remove(id, pts[id]) {
					return false
				}
				delete(pts, id)
				ids = append(ids[:k], ids[k+1:]...)
			}
			if a := int(g.w) * int(g.h); a != area {
				if area != 0 {
					grew++
				}
				area = a
			}
			if g.Len() != len(pts) {
				return false
			}
			c := V2(coord(), coord())
			r := 40 * next()
			if next() < 0.1 {
				r = exotic[int(next()*float64(len(exotic)))]
			}
			if !slices.Equal(sortedWithin(g, c, r), bruteWithin(pts, c, r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(churn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if grew == 0 {
		t.Fatal("no window growth happened mid-stream")
	}
}

// exotic lists the coordinates and radii no land produces: non-finite
// and astronomically far values, which must still query exactly.
var exotic = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}

// sortedWithin returns the grid's answer to a range query, sorted.
func sortedWithin(g *Grid, c Vec, r float64) []int64 {
	got := g.Within(c, r)
	slices.Sort(got)
	return got
}

// bruteWithin answers a range query by scanning every point with the
// grid's own distance test.
func bruteWithin(pts map[int64]Vec, c Vec, r float64) []int64 {
	var want []int64
	if !(r >= 0) {
		return nil
	}
	for id, p := range pts {
		dx, dy := p.X-c.X, p.Y-c.Y
		if dx*dx+dy*dy <= r*r {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	return want
}

// TestGridZeroAllocSteadyState pins the //slmob:hotpath contract on the
// grid's per-snapshot cycle: once every bucket a population touches has
// been materialised, Reset + reinsertion + range queries allocate
// nothing.
func TestGridZeroAllocSteadyState(t *testing.T) {
	g := NewGrid(10)
	pts := make([]Vec, 64)
	for i := range pts {
		pts[i] = V2(float64(i%8)*12, float64(i/8)*12)
	}
	// Warm-up: materialise every bucket and the occupied list.
	for i := 0; i < 3; i++ {
		g.Reset()
		for j, p := range pts {
			g.Insert(int64(j), p)
		}
	}
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		g.Reset()
		for j, p := range pts {
			g.Insert(int64(j), p)
		}
		g.VisitWithin(pts[7], 25, func(int64, Vec) bool { n++; return true })
	})
	if avg != 0 {
		t.Errorf("steady-state grid cycle allocates %v per run, want 0", avg)
	}
	if n == 0 {
		t.Fatal("VisitWithin visited nothing")
	}
}

// TestGridRemoveAndMove exercises the incremental-maintenance API: removal,
// same-cell moves (position update in place), cross-cell moves, and the
// not-found cases.
func TestGridRemoveAndMove(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, V2(5, 5))
	g.Insert(2, V2(6, 5))
	g.Insert(3, V2(55, 55))

	if !g.Remove(2, V2(6, 5)) {
		t.Fatal("Remove failed for a present point")
	}
	if g.Remove(2, V2(6, 5)) {
		t.Fatal("Remove succeeded twice for the same point")
	}
	if got := g.Len(); got != 2 {
		t.Fatalf("Len = %d after removal, want 2", got)
	}

	// Same-cell move: the query must see the new position.
	if !g.Move(1, V2(5, 5), V2(8, 8)) {
		t.Fatal("same-cell Move failed")
	}
	if got := g.Within(V2(8, 8), 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after same-cell move Within = %v, want [1]", got)
	}

	// Cross-cell move.
	if !g.Move(3, V2(55, 55), V2(100, 5)) {
		t.Fatal("cross-cell Move failed")
	}
	if got := g.CountWithin(V2(55, 55), 2); got != 0 {
		t.Fatalf("stale point still visible at old cell: %d", got)
	}
	if got := g.Within(V2(100, 5), 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after cross-cell move Within = %v, want [3]", got)
	}
	if g.Move(42, V2(0, 0), V2(1, 1)) {
		t.Fatal("Move succeeded for an absent point")
	}
	if got := g.Len(); got != 2 {
		t.Fatalf("Len = %d after moves, want 2", got)
	}

	// Growth: a point far outside the window re-homes every stored
	// point; those stored before it must still move and remove by their
	// stored positions.
	w0, h0 := g.w, g.h
	g.Insert(4, V2(-900, 1500))
	if g.w == w0 && g.h == h0 {
		t.Fatal("a far insert did not grow the window")
	}
	if !g.Move(1, V2(8, 8), V2(-880, 1490)) {
		t.Fatal("Move of a point stored before the growth failed")
	}
	if got := sortedWithin(g, V2(-890, 1495), 30); !slices.Equal(got, []int64{1, 4}) {
		t.Fatalf("after growth Within = %v, want [1 4]", got)
	}
	if !g.Remove(3, V2(100, 5)) {
		t.Fatal("Remove of a point stored before the growth failed")
	}

	// Points the window cannot reach, or that have no cell at all, clamp
	// into edge cells; they still remove, move, and query exactly.
	odd := []Vec{
		V2(math.NaN(), 5), V2(5, math.NaN()), V2(math.Inf(1), 0), V2(math.Inf(-1), math.Inf(1)),
		V2(1e300, -1e300), V2(-4e8, 3e8),
	}
	for i, p := range odd {
		g.Insert(int64(10+i), p)
	}
	if got := g.Len(); got != 2+len(odd) {
		t.Fatalf("Len = %d with the odd points in, want %d", got, 2+len(odd))
	}
	if got := sortedWithin(g, V2(-4e8+1, 3e8), 2); !slices.Equal(got, []int64{15}) {
		t.Fatalf("query at a clamped point = %v, want [15]", got)
	}
	if got := sortedWithin(g, V2(0, 0), math.Inf(1)); !slices.Equal(got, []int64{1, 4, 12, 13, 14, 15}) {
		t.Fatalf("infinite-radius query = %v, want every non-NaN point", got)
	}
	for i, p := range odd {
		if !g.Move(int64(10+i), p, V2(float64(i), 0)) {
			t.Fatalf("Move of odd point %v failed", p)
		}
	}
	if got := sortedWithin(g, V2(0, 0), 10); !slices.Equal(got, []int64{10, 11, 12, 13, 14, 15}) {
		t.Fatalf("odd points moved home: Within = %v", got)
	}
	for i := range odd {
		if !g.Remove(int64(10+i), V2(float64(i), 0)) {
			t.Fatalf("Remove of moved odd point %d failed", i)
		}
	}
	g.Insert(20, V2(math.NaN(), math.NaN()))
	if !g.Remove(20, V2(math.NaN(), math.NaN())) {
		t.Fatal("Remove of a NaN point at its stored position failed")
	}
	if got := g.Len(); got != 2 {
		t.Fatalf("Len = %d at the end, want 2", got)
	}
}

// TestGridMoveChurnZeroAlloc pins the incremental contract: on a grid that
// is never Reset, an arbitrary interleaving of cross-cell moves, removals,
// and re-inserts into previously-touched cells allocates nothing and keeps
// the occupied list duplicate-free, so a later Reset still restores the
// empty state.
func TestGridMoveChurnZeroAlloc(t *testing.T) {
	g := NewGrid(10)
	a, b := V2(5, 5), V2(25, 25)
	g.Insert(1, a)
	// Warm both cells and the occupied list.
	for i := 0; i < 3; i++ {
		g.Move(1, a, b)
		g.Move(1, b, a)
	}
	g.Insert(2, b)
	g.Remove(2, b)
	avg := testing.AllocsPerRun(200, func() {
		g.Move(1, a, b)
		g.Insert(2, a)
		g.Remove(2, a)
		g.Move(1, b, a)
	})
	if avg != 0 {
		t.Errorf("steady-state move/remove churn allocates %v per run, want 0", avg)
	}
	if got := len(g.occupied); got != 2 {
		t.Fatalf("occupied list holds %d cells, want 2 (no duplicates)", got)
	}
	g.Reset()
	if got := g.Len(); got != 0 {
		t.Fatalf("Len = %d after Reset, want 0", got)
	}
	g.Insert(9, a)
	if got := g.Within(a, 1); len(got) != 1 || got[0] != 9 {
		t.Fatalf("post-Reset state polluted: Within = %v", got)
	}
}

// TestVisitWithinHugeRadius: a hostile or degenerate radius must never
// turn the cell walk into an unbounded loop — the bounding box is
// clamped to the occupied cell extent, which yields identical results
// (no point lives outside it) at cost bounded by the land.
func TestVisitWithinHugeRadius(t *testing.T) {
	g := NewGrid(32)
	pts := []Vec{V2(0, 0), V2(100, 200), V2(255, 255), V2(-50, 12)}
	for i, p := range pts {
		g.Insert(int64(i), p)
	}
	// 1e9 walks ~4e15 cells unclamped; 7e10+ overflows the int32 cell
	// conversion; Inf never terminates. All must return every point.
	for _, r := range []float64{1e9, 7e10, 1e18, math.Inf(1)} {
		if got := len(g.Within(V2(128, 128), r)); got != len(pts) {
			t.Errorf("r=%v: %d points, want %d", r, got, len(pts))
		}
	}
	// A huge box disjoint from the occupied extent finds nothing (and
	// must not fabricate an intersection out of the clamp).
	if got := g.Within(V2(1e8, 1e8), 1e6); len(got) != 0 {
		t.Errorf("disjoint huge query returned %v", got)
	}
	// Degenerate radii stay rejected.
	for _, r := range []float64{math.NaN(), -1, math.Inf(-1)} {
		if got := g.Within(V2(128, 128), r); len(got) != 0 {
			t.Errorf("r=%v returned %v, want nothing", r, got)
		}
	}
	// An empty grid ignores every radius.
	g.Reset()
	if got := g.Within(V2(0, 0), math.Inf(1)); len(got) != 0 {
		t.Errorf("empty grid returned %v", got)
	}
}
