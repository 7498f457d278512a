package graph

import (
	"maps"
	"slices"
	"testing"

	"slmob/internal/geom"
)

// deltaSim is a seeded avatar-churn simulator for the differential tests:
// a population with login/logout churn, teleports, and per-step walks,
// deterministic for a given seed.
type deltaSim struct {
	state  uint64
	nextID uint64
	ids    []uint64
	pos    []geom.Vec
}

func newDeltaSim(seed uint64, n int) *deltaSim {
	s := &deltaSim{state: seed*2862933555777941757 + 3037000493, nextID: 1}
	for i := 0; i < n; i++ {
		s.login()
	}
	return s
}

func (s *deltaSim) rand() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

func (s *deltaSim) unit() float64 { return float64(s.rand()>>40) / float64(1<<24) }

func (s *deltaSim) randPos() geom.Vec {
	// Half the population concentrates in a 60 m plaza so components are
	// non-trivial at r=10; the rest scatters over the land.
	if s.unit() < 0.5 {
		return geom.V2(100+60*s.unit(), 100+60*s.unit())
	}
	return geom.V2(256*s.unit(), 256*s.unit())
}

func (s *deltaSim) login() {
	s.ids = append(s.ids, s.nextID)
	s.pos = append(s.pos, s.randPos())
	s.nextID++
}

// step advances one snapshot: logouts, logins, teleports, and short
// walks, at the given per-avatar rates.
func (s *deltaSim) step(logout, login, teleport, walk float64) {
	for i := 0; i < len(s.ids); {
		if s.unit() < logout {
			last := len(s.ids) - 1
			s.ids[i], s.pos[i] = s.ids[last], s.pos[last]
			s.ids, s.pos = s.ids[:last], s.pos[:last]
			continue
		}
		i++
	}
	for k := 0; k < 4; k++ {
		if s.unit() < login {
			s.login()
		}
	}
	for i := range s.ids {
		switch u := s.unit(); {
		case u < teleport:
			s.pos[i] = s.randPos()
		case u < teleport+walk:
			s.pos[i] = geom.V2(s.pos[i].X+6*(s.unit()-0.5), s.pos[i].Y+6*(s.unit()-0.5))
		}
	}
}

// edgeSet returns the graph's edges as sorted packed (min,max) pairs —
// the order-insensitive adjacency comparison.
func edgeSet(g *Graph) []uint64 {
	var es []uint64
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				es = append(es, uint64(u)<<32|uint64(v))
			}
		}
	}
	slices.Sort(es)
	return es
}

// idEdges returns the graph's edges as (min,max) avatar-id pairs.
func idEdges(g *Graph, ids []uint64) map[[2]uint64]bool {
	es := make(map[[2]uint64]bool)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				es[idPair(ids[u], ids[v])] = true
			}
		}
	}
	return es
}

func idPair(a, b uint64) [2]uint64 {
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

// applyEdgeDiff folds an edge diff into a running edge set, failing on a
// removal of an absent edge or an addition of a present one — so each
// changed edge must be reported exactly once.
func applyEdgeDiff(t *testing.T, step int, es map[[2]uint64]bool, diff EdgeDiff, ids []uint64) {
	t.Helper()
	for _, e := range diff.Removed {
		k := idPair(e[0], e[1])
		if !es[k] {
			t.Fatalf("step %d: diff removes absent edge %v", step, k)
		}
		delete(es, k)
	}
	for _, e := range diff.Added {
		k := idPair(ids[e[0]], ids[e[1]])
		if es[k] {
			t.Fatalf("step %d: diff adds present edge %v", step, k)
		}
		es[k] = true
	}
}

// checkParity asserts that the delta workspace's current graph and
// metrics are bit-identical to a scratch build over the same snapshot,
// and that both workspaces' metric kernels match the Graph references.
func checkParity(t *testing.T, step int, ws *Workspace, ps []geom.Vec, r float64) {
	t.Helper()
	g := ws.Graph()
	scratch := NewWorkspace()
	want := scratch.FromPositions(ps, r)
	if g.N() != want.N() || g.M() != want.M() {
		t.Fatalf("step %d: N/M = %d/%d, want %d/%d", step, g.N(), g.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		if g.Degree(u) != want.Degree(u) {
			t.Fatalf("step %d: degree(%d) = %d, want %d", step, u, g.Degree(u), want.Degree(u))
		}
	}
	if ge, we := edgeSet(g), edgeSet(want); !slices.Equal(ge, we) {
		t.Fatalf("step %d: edge sets differ: got %d edges, want %d", step, len(ge), len(we))
	}
	wd, wc := want.Diameter(), want.MeanClustering()
	for _, k := range []struct {
		name string
		ws   *Workspace
	}{{"delta", ws}, {"scratch", scratch}} {
		if gd := k.ws.Diameter(); gd != wd {
			t.Fatalf("step %d: %s diameter = %d, want %d", step, k.name, gd, wd)
		}
		if gc := k.ws.MeanClustering(); gc != wc {
			t.Fatalf("step %d: %s clustering = %v, want %v (must be bit-identical)", step, k.name, gc, wc)
		}
	}
}

// TestApplyPositionsDifferential is the randomized differential gate:
// a seeded churn simulation runs for K snapshots and the incremental
// build must match a scratch build bit-for-bit at every step — edges,
// degrees, diameter, clustering — across churn regimes and fallback
// thresholds (always-incremental, default, twitchy, always-rebuild).
// An edge set kept only by applying each call's edge diff must equal the
// returned graph's, and the diff must be missing exactly on the calls
// that rebuilt from scratch.
func TestApplyPositionsDifferential(t *testing.T) {
	regimes := []struct {
		name                          string
		start                         int
		logout, login, teleport, walk float64
	}{
		{"calm", 70, 0.002, 0.1, 0.002, 0.05},
		{"paper", 70, 0.01, 0.3, 0.01, 0.2},
		{"stormy", 70, 0.08, 0.9, 0.15, 0.6},
		// Grows from 58 past 64 avatars, so the bitset rows widen from
		// one word to two mid-stream.
		{"filling", 58, 0.002, 0.1, 0.01, 0.2},
	}
	thresholds := []float64{1.0, 0, 0.05, -1}
	for _, reg := range regimes {
		for _, thresh := range thresholds {
			for _, r := range []float64{10, 80} {
				sim := newDeltaSim(uint64(len(reg.name))*1000003+uint64(r), reg.start)
				ws := NewWorkspace()
				ws.SetChurnThreshold(thresh)
				minN, maxN := len(sim.ids), len(sim.ids)
				var edges map[[2]uint64]bool
				diffs := 0
				for step := 0; step < 120; step++ {
					sim.step(reg.logout, reg.login, reg.teleport, reg.walk)
					minN, maxN = min(minN, len(sim.ids)), max(maxN, len(sim.ids))
					rebuilds := ws.Stats().FullRebuilds
					g := ws.ApplyPositions(sim.ids, sim.pos, r)
					rebuilt := ws.Stats().FullRebuilds != rebuilds
					diff, ok := ws.EdgeDiff()
					if ok == rebuilt {
						t.Fatalf("%s thresh=%v r=%v step %d: diff available=%v on a call with rebuilt=%v",
							reg.name, thresh, r, step, ok, rebuilt)
					}
					if ok {
						diffs++
						applyEdgeDiff(t, step, edges, diff, sim.ids)
						if want := idEdges(g, sim.ids); !maps.Equal(edges, want) {
							t.Fatalf("%s thresh=%v r=%v step %d: diff-kept edge set has %d edges, graph has %d",
								reg.name, thresh, r, step, len(edges), len(want))
						}
					} else {
						edges = idEdges(g, sim.ids)
					}
					checkParity(t, step, ws, sim.pos, r)
					// A scratch build mid-stream must invalidate cleanly.
					if step == 60 {
						ws.FromPositions(sim.pos, r)
						if _, ok := ws.EdgeDiff(); ok {
							t.Fatal("FromPositions left an edge diff behind")
						}
					}
				}
				if int64(diffs) != ws.Stats().Incremental {
					t.Fatalf("%d diffs for %d incremental calls", diffs, ws.Stats().Incremental)
				}
				if reg.name == "filling" && (minN > 64 || maxN <= 64) {
					t.Fatalf("filling r=%v: population spanned %d..%d, want it to cross 64", r, minN, maxN)
				}
				st := ws.Stats()
				if st.Snapshots != 120 {
					t.Fatalf("%s thresh=%v r=%v: %d snapshots counted, want 120", reg.name, thresh, r, st.Snapshots)
				}
				if st.Incremental+st.FullRebuilds != st.Snapshots {
					t.Fatalf("%s thresh=%v r=%v: stats don't partition: %+v", reg.name, thresh, r, st)
				}
				if thresh == -1 && st.Incremental != 0 {
					t.Fatalf("thresh=-1 must always rebuild, served %d incrementally", st.Incremental)
				}
				if thresh == 1.0 && reg.name == "calm" && st.FullRebuilds > 2 {
					// First build + the forced FromPositions invalidation.
					t.Fatalf("thresh=1 should never fall back, rebuilt %d times", st.FullRebuilds)
				}
			}
		}
	}
}

// TestApplyPositionsInterleavedSizes drives population growth and shrink
// — including collapse to zero and one — through a single workspace,
// interleaved with scratch builds of other sizes, so buffer reuse across
// differently-sized snapshots cannot leak stale slots or adjacency.
func TestApplyPositionsInterleavedSizes(t *testing.T) {
	ws := NewWorkspace()
	sizes := []int{80, 3, 150, 0, 1, 40, 200, 2, 97}
	var ids []uint64
	var ps []geom.Vec
	for step, n := range sizes {
		ids, ps = ids[:0], ps[:0]
		// Overlapping identity across steps: avatars 0..n-1, positions
		// re-derived per step so survivors move.
		for i := 0; i < n; i++ {
			ids = append(ids, uint64(i+1))
			base := wsPositions(n, uint64(step))
			ps = append(ps, base[i])
		}
		ws.ApplyPositions(ids, ps, 10)
		checkParity(t, step, ws, ps, 10)
		if step%3 == 1 {
			// Disturb the pooled buffers with an unrelated scratch build.
			ws.FromPositions(wsPositions(300, uint64(step)), 80)
			ws.Diameter()
			ws.ApplyPositions(ids, ps, 10)
			checkParity(t, step, ws, ps, 10)
		}
	}
}

// TestApplyPositionsRangeChange: changing the communication range must
// force a rebuild, not reuse state keyed to the old range.
func TestApplyPositionsRangeChange(t *testing.T) {
	ws := NewWorkspace()
	ps := wsPositions(90, 7)
	ids := make([]uint64, len(ps))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	ws.ApplyPositions(ids, ps, 10)
	ws.ApplyPositions(ids, ps, 80)
	checkParity(t, 1, ws, ps, 80)
	ws.ApplyPositions(ids, ps, 10)
	checkParity(t, 2, ws, ps, 10)
	if st := ws.Stats(); st.FullRebuilds != 3 {
		t.Fatalf("range flips must rebuild every time: %+v", st)
	}
}

// TestApplyPositionsComponentReuse: a static population served
// incrementally, then one far-away isolate moved, must keep the metrics
// bit-identical to a scratch build at every step.
func TestApplyPositionsComponentReuse(t *testing.T) {
	ws := NewWorkspace()
	// A connected cluster plus one distant isolate.
	ps := []geom.Vec{
		geom.V2(50, 50), geom.V2(55, 50), geom.V2(50, 55), geom.V2(58, 56),
		geom.V2(230, 230),
	}
	ids := []uint64{1, 2, 3, 4, 99}
	for step := 0; step < 5; step++ {
		ws.ApplyPositions(ids, ps, 10)
		checkParity(t, step, ws, ps, 10)
	}
	// Move the isolate.
	ps[4] = geom.V2(200, 200)
	ws.ApplyPositions(ids, ps, 10)
	checkParity(t, 5, ws, ps, 10)
}

// deltaAllocFrames precomputes a cycle of snapshots over a stable
// population in which ~10% of avatars walk (some across grid cells) each
// frame, so the steady-state pin measures the incremental path with real
// movement, grid relocation, and edge churn.
func deltaAllocFrames(n, frames int) (ids []uint64, frame [][]geom.Vec) {
	base := wsPositions(n, 11)
	ids = make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	frame = make([][]geom.Vec, frames)
	for f := range frame {
		ps := make([]geom.Vec, n)
		copy(ps, base)
		for i := 0; i < n; i += 10 {
			// A 12 m swing crosses r=10 grid cells and makes/breaks edges.
			ps[i] = geom.V2(base[i].X+12*float64(f%4), base[i].Y)
		}
		frame[f] = ps
	}
	return ids, frame
}

// TestApplyPositionsZeroAllocSteadyState pins the tentpole contract on
// the delta path: once warmed, an incremental snapshot — diff, grid
// moves, edge patch, edge diff, diameter, clustering — allocates
// nothing.
func TestApplyPositionsZeroAllocSteadyState(t *testing.T) {
	ws := NewWorkspace()
	ids, frames := deltaAllocFrames(120, 8)
	for cycle := 0; cycle < 3; cycle++ {
		for _, ps := range frames {
			ws.ApplyPositions(ids, ps, 10)
			ws.Diameter()
			ws.MeanClustering()
		}
	}
	f, changed := 0, 0
	avg := testing.AllocsPerRun(100, func() {
		ws.ApplyPositions(ids, frames[f%len(frames)], 10)
		diff, _ := ws.EdgeDiff()
		changed += len(diff.Removed) + len(diff.Added)
		_ = ws.Diameter()
		_ = ws.MeanClustering()
		f++
	})
	if avg != 0 {
		t.Errorf("steady-state ApplyPositions allocates %v per snapshot, want 0", avg)
	}
	if changed == 0 {
		t.Fatal("pin never produced a non-empty edge diff")
	}
	st := ws.Stats()
	if st.Incremental == 0 || st.FullRebuilds != 1 {
		t.Fatalf("pin did not exercise the incremental path: %+v", st)
	}
}

// TestGrowInt32PreservesPrefix: reallocation must carry the live prefix —
// the latent reuse hazard the delta mode's slot tables would trip over.
func TestGrowInt32PreservesPrefix(t *testing.T) {
	buf := growInt32(nil, 4)
	for i := range buf {
		buf[i] = int32(i + 1)
	}
	grown := growInt32(buf, 4096)
	for i := 0; i < 4; i++ {
		if grown[i] != int32(i+1) {
			t.Fatalf("growInt32 lost prefix entry %d: got %d", i, grown[i])
		}
	}
	if shrunk := growInt32(grown, 2); shrunk[0] != 1 || shrunk[1] != 2 {
		t.Fatal("growInt32 shrink lost prefix")
	}
}

// BenchmarkP4IncrementalBuild is the city-scale graph-build+metrics
// benchmark on the temporal-coherence path: the same 200-avatar snapshot
// cadence as BenchmarkP4WorkspaceBuild, with paper-default mobility (~10%
// of avatars walking per 10 s snapshot) served by ApplyPositions.
func BenchmarkP4IncrementalBuild(b *testing.B) {
	ws := NewWorkspace()
	ids, frames := deltaAllocFrames(200, 8)
	for _, ps := range frames {
		ws.ApplyPositions(ids, ps, 10)
		ws.Diameter()
		ws.MeanClustering()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ApplyPositions(ids, frames[i%len(frames)], 10)
		ws.Diameter()
		ws.MeanClustering()
	}
}

// BenchmarkP4ScratchMovingBuild is the from-scratch control for the
// incremental benchmark: identical moving frames, rebuilt with
// FromPositions every snapshot. The incremental/scratch ratio between the
// two is the speedup the churn stats in slbench should reflect.
func BenchmarkP4ScratchMovingBuild(b *testing.B) {
	ws := NewWorkspace()
	ids, frames := deltaAllocFrames(200, 8)
	_ = ids
	ws.FromPositions(frames[0], 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.FromPositions(frames[i%len(frames)], 10)
		ws.Diameter()
		ws.MeanClustering()
	}
}
