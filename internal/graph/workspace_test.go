package graph

import (
	"reflect"
	"testing"

	"slmob/internal/geom"
)

// wsPositions generates a deterministic scattered population with both
// dense clusters and isolated vertices.
func wsPositions(n int, salt uint64) []geom.Vec {
	state := salt*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24)
	}
	ps := make([]geom.Vec, n)
	for i := range ps {
		if i%3 == 0 {
			// Clustered third: tight groups produce multi-hop components.
			ps[i] = geom.V2(40+20*next(), 40+20*next())
		} else {
			ps[i] = geom.V2(256*next(), 256*next())
		}
	}
	return ps
}

// TestWorkspaceMatchesFromPositions: the workspace builder must produce
// exactly the graph of the allocating builder — adjacency lists included
// — and the same diameter and clustering, across populations and ranges.
func TestWorkspaceMatchesFromPositions(t *testing.T) {
	ws := NewWorkspace()
	// 63..65 and 128/129 straddle the 64-bit words of the bitset rows.
	for _, n := range []int{0, 1, 2, 7, 60, 63, 64, 65, 128, 129, 200} {
		for _, r := range []float64{0, 5, 10, 80} {
			ps := wsPositions(n, uint64(n)+uint64(r*1000))
			want := FromPositions(ps, r)
			got := ws.FromPositions(ps, r)
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("n=%d r=%v: N/M = %d/%d, want %d/%d",
					n, r, got.N(), got.M(), want.N(), want.M())
			}
			for u := 0; u < want.N(); u++ {
				g, w := got.Neighbors(u), want.Neighbors(u)
				if len(g) != len(w) {
					t.Fatalf("n=%d r=%v: degree(%d) = %d, want %d", n, r, u, len(g), len(w))
				}
				if len(w) > 0 && !reflect.DeepEqual(g, w) {
					t.Fatalf("n=%d r=%v: adj(%d) = %v, want %v", n, r, u, g, w)
				}
			}
			if gd, wd := ws.Diameter(), want.Diameter(); gd != wd {
				t.Fatalf("n=%d r=%v: diameter = %d, want %d", n, r, gd, wd)
			}
			if gc, wc := ws.MeanClustering(), want.MeanClustering(); gc != wc {
				t.Fatalf("n=%d r=%v: clustering = %v, want %v", n, r, gc, wc)
			}
		}
	}
}

// TestWorkspaceReuseAcrossSizes: shrinking and re-growing the population
// must not leak stale adjacency from earlier builds.
func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	ws := NewWorkspace()
	big := wsPositions(100, 1)
	ws.FromPositions(big, 80)
	small := []geom.Vec{geom.V2(0, 0), geom.V2(300, 300)}
	g := ws.FromPositions(small, 10)
	if g.N() != 2 || g.M() != 0 {
		t.Fatalf("after shrink: N/M = %d/%d, want 2/0", g.N(), g.M())
	}
	if g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Fatal("stale adjacency after shrink")
	}
	again := ws.FromPositions(big, 80)
	want := FromPositions(big, 80)
	if again.M() != want.M() {
		t.Fatalf("after regrow: M = %d, want %d", again.M(), want.M())
	}
}

// TestWorkspaceZeroAllocSteadyState pins the tentpole contract: building
// the proximity graph and computing diameter + clustering allocates
// nothing once the workspace has warmed up.
func TestWorkspaceZeroAllocSteadyState(t *testing.T) {
	ws := NewWorkspace()
	ps := wsPositions(120, 9)
	// Warm-up: populate the grid cells and size every buffer.
	for i := 0; i < 3; i++ {
		ws.FromPositions(ps, 10)
		ws.Diameter()
		ws.MeanClustering()
	}
	avg := testing.AllocsPerRun(100, func() {
		g := ws.FromPositions(ps, 10)
		_ = g.Degree(0)
		_ = ws.Diameter()
		_ = ws.MeanClustering()
	})
	if avg != 0 {
		t.Errorf("steady-state snapshot build allocates %v per run, want 0", avg)
	}
}

func BenchmarkP4WorkspaceBuild(b *testing.B) {
	ws := NewWorkspace()
	ps := wsPositions(200, 4)
	ws.FromPositions(ps, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.FromPositions(ps, 10)
		ws.Diameter()
		ws.MeanClustering()
	}
}

// BenchmarkP4WorkspaceMetrics times the line-of-sight kernels alone —
// Diameter plus MeanClustering — on a dense plaza (every avatar of a
// crowded land within range of most others) and on a scattered
// population of many small components.
func BenchmarkP4WorkspaceMetrics(b *testing.B) {
	for _, c := range []struct {
		name string
		ps   []geom.Vec
		r    float64
	}{
		{"plaza_n60_r80", crowdPositions(60), 80},
		{"scattered_n200_r10", wsPositions(200, 4), 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			ws := NewWorkspace()
			g := ws.FromPositions(c.ps, c.r)
			ws.Diameter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every snapshot refills the bitset rows; so does each
				// iteration.
				ws.rowsOK = false
				ws.Diameter()
				ws.MeanClustering()
			}
			b.ReportMetric(float64(g.M()), "edges")
		})
	}
}

func BenchmarkP4AllocatingBuild(b *testing.B) {
	ps := wsPositions(200, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromPositions(ps, 10)
		g.Diameter()
		g.MeanClustering()
	}
}
