package core

import (
	"context"
	"testing"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// churnSnapshots builds a deterministic snapshot stream with real
// population churn — logins, logouts, teleports, walks, and a seated
// avatar — the workload the incremental graph engine has to diff, not
// just the fixed-population oscillation of allocSnapshots.
func churnSnapshots(seed uint64, n int) []trace.Snapshot {
	state := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24)
	}
	randPos := func() geom.Vec {
		if next() < 0.5 {
			return geom.V2(60+50*next(), 60+50*next())
		}
		return geom.V2(250*next(), 250*next())
	}
	type av struct {
		id  trace.AvatarID
		pos geom.Vec
	}
	var pop []av
	nextID := trace.AvatarID(1)
	for i := 0; i < 40; i++ {
		pop = append(pop, av{id: nextID, pos: randPos()})
		nextID++
	}
	snaps := make([]trace.Snapshot, n)
	for k := 0; k < n; k++ {
		for i := 0; i < len(pop); {
			if next() < 0.03 { // logout
				pop[i] = pop[len(pop)-1]
				pop = pop[:len(pop)-1]
				continue
			}
			i++
		}
		for j := 0; j < 3; j++ {
			if next() < 0.4 { // login
				pop = append(pop, av{id: nextID, pos: randPos()})
				nextID++
			}
		}
		for i := range pop {
			switch u := next(); {
			case u < 0.02: // teleport
				pop[i].pos = randPos()
			case u < 0.25: // walk
				pop[i].pos = geom.V2(pop[i].pos.X+4*(next()-0.5), pop[i].pos.Y+4*(next()-0.5))
			}
		}
		samples := make([]trace.Sample, 0, len(pop)+1)
		for _, a := range pop {
			samples = append(samples, trace.Sample{ID: a.id, Pos: a.pos})
		}
		samples = append(samples, trace.Sample{ID: 999999, Pos: geom.V2(5, 5), Seated: true})
		snaps[k] = trace.Snapshot{T: int64(k+1) * 10, Samples: samples}
	}
	return snaps
}

// runStreaming drives a fresh Analyzer over the stream.
func runStreaming(t *testing.T, snaps []trace.Snapshot, cfg Config) (*Analysis, *Analyzer) {
	t.Helper()
	a, err := NewAnalyzer("churn", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		if err := a.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	an, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return an, a
}

// TestIncrementalStreamingDifferential is the core-layer leg of the
// incremental parity gate: a churn-heavy stream analysed with the
// temporal-coherence path (default) must be bit-identical — contacts,
// degrees, diameters, clustering, zones, trips — to the same stream with
// DisableIncremental forcing a scratch rebuild every snapshot, with and
// without the range fanout.
func TestIncrementalStreamingDifferential(t *testing.T) {
	snaps := churnSnapshots(3, 300)
	scratch, _ := runStreaming(t, snaps, Config{DisableIncremental: true})
	incr, a := runStreaming(t, snaps, Config{})
	for _, d := range DiffAnalyses(incr, scratch) {
		t.Errorf("incremental vs scratch: %s", d)
	}
	st := a.WorkspaceStats()
	if st.Incremental == 0 {
		t.Fatalf("no snapshot was served incrementally: %+v", st)
	}
	if st.Snapshots != 600 { // 300 snapshots × 2 ranges
		t.Fatalf("workspace stats counted %d snapshots, want 600", st.Snapshots)
	}

	fanned, fa := runStreaming(t, snaps, Config{Ranges: []float64{5, 10, 20, 40, 80}, RangeWorkers: 3})
	fanScratch, _ := runStreaming(t, snaps, Config{Ranges: []float64{5, 10, 20, 40, 80}, DisableIncremental: true})
	for _, d := range DiffAnalyses(fanned, fanScratch) {
		t.Errorf("fanned incremental vs scratch: %s", d)
	}
	if st := fa.WorkspaceStats(); st.Incremental == 0 {
		t.Fatalf("fanned run never went incremental: %+v", st)
	}
}

// TestEstateIncrementalDifferential extends the parity gate to the
// sharded analyzer: regional analyzers and the estate-global contact
// stages all run incrementally by default and must reproduce the
// DisableIncremental run bit-for-bit, region by region and globally.
func TestEstateIncrementalDifferential(t *testing.T) {
	run := func(disable bool) (*EstateAnalysis, *EstateAnalyzer) {
		es := estateSource(t, 0.02, 1200)
		metas, err := RegionMetasFromInfos(es.Regions())
		if err != nil {
			t.Fatal(err)
		}
		ea, err := NewEstateAnalyzer("grid", metas, 10, Config{DisableIncremental: disable}, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ea.Consume(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		return res, ea
	}
	scratch, _ := run(true)
	incr, ea := run(false)
	for i := range scratch.Regions {
		for _, d := range DiffAnalyses(incr.Regions[i], scratch.Regions[i]) {
			t.Errorf("region %d: %s", i, d)
		}
	}
	for _, d := range DiffAnalyses(incr.Global, scratch.Global) {
		t.Errorf("global: %s", d)
	}
	st := ea.WorkspaceStats()
	if st.Incremental == 0 {
		t.Fatalf("estate run never went incremental: %+v", st)
	}
	if incr.Global.Summary.Unique == 0 {
		t.Fatal("estate analysis is empty")
	}
}

// BenchmarkP4ContactTracking measures steady-state Observe on the churn
// stream at the default Bluetooth and WiFi ranges: graph build, contact
// tracking, and line-of-sight metrics per snapshot. "incremental" is the
// default path, whose contact tracker reads the graph's edge diff;
// "scratch" sets DisableIncremental, rebuilding each graph and walking
// every edge. The stream is replayed in cycles with shifted timestamps,
// after one warm-up cycle, so every pair and buffer is already known.
func BenchmarkP4ContactTracking(b *testing.B) {
	snaps := churnSnapshots(5, 1000)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"incremental", false}, {"scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			a, err := NewAnalyzer("bench", 10, Config{DisableIncremental: mode.disable})
			if err != nil {
				b.Fatal(err)
			}
			t := int64(0)
			observe := func(k int) {
				t += 10
				if err := a.Observe(trace.Snapshot{T: t, Samples: snaps[k%len(snaps)].Samples}); err != nil {
					b.Fatal(err)
				}
			}
			for k := range snaps {
				observe(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe(i)
			}
		})
	}
}
