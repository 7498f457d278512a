package slmob

// Estate façade tests: the 1×1 parity acceptance gate, multi-region
// behaviour through RunEstate, the per-region file round trip, and the
// option validation paths of Run / AnalyzeStream / RunLands.

import (
	"context"
	"errors"
	"testing"

	"slmob/internal/core"
	"slmob/internal/trace"
)

// TestRunEstateSingleRegionParity: analysing a 1×1 estate must reproduce
// the single-land pipeline — the region's Analysis is identical, and the
// estate-global view agrees on everything it computes (line-of-sight
// network metrics are intentionally per-region only).
func TestRunEstateSingleRegionParity(t *testing.T) {
	scn := DanceIsland(17)
	scn.Duration = 3600
	single, err := Run(context.Background(), scn)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEstate(context.Background(), SingleRegionEstate(scn))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(res.Regions))
	}
	assertParity(t, "1x1 region", res.Regions[0], single)

	g := res.Global
	if g.Summary != single.Summary {
		t.Errorf("global summary = %+v, want %+v", g.Summary, single.Summary)
	}
	for r, want := range single.Contacts {
		got := g.Contacts[r]
		if got == nil {
			t.Fatalf("global missing contact range %v", r)
		}
		if got.Pairs != want.Pairs || got.Censored != want.Censored ||
			got.NeverContacted != want.NeverContacted ||
			got.CT.N() != want.CT.N() || got.ICT.N() != want.ICT.N() || got.FT.N() != want.FT.N() {
			t.Errorf("global contacts r=%v = %+v, want %+v", r, got, want)
		}
	}
	if g.Zones.N() != single.Zones.N() {
		t.Errorf("global zones = %d samples, want %d", g.Zones.N(), single.Zones.N())
	}
	if len(g.Trips.TravelTime) != len(single.Trips.TravelTime) {
		t.Errorf("global trips = %d, want %d", len(g.Trips.TravelTime), len(single.Trips.TravelTime))
	}
	if g.Nets != nil {
		t.Errorf("global Nets = %v, want nil (per-region only)", g.Nets)
	}
}

// TestRunEstateMultiRegion: a migrating three-region estate produces a
// coherent two-level analysis — concurrency sums across regions, and
// avatars that visit several regions are counted once globally but once
// per region regionally.
func TestRunEstateMultiRegion(t *testing.T) {
	est := PaperEstate(31)
	est.Duration = 1800
	res, err := RunEstate(context.Background(), est, WithRegionWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estate != est.Name || len(res.Regions) != 3 {
		t.Fatalf("estate/regions = %q/%d", res.Estate, len(res.Regions))
	}
	sumConc, sumUnique := 0.0, 0
	for _, ra := range res.Regions {
		sumConc += ra.Summary.MeanConcurrent
		sumUnique += ra.Summary.Unique
	}
	g := res.Global.Summary
	if diff := g.MeanConcurrent - sumConc; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("global concurrency %v != regional sum %v", g.MeanConcurrent, sumConc)
	}
	if g.Unique >= sumUnique {
		t.Errorf("global unique %d not below regional sum %d: no avatar visited two regions?",
			g.Unique, sumUnique)
	}
	if res.Global.Contacts[BluetoothRange].CT.N() == 0 {
		t.Error("global contact distribution is empty")
	}
}

// TestRunEstateCancelledContext: estate runs honour cancellation.
func TestRunEstateCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunEstate(ctx, PaperEstate(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEstateFileRoundTrip: per-region traces written to disk analyse
// back through OpenEstateTraceStream with the same population view (the
// binary codec quantises positions to float32, so only position-free
// metrics are compared exactly).
func TestEstateFileRoundTrip(t *testing.T) {
	est := PaperEstate(23)
	est.Duration = 900
	src, err := NewEstateSource(est, PaperTau)
	if err != nil {
		t.Fatal(err)
	}
	live, err := AnalyzeEstateStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}

	src2, err := NewEstateSource(est, PaperTau)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := CollectEstateSource(context.Background(), src2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, len(trs))
	for i, tr := range trs {
		paths[i] = dir + "/" + []string{"a", "b", "c"}[i] + ".sltr"
		if err := WriteTraceFile(tr, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	efs, err := OpenEstateTraceStream(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer efs.Close()
	replayed, err := AnalyzeEstateStream(context.Background(), efs, WithRegionWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Estate != live.Estate {
		t.Errorf("estate label = %q, want %q (from file metadata)", replayed.Estate, live.Estate)
	}
	if replayed.Global.Summary != live.Global.Summary {
		t.Errorf("global summary = %+v, want %+v", replayed.Global.Summary, live.Global.Summary)
	}
	for i := range live.Regions {
		if replayed.Regions[i].Summary != live.Regions[i].Summary {
			t.Errorf("region %d summary = %+v, want %+v",
				i, replayed.Regions[i].Summary, live.Regions[i].Summary)
		}
	}
}

// TestOptionValidation exercises the façade's error branches: the
// invalid-parameter paths of Run and AnalyzeStream and the degenerate
// scenario list of RunLands.
func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	scn := DanceIsland(1)
	scn.Duration = 60

	if _, err := Run(ctx, scn, WithTau(-1)); err == nil {
		t.Error("Run accepted negative tau")
	}
	if _, err := Run(ctx, scn, WithTau(0)); err == nil {
		t.Error("Run accepted zero tau")
	}
	if _, err := Run(ctx, scn, WithRanges(10, -5)); err == nil {
		t.Error("Run accepted a non-positive range")
	}
	if _, err := Run(ctx, scn, WithZoneSize(-1)); err == nil {
		t.Error("Run accepted a negative zone size")
	}
	if _, err := Run(ctx, scn, WithLandSize(-256)); err == nil {
		t.Error("Run accepted a negative land size")
	}
	// A zero zone size is not an error: it selects the paper default.
	if an, err := Run(ctx, scn, WithZoneSize(0)); err != nil {
		t.Errorf("Run rejected the zero zone-size default: %v", err)
	} else if an.Zones.N() == 0 {
		t.Error("default zone size produced no zone samples")
	}

	tr := collectTrace(t, scn)
	if _, err := AnalyzeStream(ctx, TraceSource(tr), WithTau(-10)); err == nil {
		t.Error("AnalyzeStream accepted negative tau")
	}
	if _, err := AnalyzeStream(ctx, TraceSource(tr), WithRanges(0)); err == nil {
		t.Error("AnalyzeStream accepted a zero range")
	}

	// A malformed size in the source metadata is a decode error now,
	// not a silent fallback.
	tr.Meta["size"] = "not-a-number"
	if _, err := AnalyzeStream(ctx, TraceSource(tr)); err == nil {
		t.Error("AnalyzeStream accepted malformed size metadata")
	}
	if _, err := core.Analyze(tr, core.Config{}); err == nil {
		t.Error("Analyze accepted malformed size metadata")
	}
	delete(tr.Meta, "size")

	// Nil and empty scenario lists are a no-op, not a crash.
	for _, scns := range [][]Scenario{nil, {}} {
		ans, err := RunLands(ctx, scns)
		if err != nil {
			t.Errorf("RunLands(%v scenarios) err = %v", len(scns), err)
		}
		if len(ans) != 0 {
			t.Errorf("RunLands(%v scenarios) = %d analyses", len(scns), len(ans))
		}
	}

	// Estate validation propagates through the façade.
	bad := PaperEstate(1)
	bad.Rows = 2 // 2×3 grid with only 3 regions
	if _, err := RunEstate(ctx, bad); err == nil {
		t.Error("RunEstate accepted a malformed grid")
	}
	if _, err := RunEstate(ctx, PaperEstate(1), WithTau(-1)); err == nil {
		t.Error("RunEstate accepted negative tau")
	}
}

// TestEstateReplayParity: the in-memory estate replay reproduces the
// live stream's analysis exactly (no codec quantisation involved).
func TestEstateReplayParity(t *testing.T) {
	est := PaperEstate(12)
	est.Duration = 600
	src, err := NewEstateSource(est, PaperTau)
	if err != nil {
		t.Fatal(err)
	}
	infos := src.Regions()
	trs, err := CollectEstateSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := trace.NewEstateReplay(infos, trs)
	if err != nil {
		t.Fatal(err)
	}
	fromReplay, err := AnalyzeEstateStream(context.Background(), replay, WithRegionWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	src2, err := NewEstateSource(est, PaperTau)
	if err != nil {
		t.Fatal(err)
	}
	live, err := AnalyzeEstateStream(context.Background(), src2, WithRegionWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Regions {
		for _, d := range core.DiffAnalyses(fromReplay.Regions[i], live.Regions[i]) {
			t.Errorf("region %d: %s", i, d)
		}
	}
	for _, d := range core.DiffAnalyses(fromReplay.Global, live.Global) {
		t.Errorf("global: %s", d)
	}
}
