package slmob

import (
	"context"
	"math"
	"testing"

	"slmob/internal/core"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// collectTrace simulates the scenario in process and materialises its
// τ-sampled trace, for the batch references and replays that need one.
func collectTrace(tb testing.TB, scn Scenario) *Trace {
	tb.Helper()
	src, err := world.NewSource(scn, PaperTau)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := trace.Collect(context.Background(), src, "", 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestFacadeEndToEnd(t *testing.T) {
	scn := DanceIsland(5)
	scn.Duration = 1800
	tr := collectTrace(t, scn)
	an, err := core.Analyze(tr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Summary.Unique == 0 {
		t.Error("no users")
	}
	if an.Contacts[BluetoothRange] == nil || an.Contacts[WiFiRange] == nil {
		t.Error("missing default ranges")
	}
	res, err := Replay(tr, DTNConfig{Protocol: Epidemic, Range: BluetoothRange, Messages: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Error("no DTN messages generated")
	}
}

func TestFacadeHelpers(t *testing.T) {
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty-sample helpers should return NaN")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("median wrong")
	}
	if Quantile([]float64{1, 2, 3, 4}, 0.75) != 3 {
		t.Error("quantile wrong")
	}
}

func TestFacadeScenarios(t *testing.T) {
	for _, scn := range PaperLands(1) {
		if err := scn.Validate(); err != nil {
			t.Errorf("%s: %v", scn.Land.Name, err)
		}
	}
	b := BaselineScenario(RandomWaypoint, 1)
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}

// TestShortRunsThreeLands exercises the full experiment path on a short
// horizon so `go test ./...` covers it without the 24 h cost (the 24 h
// calibration lives in internal/experiment and the benchmarks).
func TestShortRunsThreeLands(t *testing.T) {
	if testing.Short() {
		t.Skip("three-land run skipped in -short mode")
	}
	runs, err := RunPaperLandsContext(context.Background(), 2, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	figs, err := BuildFigures(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 16 {
		t.Errorf("figures = %d, want 16 panels", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 3 {
			t.Errorf("%s: %d series, want 3", f.ID, len(f.Series))
		}
	}
}
