package load

import (
	"context"
	"testing"
	"time"
)

// TestLoadSmoke runs the harness end to end against a self-hosted paper
// estate: every client must connect, survive the run, and see traffic —
// zero server faults, pushes flowing to observers, replies flowing to
// readers, and a decodable sealed analysis at the end.
func TestLoadSmoke(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Preset:      "paper",
		Seed:        3,
		SimDuration: 1800,
		Warp:        2000,
		Window:      600,
		Observers:   30,
		Readers:     20,
		RunFor:      5 * time.Second,
		PollEvery:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 30 + 20; rep.Connected != want {
		t.Errorf("connected = %d, want %d (failures: %d, errors: %v)",
			rep.Connected, want, rep.ConnectFailures, rep.Errors)
	}
	if rep.ServerFaults != 0 {
		t.Errorf("server faults = %d, want 0 (errors: %v)", rep.ServerFaults, rep.Errors)
	}
	if rep.Pushes == 0 {
		t.Error("observers received no map pushes")
	}
	if rep.Replies == 0 {
		t.Error("readers received no analytics replies")
	}
	if rep.LatencyMs.Max <= 0 {
		t.Error("no reader latency recorded")
	}
	// The sim duration (1800s at warp 2000 ≈ 0.9s wall) elapses within
	// the load phase, so the final analysis is sealed and decodable.
	if !rep.FinalSealed {
		t.Error("final service state not sealed")
	}
	if rep.FinalDigest == "" {
		t.Error("no final cumulative digest; sealed analysis not decodable")
	}
	if rep.Regions != 3 || rep.Estate == "" {
		t.Errorf("estate = %q with %d regions, want the 1x3 paper estate", rep.Estate, rep.Regions)
	}
	// Self-hosted runs report the tick engine's sustained timing.
	if rep.TickIntervals == 0 || rep.TickSteps == 0 {
		t.Errorf("tick timing not reported: %d intervals / %d steps", rep.TickIntervals, rep.TickSteps)
	}
	if rep.TickMaxMs <= 0 || rep.TickBudgetMs <= 0 {
		t.Errorf("tick durations not reported: max %.3fms budget %.3fms", rep.TickMaxMs, rep.TickBudgetMs)
	}
}
