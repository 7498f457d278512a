package slmob

// Ablation benchmarks for the design choices DESIGN.md calls out: what
// happens to the headline contact statistics when a model ingredient is
// removed. These quantify why each mechanism exists rather than timing
// hot paths.

import (
	"testing"

	"slmob/internal/core"
	"slmob/internal/world"
)

// ablate collects a 4 h Dance Island trace under a modified scenario and
// returns the r=10 contact set.
func ablate(b *testing.B, mutate func(*world.Scenario)) *core.ContactSet {
	b.Helper()
	scn := world.DanceIsland(benchSeed)
	scn.Duration = 2 * 3600
	if mutate != nil {
		mutate(&scn)
	}
	tr := collectTrace(b, scn)
	cs, err := core.ExtractContacts(tr, core.BluetoothRange)
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkAblationMicroMoves removes the paused micro-movement (dancing
// repositioning): contacts become rigid and the inter-contact
// distribution collapses toward pure pause-cycle gaps.
func BenchmarkAblationMicroMoves(b *testing.B) {
	var base, ablated *core.ContactSet
	for i := 0; i < b.N; i++ {
		base = ablate(b, nil)
		ablated = ablate(b, func(s *world.Scenario) { s.Behavior.MicroMoveProb = 0 })
	}
	b.ReportMetric(base.CT.Median(), "ct_median_base_s")
	b.ReportMetric(ablated.CT.Median(), "ct_median_nomicro_s")
}

// BenchmarkAblationPOIGravity flattens the POI weights to uniform: the
// dance floor stops dominating and the degree distribution thins.
func BenchmarkAblationPOIGravity(b *testing.B) {
	var base, ablated *core.ContactSet
	for i := 0; i < b.N; i++ {
		base = ablate(b, nil)
		ablated = ablate(b, func(s *world.Scenario) {
			for i := range s.Land.POIs {
				s.Land.POIs[i].Weight = 1
			}
		})
	}
	b.ReportMetric(base.CT.Median(), "ct_median_base_s")
	b.ReportMetric(ablated.CT.Median(), "ct_median_flat_s")
}

// BenchmarkAblationHeavyTailedPauses replaces the bounded-Pareto pauses
// with short uniform ones: the power-law phase of the contact-time
// distribution disappears (the X1 fit flips away from the cutoff model).
func BenchmarkAblationHeavyTailedPauses(b *testing.B) {
	var base, ablated *core.ContactSet
	for i := 0; i < b.N; i++ {
		base = ablate(b, nil)
		ablated = ablate(b, func(s *world.Scenario) {
			s.Behavior.PauseMin, s.Behavior.PauseMax, s.Behavior.PauseAlpha = 30, 90, 8
		})
	}
	baseP90 := base.CT.Quantile(0.9)
	ablP90 := ablated.CT.Quantile(0.9)
	b.ReportMetric(baseP90, "ct_p90_base_s")
	b.ReportMetric(ablP90, "ct_p90_uniformpause_s")
}
