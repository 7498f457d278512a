package slmob

// One benchmark per table and figure of the paper (see DESIGN.md §3 for
// the experiment index). Each benchmark re-runs the analysis that
// produces its artefact on a cached 24-hour three-land simulation and
// reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the pipeline and regenerates the paper's numbers. The first
// benchmark to run pays the one-off simulation cost (excluded from its
// timing via ResetTimer).

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"slmob/internal/core"
	"slmob/internal/dtn"
	"slmob/internal/experiment"
	"slmob/internal/sensor"
	"slmob/internal/stats"
	"slmob/internal/trace"
	"slmob/internal/world"
)

const benchSeed = 1

var (
	benchOnce sync.Once
	benchRuns []*experiment.LandRun
	benchErr  error
)

// dayRuns returns the memoised 24 h runs for the three paper lands.
func dayRuns(b *testing.B) []*experiment.LandRun {
	b.Helper()
	benchOnce.Do(func() {
		benchRuns, benchErr = experiment.CachedDayRuns(benchSeed)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRuns
}

func landTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	for _, run := range dayRuns(b) {
		if run.Trace.Land == name {
			return run.Trace
		}
	}
	b.Fatalf("no trace for %q", name)
	return nil
}

// shortName maps a land to its metric prefix.
func shortName(land string) string {
	return map[string]string{
		"Apfel Land": "apfel", "Dance Island": "dance", "Isle of View": "isle",
	}[land]
}

// benchContacts times contact extraction over all three lands at range r
// and reports per-land medians from the final timed iteration.
func benchContacts(b *testing.B, r float64, metric string, pick func(*core.ContactSet) *stats.Weighted) {
	runs := dayRuns(b)
	last := make([]*core.ContactSet, len(runs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, run := range runs {
			cs, err := core.ExtractContacts(run.Trace, r)
			if err != nil {
				b.Fatal(err)
			}
			last[j] = cs
		}
	}
	b.StopTimer()
	for j, run := range runs {
		dist := pick(last[j])
		if dist.N() == 0 {
			continue
		}
		b.ReportMetric(dist.Median(),
			shortName(run.Trace.Land)+"_"+metric+"_median_s")
	}
}

// T1 — the §3 trace summary table.
func BenchmarkTableT1_TraceSummary(b *testing.B) {
	runs := dayRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, run := range runs {
			run.Trace.Summarize()
		}
	}
	b.StopTimer()
	for _, run := range runs {
		sum := run.Trace.Summarize()
		name := shortName(run.Trace.Land)
		b.ReportMetric(float64(sum.Unique), name+"_unique")
		b.ReportMetric(sum.MeanConcurrent, name+"_concurrent")
	}
}

// Fig. 1 — temporal analysis.
func BenchmarkFig1a_ContactTimeCCDF_r10(b *testing.B) {
	benchContacts(b, core.BluetoothRange, "ct", func(c *core.ContactSet) *stats.Weighted { return c.CT })
}

func BenchmarkFig1b_InterContactCCDF_r10(b *testing.B) {
	benchContacts(b, core.BluetoothRange, "ict", func(c *core.ContactSet) *stats.Weighted { return c.ICT })
}

func BenchmarkFig1c_FirstContactCCDF_r10(b *testing.B) {
	benchContacts(b, core.BluetoothRange, "ft", func(c *core.ContactSet) *stats.Weighted { return c.FT })
}

func BenchmarkFig1d_ContactTimeCCDF_r80(b *testing.B) {
	benchContacts(b, core.WiFiRange, "ct", func(c *core.ContactSet) *stats.Weighted { return c.CT })
}

func BenchmarkFig1e_InterContactCCDF_r80(b *testing.B) {
	benchContacts(b, core.WiFiRange, "ict", func(c *core.ContactSet) *stats.Weighted { return c.ICT })
}

func BenchmarkFig1f_FirstContactCCDF_r80(b *testing.B) {
	benchContacts(b, core.WiFiRange, "ft", func(c *core.ContactSet) *stats.Weighted { return c.FT })
}

// benchNets times line-of-sight network analysis and reports a headline
// metric per land.
func benchNets(b *testing.B, r float64, metric string, report func(*core.NetMetrics) float64) {
	runs := dayRuns(b)
	last := make([]*core.NetMetrics, len(runs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, run := range runs {
			nm, err := core.LoSMetrics(run.Trace, r)
			if err != nil {
				b.Fatal(err)
			}
			last[j] = nm
		}
	}
	b.StopTimer()
	for j, run := range runs {
		b.ReportMetric(report(last[j]), shortName(run.Trace.Land)+"_"+metric)
	}
}

// Fig. 2 — line-of-sight network properties.
func BenchmarkFig2a_DegreeCCDF_r10(b *testing.B) {
	benchNets(b, core.BluetoothRange, "deg0_frac", (*core.NetMetrics).DegreeZeroFraction)
}

func BenchmarkFig2b_DiameterCDF_r10(b *testing.B) {
	benchNets(b, core.BluetoothRange, "diam_median", func(nm *core.NetMetrics) float64 {
		return nm.Diameters.Median()
	})
}

func BenchmarkFig2c_ClusteringCDF_r10(b *testing.B) {
	benchNets(b, core.BluetoothRange, "clust_median", func(nm *core.NetMetrics) float64 {
		return stats.MustEmpirical(nm.Clusterings).Median()
	})
}

func BenchmarkFig2d_DegreeCCDF_r80(b *testing.B) {
	benchNets(b, core.WiFiRange, "deg0_frac", (*core.NetMetrics).DegreeZeroFraction)
}

func BenchmarkFig2e_DiameterCDF_r80(b *testing.B) {
	benchNets(b, core.WiFiRange, "diam_median", func(nm *core.NetMetrics) float64 {
		return nm.Diameters.Median()
	})
}

func BenchmarkFig2f_ClusteringCDF_r80(b *testing.B) {
	benchNets(b, core.WiFiRange, "clust_median", func(nm *core.NetMetrics) float64 {
		return stats.MustEmpirical(nm.Clusterings).Median()
	})
}

// Fig. 3 — zone occupation (L = 20 m).
func BenchmarkFig3_ZoneOccupationCDF(b *testing.B) {
	runs := dayRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, run := range runs {
			if _, err := core.ZoneOccupation(run.Trace, 256, core.PaperZoneLength); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for _, run := range runs {
		zones, err := core.ZoneOccupation(run.Trace, 256, core.PaperZoneLength)
		if err != nil {
			b.Fatal(err)
		}
		empty := 0
		for _, z := range zones {
			if z == 0 {
				empty++
			}
		}
		name := shortName(run.Trace.Land)
		b.ReportMetric(float64(empty)/float64(len(zones)), name+"_empty_frac")
	}
}

// benchTrips times trip analysis and reports one quantile per land.
func benchTrips(b *testing.B, metric string, pick func(*core.TripStats) []float64, q float64) {
	runs := dayRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, run := range runs {
			core.Trips(run.Trace, 0.5, 0)
		}
	}
	b.StopTimer()
	for _, run := range runs {
		tp := core.Trips(run.Trace, 0.5, 0)
		name := shortName(run.Trace.Land)
		b.ReportMetric(stats.MustEmpirical(pick(tp)).Quantile(q), name+"_"+metric)
	}
}

// Fig. 4 — trip analysis.
func BenchmarkFig4a_TravelLengthCDF(b *testing.B) {
	benchTrips(b, "travel_p90_m", func(t *core.TripStats) []float64 { return t.TravelLength }, 0.9)
}

func BenchmarkFig4b_EffectiveTravelTimeCDF(b *testing.B) {
	benchTrips(b, "efftime_median_s", func(t *core.TripStats) []float64 { return t.EffectiveTravelTime }, 0.5)
}

func BenchmarkFig4c_TravelTimeCDF(b *testing.B) {
	benchTrips(b, "session_p90_s", func(t *core.TripStats) []float64 { return t.TravelTime }, 0.9)
}

// X1 — the "power law + exponential cut-off" tail claim.
func BenchmarkX1_TailFits(b *testing.B) {
	tr := landTrace(b, "Dance Island")
	cs, err := core.ExtractContacts(tr, core.BluetoothRange)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cmp stats.TailComparison
	for i := 0; i < b.N; i++ {
		cmp, err = stats.CompareTailModels(cs.CT.Values(), float64(core.PaperTau))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(cmp.Cutoff.Alpha, "cutoff_alpha")
	b.ReportMetric(cmp.Cutoff.Cutoff, "cutoff_scale_s")
	b.ReportMetric(cmp.Pareto.AIC()-cmp.Cutoff.AIC(), "aic_gain_vs_pareto")
}

// X2 — trace-driven DTN forwarding.
func BenchmarkX2_DTNReplay(b *testing.B) {
	tr := landTrace(b, "Dance Island")
	window := tr.Window(0, 2*3600)
	b.ResetTimer()
	var results []*dtn.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = dtn.CompareProtocols(window, core.BluetoothRange, 100, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, res := range results {
		b.ReportMetric(res.DeliveryRatio(), res.Protocol.String()+"_ratio")
	}
}

// X3 — POI-gravity versus synthetic mobility baselines.
func BenchmarkX3_MobilityBaselines(b *testing.B) {
	paper := landTrace(b, "Dance Island").Window(0, 2*3600)
	paperCT, err := core.ExtractContacts(paper, core.BluetoothRange)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var d map[string]float64
	for i := 0; i < b.N; i++ {
		d = make(map[string]float64)
		for _, model := range []world.Model{world.RandomWaypoint, world.LevyWalk} {
			scn := world.BaselineScenario(model, benchSeed)
			scn.Duration = 2 * 3600
			tr := collectTrace(b, scn)
			cs, err := core.ExtractContacts(tr, core.BluetoothRange)
			if err != nil {
				b.Fatal(err)
			}
			d[model.String()] = stats.KolmogorovSmirnov(paperCT.CT.Values(), cs.CT.Values()).D
		}
	}
	b.StopTimer()
	for name, v := range d {
		b.ReportMetric(v, "ks_d_vs_"+name)
	}
}

// liveHeap returns the live heap after a full GC, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// reportPipelineMetrics reports the streaming-vs-batch comparison
// headline numbers: analysis+simulation cost per snapshot and the heap
// retained by the pipeline at its end (the batch path retains the whole
// trace, the streaming path only the Analysis).
func reportPipelineMetrics(b *testing.B, snapshots int64, baseHeap, endHeap uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*snapshots), "ns/snapshot")
	retained := float64(0)
	if endHeap > baseHeap {
		retained = float64(endHeap-baseHeap) / (1 << 20)
	}
	b.ReportMetric(retained, "retained_MB")
}

// P1 — the batch pipeline on a 24 h Apfel Land measurement: materialise
// the full trace, then re-walk it once per metric. Memory is
// O(snapshots × avatars).
func BenchmarkPipelineBatch24hApfel(b *testing.B) {
	scn := world.ApfelLand(benchSeed)
	base := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	var end uint64
	for i := 0; i < b.N; i++ {
		tr := collectTrace(b, scn)
		an, err := core.Analyze(tr, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		end = liveHeap() // trace + analysis both still live here
		runtime.KeepAlive(tr)
		runtime.KeepAlive(an)
		b.StartTimer()
	}
	b.StopTimer()
	reportPipelineMetrics(b, scn.Duration/core.PaperTau, base, end)
}

// P2 — the streaming pipeline on the same measurement: snapshots flow
// from the simulation straight into the incremental analyzer and are
// dropped immediately. Pipeline state is O(avatars + contact pairs);
// only the Analysis itself is retained.
func BenchmarkPipelineStreaming24hApfel(b *testing.B) {
	scn := world.ApfelLand(benchSeed)
	base := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	var end uint64
	for i := 0; i < b.N; i++ {
		src, err := world.NewSource(scn, core.PaperTau)
		if err != nil {
			b.Fatal(err)
		}
		analyzer, err := core.NewAnalyzer(scn.Land.Name, core.PaperTau, core.Config{LandSize: scn.Land.Size})
		if err != nil {
			b.Fatal(err)
		}
		an, err := analyzer.Consume(context.Background(), src)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		end = liveHeap() // only the analysis is still live
		runtime.KeepAlive(an)
		b.StartTimer()
	}
	b.StopTimer()
	reportPipelineMetrics(b, scn.Duration/core.PaperTau, base, end)
}

// Estate fixture for P3: one simulated hour of the 4×4 mainland preset,
// materialised once per process so both worker configurations replay the
// identical stream.
var (
	estateOnce   sync.Once
	estateInfos  []trace.Info
	estateTraces []*trace.Trace
	estateErr    error
)

func estateHourTraces(b *testing.B) ([]trace.Info, []*trace.Trace) {
	b.Helper()
	estateOnce.Do(func() {
		est := world.MainlandEstate(benchSeed)
		est.Duration = 3600
		src, err := world.NewEstateSource(est, core.PaperTau)
		if err != nil {
			estateErr = err
			return
		}
		estateInfos = src.Regions()
		estateTraces, estateErr = trace.CollectEstate(context.Background(), src)
	})
	if estateErr != nil {
		b.Fatal(estateErr)
	}
	return estateInfos, estateTraces
}

// benchEstateAnalysis times the sharded analysis of the mainland hour at
// a given region-worker count. Simulation cost is excluded: the
// benchmark isolates exactly the work WithRegionWorkers parallelises.
func benchEstateAnalysis(b *testing.B, workers int) {
	infos, trs := estateHourTraces(b)
	metas, err := core.RegionMetasFromInfos(infos)
	if err != nil {
		b.Fatal(err)
	}
	var last *core.EstateAnalysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay, err := trace.NewEstateReplay(infos, trs)
		if err != nil {
			b.Fatal(err)
		}
		ea, err := core.NewEstateAnalyzer("Mainland", metas, core.PaperTau, core.Config{}, workers)
		if err != nil {
			b.Fatal(err)
		}
		last, err = ea.Consume(context.Background(), replay)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Global.Summary.Unique), "unique")
	b.ReportMetric(float64(last.Global.Contacts[core.BluetoothRange].Pairs), "global_pairs_r10")
}

// P3 — sharded estate analysis, sequential baseline: one region at a
// time (WithRegionWorkers(1)).
func BenchmarkP3EstateAnalysisSequential(b *testing.B) {
	benchEstateAnalysis(b, 1)
}

// P3 — sharded estate analysis, parallel: per-region analyzers fan out
// over four workers (the WithRegionWorkers(N) path). The reported
// results are identical to the sequential run — the worker count is
// pure wall-clock leverage, realised on multi-core hardware.
func BenchmarkP3EstateAnalysisParallel(b *testing.B) {
	benchEstateAnalysis(b, 4)
}

// X4 — sensor architecture versus crawler coverage.
func BenchmarkX4_SensorVsCrawler(b *testing.B) {
	scn := world.ApfelLand(benchSeed)
	scn.Duration = 2 * 3600
	truth := collectTrace(b, scn)
	b.ResetTimer()
	var sensorTrace *trace.Trace
	var st sensor.Stats
	for i := 0; i < b.N; i++ {
		sim, err := world.NewSim(scn)
		if err != nil {
			b.Fatal(err)
		}
		collector := sensor.NewCollector()
		engine := sensor.NewEngine(scn.Land)
		engine.SetPostHook(func(p sensor.FlushPayload) error {
			collector.Ingest(p)
			return nil
		})
		for _, spec := range sensor.GridSpecs(scn.Land, 4, sensor.MaxRange, core.PaperTau, "hook", true) {
			if _, err := engine.Deploy(0, spec); err != nil {
				b.Fatal(err)
			}
		}
		for sim.Time() < scn.Duration {
			sim.Step()
			engine.Step(sim.Time(), sim)
		}
		sensorTrace, err = trace.Collect(context.Background(), collector.Source(scn.Land.Name, core.PaperTau), "", 0)
		if err != nil {
			b.Fatal(err)
		}
		st = engine.Stats()
	}
	b.StopTimer()
	b.ReportMetric(float64(sensorTrace.UniqueUsers())/float64(truth.UniqueUsers()), "user_coverage")
	b.ReportMetric(float64(st.Expired), "object_expiries")
	b.ReportMetric(float64(st.DroppedReadings), "dropped_readings")
}
