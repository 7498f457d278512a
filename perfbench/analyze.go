package main

import (
	"context"
	"fmt"
	"time"

	"slmob"
	"slmob/internal/core"
	"slmob/internal/graph"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// Span names of the in-process analysis path: the world layer's
// EstateSource.NextTick runs inside the core layer's Consume call.
const (
	spanNextTick = "world.EstateSource.NextTick"
	spanConsume  = "core.EstateAnalyzer.Consume"
)

// analysisRun is one pass of the sharded estate analysis over a fresh
// in-process City simulation, exactly as slmob.AnalyzeEstateStream runs
// it.
type analysisRun struct {
	consume time.Duration
	// ticks and samples count what the world layer delivered.
	ticks, samples int64
	digest         string
	ws             graph.WorkspaceStats
	// consumeSpan is the Consume span's ID, 0 when untraced.
	consumeSpan int
}

// countingSource wraps the estate source to count ticks and samples and,
// when traced, to time every NextTick as a child of the Consume span.
type countingSource struct {
	es             trace.EstateSource
	rec            *recorder
	parent         int
	ticks, samples int64
}

func (s *countingSource) Regions() []trace.Info { return s.es.Regions() }

func (s *countingSource) NextTick(ctx context.Context) (trace.EstateTick, error) {
	id := s.rec.begin(spanNextTick, s.parent)
	tick, err := s.es.NextTick(ctx)
	s.rec.end(id)
	if err == nil {
		s.ticks++
		for _, snap := range tick.Regions {
			s.samples += int64(len(snap.Samples))
		}
	}
	return tick, err
}

// newPipeline builds the estate source and the sharded analyzer for
// span simulated seconds of the City estate: the set-up a user pays
// before the first tick. The caller closes the source's estate.
func newPipeline(seed uint64, span, window int64) (*world.EstateSource, *core.EstateAnalyzer, error) {
	est := slmob.CityEstate(seed)
	est.Duration = span
	src, err := slmob.NewEstateSource(est, slmob.PaperTau)
	if err != nil {
		return nil, nil, fmt.Errorf("estate source: %w", err)
	}
	metas, err := core.RegionMetasFromInfos(src.Regions())
	if err == nil {
		var ea *core.EstateAnalyzer
		if ea, err = core.NewEstateAnalyzer(est.Name, metas, slmob.PaperTau, core.Config{Window: window}, 0); err == nil {
			return src, ea, nil
		}
	}
	src.Estate().Close()
	return nil, nil, fmt.Errorf("estate analyzer: %w", err)
}

// analyze runs the City estate for span simulated seconds through the
// sharded analysis, with analysis windows of window seconds (0: whole
// trace), and returns the global analysis digest with its timings.
func analyze(ctx context.Context, seed uint64, span, window int64, rec *recorder) (analysisRun, error) {
	var run analysisRun
	src, ea, err := newPipeline(seed, span, window)
	if err != nil {
		return run, err
	}
	defer src.Estate().Close()

	cs := &countingSource{es: src, rec: rec}
	began := time.Now()
	run.consumeSpan = rec.begin(spanConsume, 0)
	cs.parent = run.consumeSpan
	an, err := ea.Consume(ctx, cs)
	rec.end(run.consumeSpan)
	run.consume = time.Since(began)
	if err != nil {
		return run, fmt.Errorf("consume: %w", err)
	}
	run.ticks, run.samples = cs.ticks, cs.samples
	run.ws = ea.WorkspaceStats()
	if run.digest, err = slmob.AnalysisDigest(an.Global); err != nil {
		return run, err
	}
	return run, nil
}

// layerTimes derives the world and core span figures of one traced
// analysis pass: total NextTick time, and Consume's self time.
func layerTimes(rec *recorder, run analysisRun) (nextTickS, coreSelfS float64) {
	if rec == nil || run.consumeSpan == 0 {
		return 0, 0
	}
	kids := rec.children(run.consumeSpan)
	for _, k := range kids {
		nextTickS += k.dur()
	}
	return nextTickS, selfTime(rec.get(run.consumeSpan), kids)
}
