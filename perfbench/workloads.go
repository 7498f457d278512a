package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"slmob"
)

// batch-city settings: each repetition simulates and analyses batchSpan
// seconds of the City estate; one warmSpan pass (a short repetition in
// the served workloads) first lets the heap and caches reach their
// working size.
const (
	batchSpan = 3600
	warmSpan  = 600
	// pinnedSeed's global analysis digest over batchSpan is pinned, so a
	// change that alters what the analysis computes fails the run.
	pinnedSeed   = 1
	pinnedDigest = "ba75c0289e1fe6a91fcbf83d80737812a003ab3a86b16ca87758d4206f99273a"
)

// repeat runs rep until the run's budget is spent: a repetition starts
// only while the elapsed time plus the previous repetition's length
// fits the budget with a tenth to spare (so fixed-length repetitions
// that divide the budget all run), and at least one always runs.
// Before each repetition it times setupsPerRep set-ups with setup and
// returns all their times.
func (b *bench) repeat(setup setupFunc, rep func(i int) error) ([]float64, error) {
	start := time.Now()
	var last time.Duration
	var setups []float64
	for i := 0; i == 0 || time.Since(start)+last <= b.budget()*11/10; i++ {
		runtime.GC()
		s, err := setupSamples(setup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		runtime.GC()
		b.heap.reset()
		began := time.Now()
		if err := rep(i); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		last = time.Since(began)
		b.rep.Reps++
		if b.rec != nil && i%2 == 0 {
			b.rep.TracedReps++
		}
	}
	return setups, nil
}

// rates accumulates simulated and wall seconds per repetition, split by
// whether the repetition was traced. sim_s_per_s is the untraced total
// simulated time over the untraced total wall time: every repetition
// weighs by its length, which on a host whose speed drifts from one
// repetition to the next repeats better across runs than the median
// repetition does.
type rates struct {
	all                      []float64 // each repetition's rate, for the report
	sim, wall, tsim, twall   float64
	untracedReps, tracedReps int
}

func (rs *rates) add(traced bool, sim float64, wall time.Duration) {
	rs.all = append(rs.all, sim/wall.Seconds())
	if traced {
		rs.tsim += sim
		rs.twall += wall.Seconds()
		rs.tracedReps++
	} else {
		rs.sim += sim
		rs.wall += wall.Seconds()
		rs.untracedReps++
	}
}

// setRates records sim_s_per_s and, in a traced run, the tracing
// overhead as traced over untraced rate.
func (b *bench) setRates(rs rates) {
	b.rep.RepRates = rs.all
	untraced := 0.0
	if rs.wall > 0 {
		untraced = rs.sim / rs.wall
	}
	b.rep.setN("sim_s_per_s", untraced, rs.untracedReps)
	if b.rec != nil {
		ratio := 0.0
		if untraced > 0 && rs.twall > 0 {
			ratio = rs.tsim / rs.twall / untraced
		}
		b.rep.setN("trace.sim_s_per_s_ratio", ratio, rs.tracedReps)
	}
}

// setSetupAndHeap records setup_s, the median set-up, and peak_heap_mb,
// the highest heap in use any measured repetition reached: a single
// repetition's peak depends on where its end falls in the collector's
// cycle, the run's peak much less.
func (b *bench) setSetupAndHeap(setups, heaps []float64) {
	b.rep.SetupS, b.rep.RepHeapsMB = setups, heaps
	b.rep.setN("setup_s", median(setups), len(setups))
	b.rep.setN("peak_heap_mb", slices.Max(heaps), len(heaps))
}

// absent zeroes the per-layer metrics of layers the workload does not
// measure, so every traced run prints the full set, and notes why.
func (r *report) absent(why string, prefixes ...string) {
	r.Notes = append(r.Notes, fmt.Sprintf("%s report 0: %s", strings.Join(prefixes, "*, ")+"*", why))
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}

// setAnalysisLayers records the world, core and graph figures of the
// traced analysis passes.
func (b *bench) setAnalysisLayers(runs []analysisRun) {
	r := b.rep
	var nextTick, self, samples, perSec []float64
	for _, run := range runs {
		nt, s := layerTimes(b.rec, run)
		nextTick = append(nextTick, nt)
		self = append(self, s)
		samples = append(samples, float64(run.samples))
		if s > 0 {
			perSec = append(perSec, float64(run.samples)/s)
		}
	}
	r.setN("world.next_tick_s", median(nextTick), len(nextTick))
	tickMs := durationsMs(b.rec.named(spanNextTick))
	r.setPct("world.next_tick_ms_p50", tickMs, 50)
	r.setPct("world.next_tick_ms_p99", tickMs, 99)
	r.setN("world.samples", median(samples), len(samples))
	r.setN("core.self_s", median(self), len(self))
	r.setN("core.samples_per_s", median(perSec), len(perSec))
	if len(runs) > 0 {
		ws := runs[len(runs)-1].ws
		r.set("graph.incremental_frac", frac(ws.Incremental, ws.Snapshots))
		r.set("graph.full_rebuilds", float64(ws.FullRebuilds))
	}
}

func frac[T int64 | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runBatch is batch-city: slmob's paper-reproduction path, an
// in-process City simulation streamed into the sharded analysis with no
// sockets. The core layer does most of the work; server and slp none.
func runBatch(ctx context.Context, b *bench) error {
	r := b.rep
	r.Goroutines = 1
	span := b.cfg.batchSpan
	if _, err := analyze(ctx, b.cfg.seed, b.cfg.warmSpan, 0, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	setup := func() (time.Duration, bool, error) {
		began := time.Now()
		src, _, err := newPipeline(b.cfg.seed, span, 0)
		if err != nil {
			return 0, false, err
		}
		d := time.Since(began)
		src.Estate().Close()
		return d, true, nil
	}
	var (
		rs     rates
		heaps  []float64
		traced []analysisRun
		digest string
		stable = true
	)
	wantTicks := span / slmob.PaperTau
	short := int64(0)
	setups, err := b.repeat(setup, func(i int) error {
		rec := b.recFor(i)
		run, err := analyze(ctx, b.cfg.seed, span, 0, rec)
		if err != nil {
			return err
		}
		heaps = append(heaps, b.heap.mb())
		rs.add(rec != nil, float64(span), run.consume)
		r.op("tick", wantTicks, max(0, wantTicks-run.ticks))
		short += max(0, wantTicks-run.ticks)
		if digest == "" {
			digest = run.digest
		}
		stable = stable && run.digest == digest
		if rec != nil {
			traced = append(traced, run)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.check("ticks", short == 0, "%d ticks of %d s each per repetition, %d missing", wantTicks, slmob.PaperTau, short)
	r.check("digest-stable", stable, "global analysis digest %s in every repetition", digest)
	if b.cfg.seed == pinnedSeed && span == batchSpan {
		r.check("digest-pinned", digest == pinnedDigest, "seed %d digest %s, pinned %s", pinnedSeed, digest, pinnedDigest)
	}
	b.setRates(rs)
	b.setSetupAndHeap(setups, heaps)
	if b.rec != nil {
		b.setAnalysisLayers(traced)
		r.absent("no sockets on this path", "server.", "slp.", "query_ms", "push_")
	}
	return nil
}

// setupsPerRep is how many set-ups a run times, back to back, before
// each repetition. Set-up takes milliseconds, so its median needs many
// samples to repeat across runs; spread over the whole run rather than
// taken in one burst, they do not all fall in one moment of a host
// whose speed drifts.
const setupsPerRep = 10

// setupFunc times one set-up. A trial that reports ok false (a client
// failed to connect, which the report counts) gives no sample.
type setupFunc func() (d time.Duration, ok bool, err error)

// setupSamples times setupsPerRep set-ups with setup.
func setupSamples(setup setupFunc) ([]float64, error) {
	var out []float64
	for i := 0; i < setupsPerRep; i++ {
		d, ok, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up trial %d: %w", i+1, err)
		}
		if ok {
			out = append(out, d.Seconds())
		}
	}
	return out, nil
}

// servedSetup is one served set-up trial of spec.
func (b *bench) servedSetup(ctx context.Context, spec servedSpec) setupFunc {
	spec.setupOnly = true
	return func() (time.Duration, bool, error) {
		sr, err := serveRep(ctx, b, spec, nil)
		if err != nil {
			return 0, false, err
		}
		return sr.setup, sr.clientsUp, nil
	}
}

// servedFigures gathers the figures common to both served workloads.
type servedFigures struct {
	rs                   rates
	setups, heaps        []float64
	queryMs, genLateMs   []float64
	tracedRuns           []*servedRun
	pushes, pushBytes    uint64
	queriesTried, failed int64
}

// add folds one repetition in; it simulated sim seconds. An unrated
// repetition (one whose end was never seen) adds no rate.
func (f *servedFigures) add(b *bench, sr *servedRun, traced, rated bool, sim float64) {
	if rated {
		f.rs.add(traced, sim, sr.wall())
	}
	f.heaps = append(f.heaps, b.heap.mb())
	for _, p := range sr.polls {
		f.queriesTried++
		if p.failed {
			f.failed++
			continue
		}
		f.queryMs = append(f.queryMs, ms(p.done.Sub(p.due)))
		f.genLateMs = append(f.genLateMs, ms(p.sent.Sub(p.due)))
	}
	f.pushes += sr.pushesRead
	f.pushBytes += sr.pushBytes
	if traced {
		f.tracedRuns = append(f.tracedRuns, sr)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// set records the served end-to-end, client and per-layer figures.
func (f *servedFigures) set(b *bench) {
	r := b.rep
	b.setRates(f.rs)
	b.setSetupAndHeap(f.setups, f.heaps)
	r.op("query", f.queriesTried, f.failed)
	r.setPct("query_ms_p50", f.queryMs, 50)
	r.setPct("query_ms_p95", f.queryMs, 95)
	r.set("push_bytes_per_push", frac(f.pushBytes, f.pushes))
	r.extra("generator_late_ms_p50", "ms", percentile(f.genLateMs, 50), len(f.genLateMs))
	r.extra("generator_late_ms_p95", "ms", percentile(f.genLateMs, 95), len(f.genLateMs))
	r.extra("generator_late_ms_max", "ms", percentile(f.genLateMs, 100), len(f.genLateMs))
	if b.rec == nil {
		return
	}
	var busy, maxMs, intervals, over, queries, dropped, incr, rebuilds, pushes, bytes, deltas []float64
	var lags []float64
	for _, sr := range f.tracedRuns {
		busy = append(busy, sr.ticks.Total.Seconds())
		maxMs = append(maxMs, ms(sr.ticks.Max))
		intervals = append(intervals, float64(sr.ticks.Intervals))
		over = append(over, float64(sr.ticks.OverBudget))
		queries = append(queries, float64(sr.stats.Queries))
		dropped = append(dropped, float64(sr.stats.Dropped))
		incr = append(incr, frac(sr.stats.WsIncremental, sr.stats.WsSnapshots))
		rebuilds = append(rebuilds, float64(sr.stats.WsRebuilds))
		pushes = append(pushes, float64(sr.pushesRead))
		bytes = append(bytes, float64(sr.pushBytes))
		deltas = append(deltas, float64(sr.deltas))
		lags = append(lags, sr.lags...)
	}
	n := len(f.tracedRuns)
	r.setN("server.tick_busy_s", median(busy), n)
	r.setN("server.tick_max_ms", median(maxMs), n)
	r.setN("server.tick_intervals", median(intervals), n)
	r.setN("server.tick_over_budget", median(over), n)
	r.setPct("server.analytics_lag_sim_s_p50", lags, 50)
	r.setPct("server.analytics_lag_sim_s_p95", lags, 95)
	r.setN("server.queries", median(queries), n)
	r.setN("server.readers_dropped", median(dropped), n)
	r.set("graph.incremental_frac", median(incr))
	r.set("graph.full_rebuilds", median(rebuilds))
	r.setN("slp.pushes", median(pushes), n)
	r.setN("slp.push_bytes", median(bytes), n)
	r.setN("slp.deltas_applied", median(deltas), n)
	for k, name := range queryMetric {
		d := durationsMs(b.rec.named(querySpan[k]))
		r.setPct(name+"_p50", d, 50)
		r.setPct(name+"_p95", d, 95)
	}
}

// runServedMax is served-city-max: the City estate served with live
// analytics, the clock held until one full-resolution observer and one
// query reader are connected, then released at a warp no machine
// reaches, so the service runs flat out through maxSpan. The rate is
// the span over the wall time from clock release to the sealed final
// analysis, which the reader observes: serving capacity, limited by the
// analytics feed.
func runServedMax(ctx context.Context, b *bench) error {
	r := b.rep
	r.ClientConns, r.Goroutines = 2, 3
	span := b.cfg.maxSpan
	spec := servedSpec{span: span}
	if _, err := serveRep(ctx, b, servedSpec{span: b.cfg.warmSpan}, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var f servedFigures
	var err error
	var digests []string
	var clockRates []float64
	want := span / slmob.PaperTau
	var missing int64
	var seriesErr error
	f.setups, err = b.repeat(b.servedSetup(ctx, spec), func(i int) error {
		rec := b.recFor(i)
		sr, err := serveRep(ctx, b, spec, rec)
		if err != nil {
			return err
		}
		f.add(b, sr, rec != nil, sr.sealed, float64(span))
		r.op("seal", 1, btoi(!sr.sealed))
		clockRates = append(clockRates, float64(span)/sr.clockDone.Sub(sr.released).Seconds())
		digests = append(digests, sr.finalDigest)
		ts := pushTimes(sr.pushes)
		m, err := checkSeries(ts, slmob.PaperTau, slmob.PaperTau, span)
		missing += m
		if err != nil && seriesErr == nil {
			seriesErr = fmt.Errorf("repetition %d: %w", i+1, err)
		}
		if int64(sr.pushesRead) != want {
			seriesErr = fmt.Errorf("repetition %d: %d pushes on the wire, want %d", i+1, sr.pushesRead, want)
		}
		r.op("push", want, m)
		return nil
	})
	if err != nil {
		return err
	}
	// The offline reference: the same estate, seed, span and window
	// through the in-process analysis, untraced.
	off, err := analyze(ctx, b.cfg.seed, span, window, nil)
	if err != nil {
		return fmt.Errorf("offline reference: %w", err)
	}
	same := true
	for _, d := range digests {
		same = same && d == off.digest
	}
	r.check("live-offline-digest", same, "offline %s, live %v", off.digest, digests)
	r.check("push-series", seriesErr == nil, "%d pushes per repetition at t=%d..%d, %d missing: %v",
		want, slmob.PaperTau, span, missing, seriesErr)
	r.extra("clock_sim_s_per_s", "s/s", median(clockRates), len(clockRates))
	if b.rec != nil {
		// Graph figures come from the server's own counters, set next.
		r.absent("the service steps the world and feeds its analytics itself; nothing calls NextTick or Consume here", "world.", "core.")
		r.absent("the clock runs flat out, so no push has a wall-clock due time", "push_late")
	}
	f.set(b)
	return nil
}

// runServedPaced is served-city-paced: the same service and analytics
// at warp 300 with a 1 ms tick, driven through pacedSpan simulated
// seconds per repetition by one AOI-delta avatar and one query reader,
// each on its own schedule whatever the service does. The rate is
// the clock's pace (its target is the warp); push lateness is each
// push's arrival against the wall time the warp says it was due.
func runServedPaced(ctx context.Context, b *bench) error {
	r := b.rep
	r.ClientConns, r.Goroutines = 2, 3
	spec := servedSpec{paced: true, span: b.cfg.pacedSpan}
	var f servedFigures
	var err error
	var missing int64
	var seriesErr error
	var lateMs []float64
	f.setups, err = b.repeat(b.servedSetup(ctx, spec), func(i int) error {
		rec := b.recFor(i)
		sr, err := serveRep(ctx, b, spec, rec)
		if err != nil {
			return err
		}
		f.add(b, sr, rec != nil, true, float64(spec.span-sr.t0))
		from := (sr.t0/slmob.PaperTau + 1) * slmob.PaperTau
		m, err := checkSeries(pushTimes(sr.pushes), slmob.PaperTau, from, spec.span)
		missing += m
		if err != nil && seriesErr == nil {
			seriesErr = fmt.Errorf("repetition %d: %w", i+1, err)
		}
		r.op("push", (spec.span-from)/slmob.PaperTau+1, m)
		lateMs = append(lateMs, lateness(sr.pushes, sr.released, sr.t0, pacedWarp)...)
		return nil
	})
	if err != nil {
		return err
	}
	r.check("push-series", seriesErr == nil, "AOI pushes τ-aligned, increasing and gap-free, %d missing: %v", missing, seriesErr)
	r.setPct("push_late_ms_p50", lateMs, 50)
	r.setPct("push_late_ms_p95", lateMs, 95)
	f.set(b)
	if b.rec != nil {
		r.absent("the service steps the world and feeds its analytics itself; nothing calls NextTick or Consume here", "world.", "core.")
	}
	return nil
}
