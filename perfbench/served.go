package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"slmob"
	"slmob/internal/core"
	"slmob/internal/server"
	"slmob/internal/slp"
)

// Served-workload settings. Both serve the City estate with live
// analytics over 600 s windows, ticking every millisecond (slload's
// default tick and the ROADMAP's per-tick budget).
const (
	window    = 600
	tickEvery = time.Millisecond
	// pollEvery is the query reader's period, slload's default reader
	// period (internal/load Config.PollEvery).
	pollEvery   = 50 * time.Millisecond
	dialTimeout = 10 * time.Second
	// sealTimeout bounds the wait for the final sealed analysis and the
	// last pushes once the clock has stopped.
	sealTimeout = 60 * time.Second

	// maxSpan is served-city-max's simulated span per repetition, and
	// maxWarp a clock rate no 2-core machine reaches: every 1 ms tick
	// asks for 100 simulated seconds, so the server steps flat out and
	// the analytics feed is what holds it back.
	maxSpan = 3600
	maxWarp = 100000

	// pacedWarp and pacedSpan set served-city-paced: a clock that is
	// meant to keep up, run through a fixed simulated span per
	// repetition, two analysis windows (about 5 s of wall time at the
	// 0.7–0.8 of the warp a 2-core machine holds). Ending on a fixed
	// span rather than a fixed wall time gives every repetition the
	// same simulated work, so the peak heap does not follow how far a
	// faster or slower clock got.
	pacedWarp = 300
	pacedSpan = 2 * window
	aoiRadius = 96
)

// Query kinds in the reader's rotation, in slload's order.
const (
	queryCumulative = iota
	queryStats
	queryWindow
	queryKinds
)

// querySpan names each kind's span; queryMetric is the prefix of its
// per-layer latency metrics.
var (
	querySpan = [queryKinds]string{
		"slp.QueryClient.Cumulative",
		"slp.QueryClient.Stats",
		"slp.QueryClient.WindowAt",
	}
	queryMetric = [queryKinds]string{
		"slp.query_cumulative_ms",
		"slp.query_stats_ms",
		"slp.query_window_ms",
	}
)

// push is one map push as the client received it.
type push struct {
	t  int64
	at time.Time
}

// poll is one scheduled query.
type poll struct {
	kind            int
	due, sent, done time.Time
	failed          bool
}

// servedRun is one repetition against a freshly served City estate.
type servedRun struct {
	setup time.Duration
	// clientsUp reports that every dial and subscribe of the set-up
	// succeeded.
	clientsUp bool
	released  time.Time // clock release
	t0        int64     // sim time at release
	clockDone time.Time // the clock reached the end of its span
	ended     time.Time // paced: clockDone; max: sealed analysis seen
	sealed    bool      // max: the reader saw the sealed analysis in time

	pushes                        []push
	pushesRead, pushBytes, deltas uint64
	polls                         []poll
	lags                          []float64 // analytics lag samples, sim seconds
	ticks                         server.TickStats
	stats                         slp.StatsReply
	finalDigest                   string
}

func (sr *servedRun) wall() time.Duration { return sr.ended.Sub(sr.released) }

// servedSpec selects the workload a repetition runs.
type servedSpec struct {
	paced bool
	span  int64 // simulated span
	// setupOnly stops the repetition once the clients are connected:
	// a set-up time sample.
	setupOnly bool
}

// reader is the query reader's connection. A query that fails drops the
// connection and the next query dials again, so one failure costs one
// query, not the rest of the repetition. It counts its dials.
type reader struct {
	addr               string
	qc                 *slp.QueryClient
	dials, dialsFailed int64
}

// client returns the open connection, dialling one if there is none.
func (q *reader) client() (*slp.QueryClient, error) {
	if q.qc == nil {
		qc, err := slp.DialQuery(q.addr, dialTimeout)
		q.dials++
		if err != nil {
			q.dialsFailed++
			return nil, err
		}
		q.qc = qc
	}
	return q.qc, nil
}

// drop closes the connection after a failed query.
func (q *reader) drop() {
	if q.qc != nil {
		q.qc.Close()
		q.qc = nil
	}
}

// connectPush dials the push client and subscribes it: a full-resolution
// observer on region 0, or for the paced workload an AOI-delta avatar in
// region 1. A failed dial returns a nil client; a failed subscribe
// returns the client, which then receives nothing. Either counts in the
// report and leaves the repetition to run without its pushes.
func connectPush(r *report, svc *slmob.EstateService, paced bool) (*slp.Client, bool) {
	var pc *slp.Client
	var err error
	if paced {
		pc, err = slp.Dial(svc.RegionAddr(1), "perfbench-aoi", "", dialTimeout)
	} else {
		pc, err = slp.DialObserver(svc.RegionAddr(0), "perfbench-observer", "", dialTimeout)
	}
	r.op("dial", 1, btoi(err != nil))
	if err != nil {
		r.Notes = append(r.Notes, "push client dial: "+err.Error())
		return nil, false
	}
	if paced {
		err = pc.SubscribeAOI(slmob.PaperTau, true, aoiRadius, true)
	} else {
		err = pc.Subscribe(slmob.PaperTau, true)
	}
	if err == nil {
		// The session handles frames in order: the pong proves the
		// subscription is in place before the clock starts.
		_, err = pc.Ping(dialTimeout)
	}
	r.op("subscribe", 1, btoi(err != nil))
	if err != nil {
		r.Notes = append(r.Notes, "push client subscribe: "+err.Error())
	}
	return pc, err == nil
}

// serveRep serves the City estate, connects the push client and the
// query reader, releases the clock and drives one repetition. Only a
// service that cannot be served or stopped is an error: a failed dial,
// subscribe or query counts in the report, and the repetition goes on
// without it, so its checks show what it cost.
func serveRep(ctx context.Context, b *bench, spec servedSpec, rec *recorder) (*servedRun, error) {
	r := b.rep
	sr := &servedRun{}
	est := slmob.CityEstate(b.cfg.seed)
	est.Duration = spec.span
	warp := float64(maxWarp)
	if spec.paced {
		warp = pacedWarp
	}

	began := time.Now()
	svc, err := slmob.ServeEstate(ctx, est,
		slmob.WithQueryAddr("127.0.0.1:0"), slmob.WithWindow(window),
		slmob.WithHeldClock(), slmob.WithWarp(warp), slmob.WithTickEvery(tickEvery))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.Stop()
		}
	}()

	pc, pushUp := connectPush(r, svc, spec.paced)
	if pc != nil {
		defer pc.Close()
	}
	q := &reader{addr: svc.QueryAddr()}
	defer q.drop()
	_, err = q.client()
	sr.setup = time.Since(began)
	sr.clientsUp = pushUp && err == nil
	if spec.setupOnly {
		r.op("dial", q.dials, q.dialsFailed)
		stopped = true
		return sr, svc.Stop()
	}

	stop := make(chan struct{})
	consumerDone, readerDone := make(chan struct{}), make(chan struct{})
	if pc != nil {
		go func() {
			defer close(consumerDone)
			sr.pushes = consumePushes(pc, stop)
		}()
	} else {
		close(consumerDone)
	}
	sealedAt := make(chan time.Time, 1)
	sr.t0 = svc.StartClock()
	sr.released = time.Now()
	go func() {
		defer close(readerDone)
		sr.polls, sr.lags = pollLoop(q, svc.SimTime, sr.released, stop, sealedAt, rec)
	}()

	var runErr error
	select {
	case <-svc.Done():
		sr.clockDone = time.Now()
	case <-ctx.Done():
		runErr = ctx.Err()
	}
	if runErr == nil && spec.paced {
		sr.ended = sr.clockDone
	} else if runErr == nil {
		// A reader that never sees the sealed analysis leaves the
		// repetition unsealed: its rate is not measured and its digest
		// check fails.
		select {
		case sr.ended = <-sealedAt:
			sr.sealed = true
		case <-time.After(sealTimeout):
		case <-ctx.Done():
			runErr = ctx.Err()
		}
	}
	if runErr == nil {
		// The server closes the push client's session at the end of its
		// span; the consumer returns once every push is drained. A
		// session left open shows as missing pushes.
		select {
		case <-consumerDone:
		case <-time.After(sealTimeout):
		}
	}
	close(stop)
	<-consumerDone
	<-readerDone
	if runErr != nil {
		return nil, runErr
	}

	if pc != nil {
		sr.pushesRead, sr.pushBytes, sr.deltas = pc.PushesRead(), pc.PushBytesRead(), pc.DeltasApplied()
	}
	// The final queries: the sealed analysis's digest (max) and the
	// service's counters. They count as queries but are not timed.
	var queries, queriesFailed int64
	if !spec.paced {
		queries++
		var res *slp.AnalysisResult
		qc, err := q.client()
		if err == nil {
			res, err = qc.Cumulative(-1)
		}
		if err != nil {
			queriesFailed++
			q.drop()
			r.Notes = append(r.Notes, "final cumulative query: "+err.Error())
		} else if res.Blob != nil && res.Sealed {
			sr.finalDigest = core.BlobDigest(res.Blob)
		}
	}
	queries++
	qc, err := q.client()
	if err == nil {
		sr.stats, err = qc.Stats()
	}
	if err != nil {
		queriesFailed++
		r.Notes = append(r.Notes, "final stats query: "+err.Error())
	}
	r.op("query", queries, queriesFailed)
	r.op("dial", q.dials, q.dialsFailed)
	sr.ticks = svc.TickStats()
	stopped = true
	if err := svc.Stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	return sr, nil
}

// consumePushes drains the push client's snapshots until stop closes or
// the server ends the session, recording each push's sim time and
// arrival.
func consumePushes(c *slp.Client, stop <-chan struct{}) []push {
	var out []push
	for {
		var t int64
		select {
		case <-stop:
			return out
		case m, ok := <-c.FullMaps():
			if !ok {
				return out
			}
			t = m.SimTime
		case m, ok := <-c.Maps():
			if !ok {
				return out
			}
			t = m.SimTime
		}
		out = append(out, push{t: t, at: time.Now()})
	}
}

// pollLoop is the open-loop query reader. Query i is due at
// start + i·pollEvery whatever happened to query i−1, and is timed from
// that due time, so a stalled reply charges its wait to every query
// queued behind it. It rotates Cumulative, Stats and WindowAt, as
// slload's readers do; each reply also samples the analytics lag, the
// clock simTime minus the end of the last sealed window. A failed query
// (or a failed redial) counts and the schedule goes on. The first reply
// reporting a sealed analysis is sent on sealed.
func pollLoop(q *reader, simTime func() int64, start time.Time,
	stop <-chan struct{}, sealed chan<- time.Time, rec *recorder) ([]poll, []float64) {
	var polls []poll
	var lags []float64
	announced := false
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * pollEvery)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-stop:
				t.Stop()
				return polls, lags
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return polls, lags
			default:
			}
		}
		p := poll{kind: i % queryKinds, due: due, sent: time.Now()}
		var isSealed bool
		var sealedWindows int64 // end of the last sealed window, in windows
		qc, err := q.client()
		if err == nil {
			id := rec.begin(querySpan[p.kind], 0)
			switch p.kind {
			case queryCumulative, queryWindow:
				var res *slp.AnalysisResult
				if p.kind == queryCumulative {
					res, err = qc.Cumulative(-1)
				} else {
					res, err = qc.WindowAt(-1, -1)
				}
				if err == nil {
					isSealed, sealedWindows = res.Sealed, res.FirstWindow+res.Windows
				}
			case queryStats:
				var st slp.StatsReply
				if st, err = qc.Stats(); err == nil {
					isSealed, sealedWindows = st.Sealed, st.FirstWindow+st.Windows
				}
			}
			rec.end(id)
		}
		if err == nil {
			lags = append(lags, float64(simTime()-sealedWindows*window))
		} else {
			q.drop()
		}
		p.done = time.Now()
		p.failed = err != nil
		polls = append(polls, p)
		if isSealed && !announced {
			announced = true
			sealed <- p.done
		}
	}
}

// checkSeries reports whether the push sim times ts are exactly
// from, from+τ, …, to: τ-aligned, strictly increasing and gap-free.
// missing counts the expected pushes that never arrived.
func checkSeries(ts []int64, tau, from, to int64) (missing int64, err error) {
	if from%tau != 0 || to%tau != 0 || to < from {
		return 0, fmt.Errorf("bad expected range [%d, %d] for τ=%d", from, to, tau)
	}
	want := (to-from)/tau + 1
	seen := int64(0)
	next := from
	for i, t := range ts {
		switch {
		case t%tau != 0:
			err = errors.Join(err, fmt.Errorf("push %d at t=%d is not τ-aligned", i, t))
		case i > 0 && t <= ts[i-1]:
			err = errors.Join(err, fmt.Errorf("push %d at t=%d does not follow t=%d", i, t, ts[i-1]))
			continue
		case t != next:
			err = errors.Join(err, fmt.Errorf("push %d at t=%d, want t=%d", i, t, next))
		}
		if t >= from && t <= to {
			seen++
		}
		next = t + tau
	}
	missing = want - seen
	if missing > 0 {
		err = errors.Join(err, fmt.Errorf("%d of %d pushes missing", missing, want))
	}
	return missing, err
}

func pushTimes(ps []push) []int64 {
	ts := make([]int64, len(ps))
	for i, p := range ps {
		ts[i] = p.t
	}
	return ts
}

// lateness returns each push's arrival minus its due time: the push for
// sim time T is due at release + (T−t0)/warp on the wall clock.
func lateness(ps []push, released time.Time, t0 int64, warp float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		due := released.Add(time.Duration(float64(p.t-t0) / warp * float64(time.Second)))
		out[i] = float64(p.at.Sub(due)) / float64(time.Millisecond)
	}
	return out
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
