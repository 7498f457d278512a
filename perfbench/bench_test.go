package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"slmob"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{200, 95, true},  // rank 190, 10 beyond
		{199, 95, false}, // rank 190, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{0, 50, false},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 = %g, want 95", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 10}
	for _, tc := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"none", nil, 10},
		{"disjoint", []span{{Start: 1, End: 2}, {Start: 4, End: 6}}, 7},
		// Region workers running at once: [1,4] and [2,6] cover [1,6].
		{"overlapping", []span{{Start: 1, End: 4}, {Start: 2, End: 6}}, 5},
		{"nested", []span{{Start: 1, End: 9}, {Start: 2, End: 3}}, 2},
		// A child outliving its parent counts only inside the parent.
		{"clipped", []span{{Start: -2, End: 1}, {Start: 8, End: 12}}, 7},
		{"whole", []span{{Start: 0, End: 10}, {Start: 0, End: 10}}, 0},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: self time %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestRecorderParentsAndRuns(t *testing.T) {
	r := newRecorder()
	r.setRun(3)
	p := r.begin("parent", 0)
	c := r.begin("child", p)
	r.end(c)
	r.end(p)
	open := r.begin("open", 0) // never ended: excluded from queries
	_ = open
	kids := r.children(p)
	if len(kids) != 1 || kids[0].Name != "child" || kids[0].Run != 3 {
		t.Fatalf("children(%d) = %+v", p, kids)
	}
	if n := len(r.named("open")); n != 0 {
		t.Errorf("unclosed span listed %d times", n)
	}
	var nilRec *recorder
	if id := nilRec.begin("x", 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(0)
	nilRec.setRun(1)
	if nilRec.named("x") != nil {
		t.Error("nil recorder returned spans")
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(blob), "\n"); lines != 3 {
		t.Errorf("wrote %d span lines, want 3", lines)
	}
}

func TestLatenessFromDueTime(t *testing.T) {
	released := time.Unix(1000, 0)
	ps := []push{
		// Due at released + (310−10)/300 s = +1 s; arrived at +1.5 s.
		{t: 310, at: released.Add(1500 * time.Millisecond)},
		// Due at +2 s; arrived 10 ms early (a fast clock).
		{t: 610, at: released.Add(1990 * time.Millisecond)},
	}
	got := lateness(ps, released, 10, 300)
	want := []float64{500, -10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("push %d lateness %g ms, want %g", i, got[i], want[i])
		}
	}
}

func TestCheckSeries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ts       []int64
		from, to int64
		missing  int64
		ok       bool
	}{
		{"complete", []int64{10, 20, 30}, 10, 30, 0, true},
		{"gap", []int64{10, 30}, 10, 30, 1, false},
		{"misaligned", []int64{10, 25, 30}, 10, 30, 0, false},
		{"repeat", []int64{10, 20, 20, 30}, 10, 30, 0, false},
		{"short tail", []int64{10, 20}, 10, 30, 1, false},
		{"late start", []int64{20, 30}, 10, 30, 1, false},
		{"empty", nil, 10, 10, 1, false},
	} {
		missing, err := checkSeries(tc.ts, 10, tc.from, tc.to)
		if missing != tc.missing || (err == nil) != tc.ok {
			t.Errorf("%s: missing %d err %v, want missing %d ok %v", tc.name, missing, err, tc.missing, tc.ok)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables in step with
// the benchmark definition the runs are judged by.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

// TestAnalyzeMatchesFacade pins that the benchmark's split set-up and
// consume path computes what slmob.AnalyzeEstateStream computes.
func TestAnalyzeMatchesFacade(t *testing.T) {
	ctx := context.Background()
	run, err := analyze(ctx, 5, 300, 0, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	est := slmob.CityEstate(5)
	est.Duration = 300
	src, err := slmob.NewEstateSource(est, slmob.PaperTau)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Estate().Close()
	an, err := slmob.AnalyzeEstateStream(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := slmob.AnalysisDigest(an.Global)
	if err != nil {
		t.Fatal(err)
	}
	if run.digest != want {
		t.Errorf("benchmark digest %s, façade %s", run.digest, want)
	}
	if run.ticks != 30 {
		t.Errorf("%d ticks, want 30", run.ticks)
	}
}

// TestWorkloadSmoke runs every workload briefly, traced and untraced,
// over short spans, and checks the machine-readable result line.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves and analyses the City estate")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := smokeConfig(name, traced, t.TempDir())
				var stdout, stderr bytes.Buffer
				if code := runConfig(context.Background(), cfg, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d:\n%s", code, tail(stderr.String()))
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
					t.Fatalf("result keys: %s", lines[len(lines)-1])
				}
				var out result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 || len(out.Metrics) != len(want) {
					t.Fatalf("result %+v", out)
				}
				if v := out.Metrics["setup_s"]; !traced && v.Value <= 0 {
					t.Errorf("setup_s = %g", v.Value)
				}
			})
		}
	}
}

// TestPollLoopKeepsScheduleThroughFailures runs the query reader against
// a service that hangs up on every query, and against one that refuses
// every dial: each query is counted as failed, the reader redials, and
// the open-loop schedule goes on.
func TestPollLoopKeepsScheduleThroughFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	hangsUp := ln.Addr().String()
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refuses := closed.Addr().String()
	closed.Close()
	defer ln.Close()

	for _, tc := range []struct {
		name, addr  string
		dialsFailed bool
	}{{"hangs up", hangsUp, false}, {"refuses", refuses, true}} {
		t.Run(tc.name, func(t *testing.T) {
			q := &reader{addr: tc.addr}
			defer q.drop()
			stop := make(chan struct{})
			start := time.Now()
			time.AfterFunc(6*pollEvery+pollEvery/2, func() { close(stop) })
			polls, lags := pollLoop(q, func() int64 { return 0 }, start, stop, make(chan time.Time, 1), newRecorder())
			// Polls are due at 0, 1, …, 6 periods; the last may lose the
			// race with the stop on a loaded machine.
			if len(polls) < 6 || len(polls) > 7 {
				t.Fatalf("%d polls in 6.5 periods, want 7", len(polls))
			}
			for i, p := range polls {
				if !p.failed {
					t.Errorf("poll %d succeeded", i)
				}
				if p.kind != i%queryKinds {
					t.Errorf("poll %d kind %d, want %d", i, p.kind, i%queryKinds)
				}
				if want := start.Add(time.Duration(i) * pollEvery); !p.due.Equal(want) {
					t.Errorf("poll %d due %v after start, want %v", i, p.due.Sub(start), want.Sub(start))
				}
			}
			if len(lags) != 0 {
				t.Errorf("%d lag samples from failed queries", len(lags))
			}
			if q.dials != int64(len(polls)) {
				t.Errorf("%d dials for %d failed polls, want one each", q.dials, len(polls))
			}
			if got := q.dialsFailed == q.dials; got != tc.dialsFailed {
				t.Errorf("%d of %d dials failed", q.dialsFailed, q.dials)
			}
		})
	}
}

// TestFailedCheckStillPrintsResult runs a workload whose output check
// fails: the result line is printed, with correct false and the failed
// operations, and the exit code is not 0.
func TestFailedCheckStillPrintsResult(t *testing.T) {
	const name = "test-failing"
	workloads[name] = func(_ context.Context, b *bench) error {
		b.rep.op("query", 10, 3)
		b.rep.check("digest", false, "mismatch")
		for _, d := range endToEnd {
			b.rep.set(d.name, 1)
		}
		return nil
	}
	defer delete(workloads, name)
	cfg := defaultConfig()
	cfg.workload = name
	var stdout, stderr bytes.Buffer
	if code := runConfig(context.Background(), cfg, &stdout, &stderr); code == 0 {
		t.Fatal("exit 0 after a failed check")
	}
	var out result
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("result line %q: %v", stdout.String(), err)
	}
	if out.Correct || out.Attempted != 10 || out.Failed != 3 || len(out.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", out)
	}
}

func TestBadArgumentsFailWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch-city", "--seconds", "0"},
		{"--workload", "batch-city", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func tail(s string) string {
	if len(s) > 4000 {
		return s[len(s)-4000:]
	}
	return s
}

// smokeConfig is a one-second run of workload over short spans.
func smokeConfig(workload string, traced bool, out string) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.out = workload, 2, 1, traced, out
	cfg.batchSpan, cfg.maxSpan, cfg.pacedSpan, cfg.warmSpan = 300, 300, 300, 60
	return cfg
}
