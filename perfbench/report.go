package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// mirror BENCHMARK.json's end_to_end and per_layer entries; a self-test
// keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, measured with
// tracing off and printed by every untraced run of every workload.
var endToEnd = []metricDef{
	{"sim_s_per_s", "s/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per module, plus the
// served-only client metrics (which exist on two of the three
// workloads, so they cannot be end-to-end metrics every run prints) and
// the tracing overhead. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"world.next_tick_s", "s"},
	{"world.next_tick_ms_p50", "ms"},
	{"world.next_tick_ms_p99", "ms"},
	{"world.samples", "count"},
	{"core.self_s", "s"},
	{"core.samples_per_s", "1/s"},
	{"graph.incremental_frac", "ratio"},
	{"graph.full_rebuilds", "count"},
	{"server.tick_busy_s", "s"},
	{"server.tick_max_ms", "ms"},
	{"server.tick_intervals", "count"},
	{"server.tick_over_budget", "count"},
	{"server.analytics_lag_sim_s_p50", "s"},
	{"server.analytics_lag_sim_s_p95", "s"},
	{"server.queries", "count"},
	{"server.readers_dropped", "count"},
	{"slp.query_cumulative_ms_p50", "ms"},
	{"slp.query_cumulative_ms_p95", "ms"},
	{"slp.query_window_ms_p50", "ms"},
	{"slp.query_window_ms_p95", "ms"},
	{"slp.query_stats_ms_p50", "ms"},
	{"slp.query_stats_ms_p95", "ms"},
	{"slp.pushes", "count"},
	{"slp.push_bytes", "B"},
	{"slp.deltas_applied", "count"},
	{"query_ms_p50", "ms"},
	{"query_ms_p95", "ms"},
	{"push_late_ms_p50", "ms"},
	{"push_late_ms_p95", "ms"},
	{"push_bytes_per_push", "B"},
	{"trace.sim_s_per_s_ratio", "ratio"},
}

// value is one reported figure; N is the sample count behind a median
// or percentile, and Supports the highest percentile those samples
// support (see highestPercentile).
type value struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
	Supports float64 `json:"supports_pct,omitempty"`
}

// check is one correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run measured. It is printed whole, as JSON,
// on standard error; the last line of standard output carries the
// machine-readable subset.
type report struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     int     `json:"seconds"`
	Traced      bool    `json:"traced"`
	Cores       int     `json:"cores"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	ClientConns int     `json:"client_conns"`
	Goroutines  int     `json:"generator_goroutines"`
	Reps        int     `json:"reps"`
	TracedReps  int     `json:"traced_reps"`
	Attempted   int64   `json:"attempted"`
	Failed      int64   `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	// Ops breaks Attempted and Failed down by operation kind.
	Ops     map[string]*opCount `json:"ops"`
	Checks  []check             `json:"checks"`
	Metrics map[string]value    `json:"metrics"`
	// RepRates lists each repetition's sim_s_per_s, traced ones included.
	RepRates []float64 `json:"rep_rates"`
	// SetupS and RepHeapsMB list every set-up time and each repetition's
	// peak heap.
	SetupS     []float64 `json:"setup_s"`
	RepHeapsMB []float64 `json:"rep_heaps_mb"`
	// Extra holds figures that are neither end-to-end nor per-layer
	// metrics: generator lateness, clock-only rates.
	Extra map[string]value `json:"extra,omitempty"`
	// Notes explain per-layer metrics a workload cannot measure.
	Notes []string `json:"notes,omitempty"`
}

type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

func newReport(cfg config) *report {
	return &report{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Ops:        map[string]*opCount{},
		Metrics:    map[string]value{},
		Extra:      map[string]value{},
	}
}

// op records attempted and failed operations of one kind.
func (r *report) op(kind string, attempted, failed int64) {
	c := r.Ops[kind]
	if c == nil {
		c = &opCount{}
		r.Ops[kind] = c
	}
	c.Attempted += attempted
	c.Failed += failed
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// set records a metric under its declared unit.
func (r *report) set(name string, v float64) { r.setN(name, v, 0) }

// unitOf maps every declared metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// setN records a metric computed from n samples.
func (r *report) setN(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	val := value{Value: v, Unit: unit, N: n}
	if n > 0 {
		val.Supports = highestPercentile(n)
	}
	r.Metrics[name] = val
}

// setPct records percentile p of xs under name.
func (r *report) setPct(name string, xs []float64, p float64) {
	r.setN(name, percentile(xs, p), len(xs))
}

func (r *report) extra(name, unit string, v float64, n int) {
	r.Extra[name] = value{Value: v, Unit: unit, N: n}
}

// finish totals the operation counts.
func (r *report) finish() {
	for _, c := range r.Ops {
		r.Attempted += c.Attempted
		r.Failed += c.Failed
	}
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
}

// result is the machine-readable last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints the full report on stderr and the result line on stdout:
// the end-to-end metrics for an untraced run, the per-layer metrics for
// a traced one. Every declared metric of the set must be present.
func (r *report) emit(stdout, stderr io.Writer) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s\n", blob)
	set := endToEnd
	if r.Traced {
		set = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range set {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = value{Value: v.Value, Unit: v.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// heapPeak samples the heap bytes in use (live and not yet swept
// objects plus free space in in-use spans, i.e. MemStats.HeapInuse)
// every millisecond, without stopping the world, and keeps the maximum.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func heapInUse(buf []metrics.Sample) uint64 {
	metrics.Read(buf)
	var n uint64
	for _, s := range buf {
		n += s.Value.Uint64()
	}
	return n
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		buf := append([]metrics.Sample(nil), heapSamples...)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				n := heapInUse(buf)
				for {
					old := h.peak.Load()
					if n <= old || h.peak.CompareAndSwap(old, n) {
						break
					}
				}
			}
		}
	}()
	return h
}

// reset restarts the peak from the current heap.
func (h *heapPeak) reset() {
	h.peak.Store(heapInUse(append([]metrics.Sample(nil), heapSamples...)))
}

// mb returns the peak since the last reset in MiB.
func (h *heapPeak) mb() float64 { return float64(h.peak.Load()) / (1 << 20) }

func (h *heapPeak) close() {
	close(h.stop)
	h.wg.Wait()
}
