// Command perfbench is slmob's end-to-end benchmark. It runs one
// workload on the City estate (8×8 regions, seeded from --seed), checks
// the outputs, and prints the full report as JSON on standard error and
// one result line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates traced and untraced repetitions, prints the per-layer
// metrics taken from spans around calls into each module's public API
// (world, core, graph, server, slp) and the tracing overhead, and writes
// the spans to --out.
//
// Workloads:
//
//	batch-city         the paper-reproduction path: in-process
//	                   simulation into the sharded analysis, no sockets
//	served-city-max    the estate served with live analytics, clock
//	                   flat out, one observer and one query reader
//	served-city-paced  the same service at warp 300 with a 1 ms tick,
//	                   one AOI-delta avatar and one query reader
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload batch-city --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	// Simulated spans of the repetitions; the command line always uses
	// the defaults, the self-tests shorten them.
	batchSpan, maxSpan, pacedSpan, warmSpan int64
}

func defaultConfig() config {
	return config{
		seed:      1,
		seconds:   30,
		out:       ".bench_build/perfbench",
		batchSpan: batchSpan,
		maxSpan:   maxSpan,
		pacedSpan: pacedSpan,
		warmSpan:  warmSpan,
	}
}

// bench is the state one run shares across its repetitions.
type bench struct {
	cfg  config
	rep  *report
	rec  *recorder // nil unless --trace 1
	heap *heapPeak
}

// budget is the measured time of the run.
func (b *bench) budget() time.Duration { return time.Duration(b.cfg.seconds) * time.Second }

// recFor returns the recorder for repetition i: in a traced run the
// even repetitions are traced and the odd ones are not, so the two
// rates give the tracing overhead.
func (b *bench) recFor(i int) *recorder {
	if b.rec == nil || i%2 == 1 {
		return nil
	}
	b.rec.setRun(i + 1)
	return b.rec
}

var workloads = map[string]func(context.Context, *bench) error{
	"batch-city":        runBatch,
	"served-city-max":   runServedMax,
	"served-city-paced": runServedPaced,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := defaultConfig()
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: batch-city, served-city-max or served-city-paced")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "City estate seed")
	fs.IntVar(&cfg.seconds, "seconds", cfg.seconds, "measured time per run in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&cfg.out, "out", cfg.out, "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if workloads[cfg.workload] == nil || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, cfg.seconds, traceFlag)
		return 2
	}
	return runConfig(ctx, cfg, stdout, stderr)
}

// runConfig runs one validated configuration and prints its report and
// result line; it returns the process exit code.
func runConfig(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	fn := workloads[cfg.workload]
	b := &bench{cfg: cfg, rep: newReport(cfg), heap: startHeapPeak()}
	if cfg.trace {
		b.rec = newRecorder()
	}
	err := fn(ctx, b)
	b.heap.close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	b.rep.finish()
	if b.rec != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := b.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := b.rep.emit(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !b.rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed\n", cfg.workload)
		return 1
	}
	return 0
}
