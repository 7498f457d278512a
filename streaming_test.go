package slmob

// Streaming/batch parity and cancellation tests for the pipeline API:
// the incremental Analyzer behind Run must produce the same Analysis as
// the batch core.Analyze path on every paper land, and a cancelled
// context must stop a run mid-stream.

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"slmob/internal/core"
)

// assertParity asserts the streaming/batch parity contract, labelling
// any difference with the land under test.
func assertParity(t *testing.T, land string, stream, batch *Analysis) {
	t.Helper()
	for _, d := range core.DiffAnalyses(stream, batch) {
		t.Errorf("%s: %s", land, d)
	}
}

// TestStreamingBatchParityPaperLands runs each paper land twice from the
// same seed — once through the batch path (materialise the trace, then
// core.Analyze) and once through the streaming pipeline (Run) — and
// asserts the two Analysis values are identical.
func TestStreamingBatchParityPaperLands(t *testing.T) {
	if testing.Short() {
		t.Skip("three-land parity run skipped in -short mode")
	}
	for _, scn := range PaperLands(7) {
		scn.Duration = 2 * 3600
		tr := collectTrace(t, scn)
		batch, err := core.Analyze(tr, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := Run(context.Background(), scn)
		if err != nil {
			t.Fatal(err)
		}
		assertParity(t, scn.Land.Name, stream, batch)
	}
}

// TestAnalyzeStreamMatchesReplay: replaying a materialised trace through
// AnalyzeStream is the same as batch-analysing it.
func TestAnalyzeStreamMatchesReplay(t *testing.T) {
	scn := DanceIsland(11)
	scn.Duration = 1800
	tr := collectTrace(t, scn)
	batch, err := core.Analyze(tr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := AnalyzeStream(context.Background(), TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, scn.Land.Name, stream, batch)
}

// TestRunCancelledContext: Run with an already-cancelled context returns
// ctx.Err() without doing the work.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scn := ApfelLand(1)
	if _, err := Run(ctx, scn); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunStopsMidStream: cancelling while a 24 h run is in flight stops
// the simulation promptly and surfaces ctx.Err().
func TestRunStopsMidStream(t *testing.T) {
	scn := ApfelLand(1) // full 24 h: takes far longer than the cancel delay
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, scn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v to stop after cancellation", elapsed)
	}
}

// TestRunLandsParallelOption: the option bounds concurrency without
// changing results, and a cancelled context aborts the set.
func TestRunLandsParallelOption(t *testing.T) {
	scns := PaperLands(3)
	for i := range scns {
		scns[i].Duration = 600
	}
	serial, err := RunLands(context.Background(), scns, WithParallelLands(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunLands(context.Background(), scns, WithParallelLands(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3 || len(parallel) != 3 {
		t.Fatalf("runs = %d/%d, want 3/3", len(serial), len(parallel))
	}
	for i := range serial {
		assertParity(t, serial[i].Land, parallel[i], serial[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLands(ctx, scns); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunLands err = %v", err)
	}
}

// bareSource implements SnapshotSource without trace.Described, like a
// downstream user's custom producer would.
type bareSource struct{ left int }

func (s *bareSource) Next(ctx context.Context) (Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return Snapshot{}, err
	}
	if s.left == 0 {
		return Snapshot{}, io.EOF
	}
	s.left--
	return Snapshot{T: int64(10 * (3 - s.left))}, nil
}

// TestCollectSourceCustomSource: collecting from a source that cannot
// describe itself must still produce a valid, analysable trace, with
// WithLand/WithTau available for labelling.
func TestCollectSourceCustomSource(t *testing.T) {
	tr, err := CollectSource(context.Background(), &bareSource{left: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tau != PaperTau {
		t.Errorf("Tau = %d, want the paper default %d", tr.Tau, PaperTau)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("collected trace invalid: %v", err)
	}
	tr, err = CollectSource(context.Background(), &bareSource{left: 3},
		WithLand("custom"), WithTau(5))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Land != "custom" || tr.Tau != 5 {
		t.Errorf("land/tau = %q/%d, want custom/5", tr.Land, tr.Tau)
	}
}

// TestFileStreamRoundTrip: a trace written to disk streams back through
// OpenTraceStream with identical snapshots and analysis.
func TestFileStreamRoundTrip(t *testing.T) {
	scn := IsleOfView(9)
	scn.Duration = 900
	tr := collectTrace(t, scn)
	for _, name := range []string{"roundtrip.sltr", "roundtrip.csv"} {
		path := t.TempDir() + "/" + name
		if err := WriteTraceFile(tr, path); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenTraceStream(path)
		if err != nil {
			t.Fatal(err)
		}
		info := fs.Info()
		if info.Land != tr.Land || info.Tau != tr.Tau {
			t.Errorf("%s: info = %+v", name, info)
		}
		n := 0
		for {
			_, err := fs.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		fs.Close()
		if n != len(tr.Snapshots) {
			t.Errorf("%s: streamed %d snapshots, want %d", name, n, len(tr.Snapshots))
		}
	}
}
