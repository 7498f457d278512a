package core

import (
	"fmt"

	"slmob/internal/stats"
	"slmob/internal/trace"
)

// Paper measurement constants (§3): snapshot period and the two
// communication ranges simulating Bluetooth and 802.11a WiFi devices.
const (
	PaperTau        int64   = 10
	BluetoothRange  float64 = 10
	WiFiRange       float64 = 80
	PaperZoneLength float64 = 20
)

// Config controls a full analysis run.
type Config struct {
	// Ranges are the communication ranges to analyse; nil selects the
	// paper's {10, 80}.
	Ranges []float64
	// ZoneSize is the zone-occupation cell edge; 0 selects the paper's 20.
	ZoneSize float64
	// MoveEps is the minimum sample-to-sample displacement counted as
	// movement; 0 selects 0.5 m.
	MoveEps float64
	// SessionGap is the absence tolerance before a session splits;
	// 0 selects 2τ.
	SessionGap int64
	// LandSize is the modelled land edge for zone occupation; 0 selects
	// the trace metadata's "size" key on the batch path, falling back to
	// the Second Life standard 256 m.
	LandSize float64
	// TreatZeroAsSeated repairs the {0,0,0} sitting quirk before spatial
	// analysis. Enable for wire-protocol traces (crawler, sensors), which
	// cannot observe the seated state directly.
	TreatZeroAsSeated bool
	// RangeWorkers bounds how many communication ranges a streaming
	// Analyzer advances concurrently per snapshot; 0 or 1 selects
	// sequential per-range processing. The worker count never changes
	// results, only wall time. In an estate analysis it composes with the
	// per-region workers: every regional analyzer fans its ranges out the
	// same way.
	RangeWorkers int
	// Window, when positive, slices the measurement into fixed windows of
	// this many seconds aligned to absolute time (3600 gives hourly,
	// clock-aligned windows). The plain Analyzer ignores it; the
	// WindowedAnalyzer and the estate analyzer emit one Analysis per
	// window, with the invariant that merging every window reproduces the
	// whole-trace result bit-identically.
	Window int64
	// DisableIncremental forces every per-snapshot proximity graph to be
	// rebuilt from scratch instead of patched from the previous snapshot
	// (graph.Workspace.ApplyPositions). The two paths are bit-identical by
	// contract, so this is a debugging/differential-testing switch, not a
	// correctness knob; it never changes results, only wall time. It is
	// deliberately not serialised in checkpoints: the restored process
	// decides its own build strategy.
	DisableIncremental bool
}

// withDefaults fills zero fields with the paper's parameters. The trace's
// snapshot period resolves the documented SessionGap default of 2τ.
func (c Config) withDefaults(tau int64) Config {
	if len(c.Ranges) == 0 {
		c.Ranges = []float64{BluetoothRange, WiFiRange}
	}
	if c.ZoneSize == 0 {
		c.ZoneSize = PaperZoneLength
	}
	if c.MoveEps <= 0 {
		c.MoveEps = 0.5
	}
	if c.SessionGap <= 0 {
		c.SessionGap = 2 * tau
	}
	if c.LandSize == 0 {
		c.LandSize = 256
	}
	return c
}

// Accumulator is the contract every metric state in the analysis core
// satisfies: the contact sink (ContactSet), the line-of-sight
// metrics (NetMetrics), the weighted distributions behind every
// integer-valued metric (stats.Weighted), and the trip session records.
//
//   - Resettable: Reset returns the accumulator to empty while keeping
//     every internal allocation, so window sinks recycle without heap
//     traffic (the rollover AllocsPerRun pin).
//   - Mergeable: each type exposes a merge (Weighted.Merge, the
//     Analysis-level MergeAnalyses) with the invariant that merging the
//     per-window accumulators of a stream reproduces the whole-stream
//     accumulator bit-identically — events are attributed to exactly one
//     window, at the snapshot where they resolve.
//   - Serializable: state round-trips through the versioned binary
//     snapshot format of internal/snap (Checkpoint / RestoreAnalyzer),
//     with typed errors on truncated, corrupted, or version-skewed input.
//
// DESIGN.md §6 documents the contract and the wire format.
type Accumulator interface {
	Reset()
}

// Compile-time contract checks for the accumulator types.
var (
	_ Accumulator = (*stats.Weighted)(nil)
	_ Accumulator = (*ContactSet)(nil)
	_ Accumulator = (*NetMetrics)(nil)
)

// Analysis is the complete per-land result set: everything needed to
// regenerate the paper's figures for one target land — either for a
// whole trace or, when produced by a WindowedAnalyzer, for one time
// window of it.
type Analysis struct {
	Land    string
	Summary trace.Summary
	// Start and End are the first and last snapshot times covered
	// (window bounds for windowed results); both zero when no snapshot
	// was observed.
	Start, End int64
	// Contacts maps range -> temporal metrics (Fig. 1).
	Contacts map[float64]*ContactSet
	// Nets maps range -> line-of-sight network metrics (Fig. 2).
	Nets map[float64]*NetMetrics
	// Zones holds the distribution of per-(cell, snapshot) occupancies
	// (Fig. 3) as a weighted accumulator: a day of 20 m cells is millions
	// of observations but only a handful of distinct counts.
	Zones *stats.Weighted
	// Trips holds the per-session trip metrics (Fig. 4).
	Trips *TripStats
}

// Clone returns an independent deep copy — what the windowed analyzer
// emits in collection mode, so recycled sinks never alias a returned
// window.
func (a *Analysis) Clone() *Analysis {
	out := &Analysis{
		Land:     a.Land,
		Summary:  a.Summary,
		Start:    a.Start,
		End:      a.End,
		Contacts: make(map[float64]*ContactSet, len(a.Contacts)),
		Nets:     make(map[float64]*NetMetrics, len(a.Nets)),
	}
	for r, cs := range a.Contacts {
		out.Contacts[r] = cs.Clone()
	}
	for r, nm := range a.Nets {
		out.Nets[r] = nm.Clone()
	}
	if a.Zones != nil {
		out.Zones = a.Zones.Clone()
	}
	if a.Trips != nil {
		out.Trips = a.Trips.Clone()
	}
	return out
}

// Analyze runs the full pipeline on one trace, re-walking it once per
// metric. The incremental Analyzer produces the same Analysis from a
// snapshot stream in a single pass without materialising the trace.
func Analyze(tr *trace.Trace, cfg Config) (*Analysis, error) {
	if cfg.LandSize == 0 {
		var err error
		if cfg.LandSize, err = landSizeOf(tr); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults(tr.Tau)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid trace: %w", err)
	}
	if cfg.TreatZeroAsSeated {
		tr = NormalizeSeated(tr)
	}
	a := &Analysis{
		Land:     tr.Land,
		Summary:  tr.Summarize(),
		Contacts: make(map[float64]*ContactSet, len(cfg.Ranges)),
		Nets:     make(map[float64]*NetMetrics, len(cfg.Ranges)),
	}
	if n := len(tr.Snapshots); n > 0 {
		a.Start = tr.Snapshots[0].T
		a.End = tr.Snapshots[n-1].T
	}
	for _, r := range cfg.Ranges {
		cs, err := ExtractContacts(tr, r)
		if err != nil {
			return nil, err
		}
		a.Contacts[r] = cs
		nm, err := LoSMetrics(tr, r)
		if err != nil {
			return nil, err
		}
		a.Nets[r] = nm
	}
	zones, err := ZoneOccupation(tr, cfg.LandSize, cfg.ZoneSize)
	if err != nil {
		return nil, err
	}
	a.Zones = stats.WeightedOf(zones...)
	a.Trips = Trips(tr, cfg.MoveEps, cfg.SessionGap)
	return a, nil
}
