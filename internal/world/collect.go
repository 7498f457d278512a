package world

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"slmob/internal/trace"
)

// Source streams τ-sampled snapshots out of a running in-process
// simulation: the streaming producer behind the experiment harness and
// the benchmarks. Each Next call advances the simulation by tau seconds
// and observes the land, so memory stays constant no matter how long the
// measurement runs; cmd/slcrawl produces the same snapshots over the wire
// protocol.
//
// Seated avatars keep their true position in the emitted samples along
// with the Seated flag; the wire-protocol path degrades them to the
// authentic {0,0,0} sentinel instead.
type Source struct {
	sim *Sim
	tau int64
	buf []AvatarState
}

// NewSource validates the scenario, spawns the simulation, and returns a
// source that yields one snapshot every tau simulated seconds until the
// scenario duration elapses.
func NewSource(scn Scenario, tau int64) (*Source, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("world: non-positive tau %d", tau)
	}
	sim, err := NewSim(scn)
	if err != nil {
		return nil, err
	}
	return &Source{sim: sim, tau: tau}, nil
}

// Sim exposes the underlying simulation (ground-truth inspection).
func (s *Source) Sim() *Sim { return s.sim }

// Info reports the monitored land's provenance.
func (s *Source) Info() trace.Info {
	scn := s.sim.Scenario()
	return trace.Info{
		Land: scn.Land.Name,
		Tau:  s.tau,
		Meta: map[string]string{
			"monitor": "in-process",
			"seed":    strconv.FormatUint(scn.Seed, 10),
			"model":   scn.Model.String(),
			"size":    strconv.FormatFloat(scn.Land.Size, 'g', -1, 64),
		},
	}
}

// Next advances the simulation one snapshot period and samples the land.
// It returns io.EOF once the scenario duration has been observed and
// ctx.Err() promptly after cancellation.
func (s *Source) Next(ctx context.Context) (trace.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return trace.Snapshot{}, err
	}
	next := s.sim.Time() + s.tau
	if next > s.sim.Scenario().Duration {
		return trace.Snapshot{}, io.EOF
	}
	s.sim.RunUntil(next)
	s.buf = s.sim.ResidentStates(s.buf)
	snap := trace.Snapshot{T: next, Samples: make([]trace.Sample, len(s.buf))}
	for i, st := range s.buf {
		snap.Samples[i] = trace.Sample{ID: st.ID, Pos: st.Pos, Seated: st.Seated}
	}
	return snap, nil
}
