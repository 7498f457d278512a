// Package dtn replays a mobility trace under delay-tolerant-network
// forwarding schemes. It is the paper's stated downstream application:
// "the traces collected in this work can be very useful for trace-driven
// simulations of communication schemes in delay tolerant networks and
// their performance evaluation" (§1).
//
// Four classical schemes are implemented: epidemic flooding, direct
// delivery, two-hop relay, and binary spray-and-wait. Contacts are taken
// from the trace's line-of-sight adjacency per snapshot at a configurable
// radio range, matching the contact model of the paper's temporal
// analysis.
package dtn

import (
	"fmt"
	"sort"

	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/rng"
	"slmob/internal/stats"
	"slmob/internal/trace"
)

// Protocol selects a forwarding scheme.
type Protocol int

const (
	// Epidemic floods every message over every contact.
	Epidemic Protocol = iota
	// Direct delivers only on source-destination contact.
	Direct
	// TwoHop lets the source hand copies to relays, which deliver only
	// to the destination.
	TwoHop
	// SprayAndWait spreads a bounded number of copies (binary spray),
	// then waits for direct delivery.
	SprayAndWait
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case Epidemic:
		return "epidemic"
	case Direct:
		return "direct"
	case TwoHop:
		return "two-hop"
	case SprayAndWait:
		return "spray-and-wait"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config controls one replay.
type Config struct {
	Protocol Protocol
	// Range is the radio range in metres (the paper's r_b=10 or r_w=80).
	Range float64
	// Messages is the number of unicast messages to generate.
	Messages int
	// Copies bounds spray-and-wait's total copies per message; zero
	// selects 8.
	Copies int
	// TTL drops messages older than this many seconds; zero disables.
	TTL int64
	// Seed drives source/destination sampling.
	Seed uint64
}

// Result summarises a replay.
type Result struct {
	Protocol  Protocol
	Generated int
	Delivered int
	// Delays holds per-delivered-message latency in seconds.
	Delays []float64
	// Copies is the total number of message replicas created (transmission
	// cost).
	Copies int
}

// DeliveryRatio returns delivered/generated.
func (r *Result) DeliveryRatio() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Generated)
}

// MedianDelay returns the median delivery delay, or NaN with no
// deliveries.
func (r *Result) MedianDelay() float64 {
	if len(r.Delays) == 0 {
		return 0
	}
	return stats.MustEmpirical(r.Delays).Median()
}

// CopiesPerMessage returns the average replication cost.
func (r *Result) CopiesPerMessage() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.Copies) / float64(r.Generated)
}

// message is one unicast flow under replay.
type message struct {
	id          int
	src, dst    trace.AvatarID
	createdAt   int64
	delivered   bool
	deliveredAt int64
	copies      int
	// tokens[node] is spray-and-wait's remaining copy budget per holder.
	tokens map[trace.AvatarID]int
	// holders is the set of nodes currently buffering the message.
	holders map[trace.AvatarID]bool
}

// Replay runs the configured protocol over the trace.
func Replay(tr *trace.Trace, cfg Config) (*Result, error) {
	if cfg.Range <= 0 {
		return nil, fmt.Errorf("dtn: range must be positive")
	}
	if cfg.Messages <= 0 {
		return nil, fmt.Errorf("dtn: message count must be positive")
	}
	if cfg.Copies <= 0 {
		cfg.Copies = 8
	}
	if len(tr.Snapshots) < 2 {
		return nil, fmt.Errorf("dtn: trace too short")
	}

	// Generate messages: sources and destinations sampled among users
	// present at the creation snapshot, creation times uniform over the
	// first two thirds of the trace so deliveries have room to happen.
	r := rng.New(cfg.Seed)
	horizon := len(tr.Snapshots) * 2 / 3
	msgs := make([]*message, 0, cfg.Messages)
	for i := 0; i < cfg.Messages; i++ {
		si := r.Intn(horizon)
		snap := tr.Snapshots[si]
		if len(snap.Samples) < 2 {
			continue
		}
		a := r.Intn(len(snap.Samples))
		b := r.Intn(len(snap.Samples) - 1)
		if b >= a {
			b++
		}
		m := &message{
			id:        i,
			src:       snap.Samples[a].ID,
			dst:       snap.Samples[b].ID,
			createdAt: snap.T,
			copies:    1,
			holders:   map[trace.AvatarID]bool{snap.Samples[a].ID: true},
		}
		if cfg.Protocol == SprayAndWait {
			m.tokens = map[trace.AvatarID]int{m.src: cfg.Copies}
		}
		msgs = append(msgs, m)
	}
	res := &Result{Protocol: cfg.Protocol, Generated: len(msgs)}
	if len(msgs) == 0 {
		return res, nil
	}

	// Replay snapshot by snapshot, building each contact graph in one
	// reused workspace: its graphs match graph.FromPositions adjacency
	// for adjacency, in the same order, so the exchanges are unchanged.
	ws := graph.NewWorkspace()
	var positions []geom.Vec
	var ids []trace.AvatarID
	for _, snap := range tr.Snapshots {
		positions = positions[:0]
		ids = ids[:0]
		for _, s := range snap.Samples {
			if s.Seated {
				continue
			}
			positions = append(positions, s.Pos)
			ids = append(ids, s.ID)
		}
		if len(ids) < 2 {
			continue
		}
		g := ws.FromPositions(positions, cfg.Range)
		for _, m := range msgs {
			if m.delivered || snap.T < m.createdAt {
				continue
			}
			if cfg.TTL > 0 && snap.T-m.createdAt > cfg.TTL {
				continue
			}
			exchange(m, cfg, g, ids, snap.T)
		}
	}

	for _, m := range msgs {
		res.Copies += m.copies
		if m.delivered {
			res.Delivered++
			res.Delays = append(res.Delays, float64(m.deliveredAt-m.createdAt))
		}
	}
	sort.Float64s(res.Delays)
	return res, nil
}

// exchange applies one snapshot's contacts to one message.
func exchange(m *message, cfg Config, g *graph.Graph, ids []trace.AvatarID, now int64) {
	// Deterministic iteration: scan vertices in index order.
	for u := 0; u < g.N(); u++ {
		uid := ids[u]
		if !m.holders[uid] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			vid := ids[v]
			if vid == m.dst {
				m.delivered = true
				m.deliveredAt = now
				return
			}
			if m.holders[vid] {
				continue
			}
			switch cfg.Protocol {
			case Epidemic:
				m.holders[vid] = true
				m.copies++
			case Direct:
				// Only source-to-destination transfers, handled above.
			case TwoHop:
				if uid == m.src {
					m.holders[vid] = true
					m.copies++
				}
			case SprayAndWait:
				if t := m.tokens[uid]; t > 1 {
					// Binary spray: hand over half the tokens.
					give := t / 2
					m.tokens[uid] = t - give
					m.tokens[vid] = give
					m.holders[vid] = true
					m.copies++
				}
			}
		}
	}
}

// CompareProtocols replays the trace under all four schemes with shared
// parameters, the harness behind experiment X2.
func CompareProtocols(tr *trace.Trace, r float64, messages int, seed uint64) ([]*Result, error) {
	var out []*Result
	for _, p := range []Protocol{Epidemic, SprayAndWait, TwoHop, Direct} {
		res, err := Replay(tr, Config{
			Protocol: p, Range: r, Messages: messages, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
