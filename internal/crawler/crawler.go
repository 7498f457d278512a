// Package crawler implements the paper's second — and preferred —
// monitoring architecture: an external client that logs into the
// metaverse as a regular avatar and extracts the position of every user
// on the target land from the coarse map at a fixed period (τ = 10 s).
//
// A naive crawler perturbs the measurement: it is perceived as an avatar,
// and a silent, motionless avatar attracts curious users ("a steady
// convergence of user movements towards our crawler", §2). The crawler
// therefore mimics a normal user, moving randomly over the land and
// broadcasting canned chat phrases; set Mimic to false to reproduce the
// perturbation experiment.
package crawler

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/slp"
	"slmob/internal/trace"
)

// DefaultPhrases is the crawler's small set of pre-defined chat lines.
var DefaultPhrases = []string{
	"hello everyone :)",
	"nice place!",
	"anyone know where the music is from?",
	"brb",
	"this land looks great today",
	"hi! just looking around",
}

// Config controls one crawl.
type Config struct {
	// Addr is the region server address.
	Addr string
	// Name and Password are the login credentials (the crawler needs a
	// valid account, like any avatar).
	Name, Password string
	// Tau is the snapshot period in simulated seconds (the paper's 10).
	Tau int64
	// Duration is the crawl length in simulated seconds.
	Duration int64
	// Mimic enables user mimicry (random movement + canned chat).
	Mimic bool
	// MovePeriod and ChatPeriod are mimicry cadences in simulated
	// seconds; zero selects 45 s and 120 s.
	MovePeriod, ChatPeriod int64
	// Phrases overrides DefaultPhrases.
	Phrases []string
	// Seed drives the mimicry randomness.
	Seed uint64
	// DialTimeout bounds connection establishment; zero selects 10 s.
	DialTimeout time.Duration
}

// Crawler is a connected measurement client.
type Crawler struct {
	cfg    Config
	client *slp.Client
	rng    *rng.Source
	size   float64
	selfID trace.AvatarID
}

// New connects and logs the crawler in.
func New(cfg Config) (*Crawler, error) {
	if cfg.Tau <= 0 {
		return nil, fmt.Errorf("crawler: tau must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("crawler: duration must be positive")
	}
	if cfg.MovePeriod <= 0 {
		cfg.MovePeriod = 45
	}
	if cfg.ChatPeriod <= 0 {
		cfg.ChatPeriod = 120
	}
	if len(cfg.Phrases) == 0 {
		cfg.Phrases = DefaultPhrases
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	client, err := slp.Dial(cfg.Addr, cfg.Name, cfg.Password, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	w := client.Welcome()
	return &Crawler{
		cfg:    cfg,
		client: client,
		rng:    rng.New(cfg.Seed),
		size:   w.Size,
		selfID: trace.AvatarID(w.AvatarID),
	}, nil
}

// SelfID returns the crawler's avatar identity on the land.
func (c *Crawler) SelfID() trace.AvatarID { return c.selfID }

// Close logs the crawler out and tears the connection down. Run closes
// implicitly; standalone Source users must call Close themselves.
func (c *Crawler) Close() error { return c.client.Close() }

// Source is the crawler as a streaming snapshot producer: each Next call
// blocks on the next coarse-map push, runs the user-mimicry schedule, and
// yields the observed snapshot. The crawler's own avatar is filtered out
// of every snapshot.
type Source struct {
	c          *Crawler
	subscribed bool
	started    bool
	start      int64 // sim time of the first push; snapshots are rebased to it
	lastT      int64 // last emitted snapshot time (duplicate-push guard)
	lastMove   int64
	lastChat   int64
	done       bool
	// pendingErr is a mimicry failure deferred so the snapshot received
	// just before it is still delivered (an interrupted crawl keeps all
	// observed data).
	pendingErr error
}

// Source returns the crawler's streaming view. The first Next call
// subscribes to map pushes at the configured τ.
func (c *Crawler) Source() *Source { return &Source{c: c} }

// Info reports the crawl's provenance.
func (s *Source) Info() trace.Info {
	w := s.c.client.Welcome()
	return trace.Info{
		Land: w.Land,
		Tau:  s.c.cfg.Tau,
		Meta: map[string]string{
			"monitor": "crawler",
			"mimic":   strconv.FormatBool(s.c.cfg.Mimic),
			"size":    strconv.FormatFloat(w.Size, 'g', -1, 64),
		},
	}
}

// Next yields the next map snapshot. It returns io.EOF once Duration
// simulated seconds have been observed and ctx.Err() promptly after the
// context is cancelled.
func (s *Source) Next(ctx context.Context) (trace.Snapshot, error) {
	if s.pendingErr != nil {
		err := s.pendingErr
		s.pendingErr = nil
		return trace.Snapshot{}, err
	}
	if s.done {
		return trace.Snapshot{}, io.EOF
	}
	c := s.c
	if !s.subscribed {
		if err := c.client.Subscribe(c.cfg.Tau, false); err != nil {
			return trace.Snapshot{}, err
		}
		s.subscribed = true
		s.start = c.client.Welcome().SimTime
	}
	for {
		select {
		case <-ctx.Done():
			return trace.Snapshot{}, ctx.Err()
		case reply, ok := <-c.client.Maps():
			if !ok {
				// Wrap the transport error: a raw io.EOF must not read as
				// the Source's own end-of-stream sentinel.
				if err := c.client.Err(); err != nil {
					return trace.Snapshot{}, fmt.Errorf("crawler: connection lost: %w", err)
				}
				return trace.Snapshot{}, fmt.Errorf("crawler: connection closed")
			}
			snap := trace.Snapshot{T: reply.SimTime - s.start}
			if s.started && snap.T <= s.lastT {
				// A duplicate push (e.g. poll racing a subscription) is
				// dropped rather than corrupting the stream.
				continue
			}
			for _, ent := range reply.Entries {
				if ent.ID == c.selfID {
					continue
				}
				snap.Samples = append(snap.Samples, trace.Sample{ID: ent.ID, Pos: ent.Pos})
			}
			s.started = true
			s.lastT = snap.T
			now := reply.SimTime
			if now-s.start >= c.cfg.Duration {
				// The crawl is complete; skip mimicry so a send failure
				// cannot turn a fully-observed measurement into an error.
				s.done = true
				return snap, nil
			}
			if c.cfg.Mimic {
				if now-s.lastMove >= c.cfg.MovePeriod {
					s.lastMove = now
					if err := c.client.Move(c.randomPoint()); err != nil {
						s.pendingErr = fmt.Errorf("crawler: mimicry move failed: %w", err)
						return snap, nil
					}
				}
				if now-s.lastChat >= c.cfg.ChatPeriod {
					s.lastChat = now
					phrase := c.cfg.Phrases[c.rng.Intn(len(c.cfg.Phrases))]
					if err := c.client.Chat(phrase); err != nil {
						s.pendingErr = fmt.Errorf("crawler: mimicry chat failed: %w", err)
						return snap, nil
					}
				}
			}
			return snap, nil
		}
	}
}

// randomPoint picks a uniformly random ground position on the land, the
// paper's "randomly moves over the target land".
func (c *Crawler) randomPoint() geom.Vec {
	return geom.V2(c.rng.Range(0, c.size), c.rng.Range(0, c.size))
}
