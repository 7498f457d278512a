// The estate server: networked multi-region hosting. One region server
// per grid cell serves clients on its own TCP listener while a shared
// warped clock advances every region in lockstep — the topology the live
// Second Life service ran, where one simulator process hosted each 256 m
// region of the contiguous grid.
//
// Avatar handoffs cross the network: when an avatar walks off a region's
// edge (or teleports to another region's attraction), the source region
// server encodes its full state — identity, re-based position, behaviour
// and random stream — into a capsule and sends it to the destination
// region server as an slp Transfer over an authenticated inter-server
// link. The destination either admits the avatar (TransferAck accepted)
// or refuses it at capacity, in which case the source turns the avatar
// back at the border. Because the clock is lockstep and transfers settle
// inside the tick, a served estate is bit-identical to the in-process
// EstateSim — pinned by the live-vs-replay parity test.
//
// Failure behaviour: the estate is one measurement instrument, not a
// fault-tolerant fleet. A dropped inter-server link or region listener
// is fatal — Run returns the error and shuts every region down — because
// an estate missing a region can neither route handoffs deterministically
// nor produce a consistent estate-wide trace.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"slmob/internal/core"
	"slmob/internal/slp"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// EstateConfig configures a networked estate service.
type EstateConfig struct {
	// Estate is the hosted multi-region world.
	Estate world.EstateConfig
	// Addr is the directory endpoint's TCP listen address; use
	// "127.0.0.1:0" to pick a free port (see DirectoryAddr).
	Addr string
	// RegionAddrs optionally pins each region server's listen address,
	// indexed like the estate grid; missing or empty entries pick free
	// ports on the loopback interface.
	RegionAddrs []string
	// Warp is simulated seconds per wall-clock second (>= 1), shared by
	// every region.
	Warp float64
	// TickEvery is the wall-clock interval between clock advances; zero
	// selects 10 ms.
	TickEvery time.Duration
	// Password, when non-empty, is required at login and on inter-server
	// links.
	Password string
	// AOIRadius, when positive, imposes an area-of-interest radius (in
	// metres) on every avatar map subscription that did not request its
	// own, in every region. Observer sessions are always exempt.
	AOIRadius float64
	// Hold keeps the shared clock at zero until a ClockStart arrives at
	// the directory endpoint (or StartClock is called), so monitors can
	// connect and subscribe before the first tick — the estate
	// measurement then observes the grid from second one.
	Hold bool
	// Analytics configures the live analytics query endpoint; the zero
	// value disables it.
	Analytics AnalyticsConfig
	// PeerTimeout bounds each inter-server handshake and transfer-ack
	// wait; zero selects 5 s. A peer that stops answering within it
	// fails the estate with a *PeerTimeoutError instead of hanging the
	// shared clock forever.
	PeerTimeout time.Duration
}

// EstateServer is a running estate service: one region server per grid
// cell plus the directory endpoint, all on one shared clock.
type EstateServer struct {
	cfg      EstateConfig
	duration int64

	mu       sync.Mutex
	closed   bool
	est      *world.EstateSim
	hosts    []*landHost
	peers    map[int]*peerLink     // outgoing transfer links, keyed from*regions+to
	inPeers  map[net.Conn]struct{} // incoming transfer links, closed on shutdown
	dirConns map[net.Conn]struct{} // directory connections, closed on shutdown

	// routing sequences each tick's concurrent transfer fanout (guarded
	// by mu; the cond shares it).
	routing tickRouting

	dirLn net.Listener

	tickMu sync.Mutex
	ticks  TickStats

	// analytics is the live query service; nil when disabled. It has
	// its own listener and lifecycle: it survives the estate's clean end
	// so the sealed whole-trace analysis stays queryable, and is torn
	// down by CloseAnalytics.
	analytics *analytics

	held  bool
	start chan struct{}

	wg sync.WaitGroup
}

// ErrDurationReached is the clean end of an estate service: the hosted
// measurement ran its full scheduled duration on the shared clock.
var ErrDurationReached = errors.New("server: estate duration reached")

// peerLink is one outgoing inter-server connection. Within a tick at
// most one sender goroutine owns each link, so frames and acks stay
// strictly ordered per link even when many links fan out concurrently.
type peerLink struct {
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
}

// tickRouting sequences one tick's transfer handoffs: frames are sent
// concurrently per link, but the destination-side injects and the
// source-side resolves must interleave in the migration sweep's slice
// order — admissions consume the shared estate rng and race region
// capacity, so inject g may not run until resolves 0..g-1 completed
// (a resolve at region A frees the slot a later inject into A needs).
// queues maps each link to its pending global indices so servePeer can
// learn a transfer's slot without a wire-format change; next is the
// resolved-prefix length the injectors gate on.
type tickRouting struct {
	cond    *sync.Cond
	next    int
	aborted bool
	queues  map[int][]int
}

// TickStats summarises the tick loop's wall-clock behaviour: how often
// the shared clock advanced, how much wall time stepping consumed, and
// whether any ticker interval overran its budget — the signal that the
// simulated clock fell behind real time at the configured warp.
type TickStats struct {
	// Intervals counts ticker fires that stepped the clock; Steps is
	// the total simulated seconds they advanced.
	Intervals int64
	Steps     int64
	// Total and Max are the wall time spent stepping, summed and for
	// the slowest single interval.
	Total time.Duration
	Max   time.Duration
	// Budget is the per-interval wall budget (TickEvery); OverBudget
	// counts intervals whose stepping exceeded it. A sustained run with
	// OverBudget == 0 never fell behind its warped clock.
	Budget     time.Duration
	OverBudget int64
}

// TickStats returns a snapshot of the tick loop's timing counters.
func (s *EstateServer) TickStats() TickStats {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	st := s.ticks
	st.Budget = s.cfg.TickEvery
	return st
}

// recordTick folds one ticker interval's stepping cost into the stats.
func (s *EstateServer) recordTick(steps int, elapsed time.Duration) {
	s.tickMu.Lock()
	s.ticks.Intervals++
	s.ticks.Steps += int64(steps)
	s.ticks.Total += elapsed
	if elapsed > s.ticks.Max {
		s.ticks.Max = elapsed
	}
	if elapsed > s.cfg.TickEvery {
		s.ticks.OverBudget++
	}
	s.tickMu.Unlock()
}

// PeerTimeoutError reports an inter-server exchange that timed out: a
// peer region server stopped answering mid-handoff. Without the
// deadline, a dead peer between Transfer and TransferAck would hang the
// shared clock forever; with it, the estate fails loudly instead.
type PeerTimeoutError struct {
	// From and To are the handoff's estate region indices.
	From, To int
	// Op names the exchange that timed out ("peer handshake" or
	// "transfer ack").
	Op  string
	Err error
}

// Error implements error.
func (e *PeerTimeoutError) Error() string {
	return fmt.Sprintf("region %d -> %d: %s timed out: %v", e.From, e.To, e.Op, e.Err)
}

// Unwrap exposes the underlying network error.
func (e *PeerTimeoutError) Unwrap() error { return e.Err }

// peerTimeout returns the configured inter-server exchange bound.
func (s *EstateServer) peerTimeout() time.Duration {
	if s.cfg.PeerTimeout > 0 {
		return s.cfg.PeerTimeout
	}
	return 5 * time.Second
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// NewEstate validates the estate, builds one region server per cell plus
// the directory listener, and wires the inter-server transfer fabric.
func NewEstate(cfg EstateConfig) (*EstateServer, error) {
	if cfg.Warp <= 0 {
		cfg.Warp = 1
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	est, err := world.NewEstateSim(cfg.Estate)
	if err != nil {
		return nil, err
	}
	s := &EstateServer{
		cfg:      cfg,
		duration: cfg.Estate.EffectiveDuration(),
		est:      est,
		peers:    make(map[int]*peerLink),
		inPeers:  make(map[net.Conn]struct{}),
		dirConns: make(map[net.Conn]struct{}),
		held:     cfg.Hold,
		start:    make(chan struct{}),
	}
	s.routing.cond = sync.NewCond(&s.mu)
	s.routing.queues = make(map[int][]int)
	if !cfg.Hold {
		close(s.start)
	}
	fail := func(err error) (*EstateServer, error) {
		s.closeListeners()
		if s.analytics != nil {
			s.analytics.close()
		}
		return nil, err
	}
	for i := 0; i < est.NumRegions(); i++ {
		addr := "127.0.0.1:0"
		if i < len(cfg.RegionAddrs) && cfg.RegionAddrs[i] != "" {
			addr = cfg.RegionAddrs[i]
		}
		host, err := newLandHost(&s.mu, &s.closed, est.Region(i), addr, cfg.Warp, cfg.Password)
		if err != nil {
			return fail(err)
		}
		host.defaultAOI = cfg.AOIRadius
		// A lone region has no peers, so it opens no transfer-link
		// surface: PeerHello is refused with ErrNotEstate.
		if est.NumRegions() > 1 {
			region := i
			host.onPeer = func(conn net.Conn, hello slp.PeerHello) {
				s.servePeer(region, conn)
			}
		}
		s.hosts = append(s.hosts, host)
	}
	dirAddr := cfg.Addr
	if dirAddr == "" {
		dirAddr = "127.0.0.1:0"
	}
	s.dirLn, err = net.Listen("tcp", dirAddr)
	if err != nil {
		return fail(err)
	}
	if cfg.Analytics.enabled() {
		acfg := cfg.Analytics.withDefaults()
		metas := make([]core.RegionMeta, len(s.hosts))
		infos := make([]trace.Info, len(s.hosts))
		for i, h := range s.hosts {
			scn := h.sim.Scenario()
			origin := cfg.Estate.RegionOrigin(i)
			metas[i] = core.RegionMeta{Name: scn.Land.Name, Origin: origin, Size: scn.Land.Size}
			infos[i] = regionInfo(cfg.Estate.Name, scn.Land.Name, origin, scn.Land.Size, acfg.Tau)
		}
		a, err := newAnalytics(cfg.Estate.Name, metas, infos, acfg)
		if err != nil {
			return fail(err)
		}
		s.analytics = a
	}
	// An estate whose directory cannot be framed (too many regions, or
	// absurd names) is a configuration error: fail here, loudly, instead
	// of serving a grid nobody can discover.
	if _, err := slp.Marshal(s.directoryLocked()); err != nil {
		return fail(fmt.Errorf("server: estate directory does not fit a frame: %w", err))
	}
	return s, nil
}

func (s *EstateServer) closeListeners() {
	for _, h := range s.hosts {
		h.ln.Close()
	}
	if s.dirLn != nil {
		s.dirLn.Close()
	}
}

// DirectoryAddr returns the directory endpoint's bound address — the
// single address a client needs to discover the whole grid.
func (s *EstateServer) DirectoryAddr() string { return s.dirLn.Addr().String() }

// RegionAddr returns region i's bound listen address.
func (s *EstateServer) RegionAddr(i int) string { return s.hosts[i].addr() }

// QueryAddr returns the analytics query endpoint's bound address, or ""
// when analytics is disabled.
func (s *EstateServer) QueryAddr() string {
	if s.analytics == nil {
		return ""
	}
	return s.analytics.addr()
}

// CloseAnalytics tears the analytics service down: the engine is sealed
// (finalising the whole-trace analysis from whatever was fed), the query
// listener and every reader connection close, and their goroutines are
// waited out. Idempotent; a no-op when analytics is disabled. Run leaves
// the service up on a clean end so the sealed result stays queryable —
// the owner calls this when done with it.
func (s *EstateServer) CloseAnalytics() {
	if s.analytics != nil {
		s.analytics.close()
	}
}

// AnalyticsErr reports the analytics engine's failure, if any; call it
// after CloseAnalytics (or after Run returned, which seals the engine).
func (s *EstateServer) AnalyticsErr() error {
	if s.analytics == nil {
		return nil
	}
	return s.analytics.Err()
}

// NumRegions returns the number of hosted regions.
func (s *EstateServer) NumRegions() int { return len(s.hosts) }

// SimTime returns the shared clock.
func (s *EstateServer) SimTime() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Time()
}

// Crossings returns how many walking handoffs completed over the
// inter-server links.
func (s *EstateServer) Crossings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Crossings()
}

// Teleports returns how many inter-region teleports completed over the
// inter-server links.
func (s *EstateServer) Teleports() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Teleports()
}

// BlockedHandoffs returns how many handoffs destinations refused at
// capacity.
func (s *EstateServer) BlockedHandoffs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.BlockedHandoffs()
}

// StartClock releases a held clock (idempotent) and returns the shared
// clock value.
func (s *EstateServer) StartClock() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held {
		s.held = false
		close(s.start)
	}
	return s.est.Time()
}

// directoryLocked assembles the directory reply.
func (s *EstateServer) directoryLocked() slp.Directory {
	dir := slp.Directory{
		Estate:   s.cfg.Estate.Name,
		Rows:     uint16(s.cfg.Estate.Rows),
		Cols:     uint16(s.cfg.Estate.Cols),
		SimTime:  s.est.Time(),
		Warp:     s.cfg.Warp,
		Duration: s.duration,
		Held:     s.held,
	}
	if s.analytics != nil {
		dir.QueryAddr = s.analytics.addr()
	}
	for i, h := range s.hosts {
		scn := h.sim.Scenario()
		dir.Regions = append(dir.Regions, slp.DirRegion{
			Name:   scn.Land.Name,
			Addr:   h.addr(),
			Origin: s.cfg.Estate.RegionOrigin(i),
			Size:   scn.Land.Size,
		})
	}
	return dir
}

// Run serves the estate until the context is cancelled, a region or
// inter-server connection fails, or the estate duration elapses on the
// shared clock. It always returns a non-nil reason.
func (s *EstateServer) Run(ctx context.Context) error {
	defer s.closeListeners()

	acceptErr := make(chan error, len(s.hosts)+1)
	for _, h := range s.hosts {
		host := h
		go func() { acceptErr <- host.acceptLoop(&s.wg) }()
	}
	go func() { acceptErr <- s.directoryLoop() }()

	// A held clock waits for release before tick one, so monitors can
	// subscribe first and observe the measurement from its first second.
	select {
	case <-s.start:
	case <-ctx.Done():
		s.shutdown()
		return ctx.Err()
	case err := <-acceptErr:
		s.shutdown()
		return err
	}

	ticker := time.NewTicker(s.cfg.TickEvery)
	defer ticker.Stop()
	carry := 0.0
	for {
		select {
		case <-ctx.Done():
			s.shutdown()
			return ctx.Err()
		case err := <-acceptErr:
			s.shutdown()
			return err
		case <-ticker.C:
			carry += s.cfg.Warp * s.cfg.TickEvery.Seconds()
			steps := int(carry)
			carry -= float64(steps)
			if steps == 0 {
				continue
			}
			began := time.Now()
			for i := 0; i < steps; i++ {
				end, err := s.step()
				if err != nil {
					s.shutdown()
					return fmt.Errorf("server: estate handoff failed: %w", err)
				}
				if end {
					s.recordTick(i+1, time.Since(began))
					s.shutdown()
					return ErrDurationReached
				}
			}
			s.recordTick(steps, time.Since(began))
		}
	}
}

// step advances the shared clock by one second: every region simulation
// ticks under the lock, then the tick's cross-region handoffs are routed
// over the inter-server links — frames issued concurrently per link,
// acks resolved in the migration sweep's slice order — and finally the
// post-step serving phase runs: sensors scan, each host materialises
// its map snapshot, and due subscription pushes go out, after all
// handoffs settled.
func (s *EstateServer) step() (bool, error) {
	s.mu.Lock()
	transfers := s.est.StepPending()
	s.mu.Unlock()

	if len(transfers) > 0 {
		if err := s.routeTick(transfers); err != nil {
			return false, err
		}
	}

	s.mu.Lock()
	now := s.est.Time()
	for _, h := range s.hosts {
		h.stepLocked(now)
	}
	// Sample for analytics under the lock — after handoffs settled, the
	// same instant an in-process EstateSource would observe — but hand
	// the tick to the engine outside it, so analysis can never hold the
	// clock.
	var tick trace.EstateTick
	sample := s.analytics != nil && now > 0 && now%s.analytics.tau() == 0
	if sample {
		tick = trace.EstateTick{T: now, Regions: make([]trace.Snapshot, len(s.hosts))}
		for i, h := range s.hosts {
			states := h.sim.ResidentStates(nil)
			snap := trace.Snapshot{T: now, Samples: make([]trace.Sample, len(states))}
			for j, st := range states {
				snap.Samples[j] = trace.Sample{ID: st.ID, Pos: st.Pos, Seated: st.Seated}
			}
			tick.Regions[i] = snap
		}
	}
	s.mu.Unlock()
	if sample {
		s.analytics.offer(tick)
	}
	return now >= s.duration, nil
}

// transferAck is one routed handoff's outcome, delivered by the link's
// sender goroutine to the resolver.
type transferAck struct {
	accepted bool
	err      error
}

// routeTick carries one tick's handoffs to their destination region
// servers. The wire work is concurrent — each link's sender goroutine
// pipelines its Transfer frames up-front and then reads that link's
// acks in order — while the semantic order is preserved exactly: the
// destination-side injects are gated on tickRouting so they happen in
// slice order, interleaved with this goroutine resolving ack i before
// inject i+1 may run, which is ResolveTransfer's contract and the
// serial loop's rng/capacity behaviour bit for bit.
func (s *EstateServer) routeTick(transfers []world.Transfer) error {
	n := len(s.hosts)
	// Group by link in slice order; dial any missing links first, from
	// this goroutine, so s.peers sees no concurrent writes.
	linkOrder := make([]int, 0, 4)
	byLink := make(map[int][]int)
	for g, tr := range transfers {
		key := tr.From*n + tr.To
		if _, seen := byLink[key]; !seen {
			linkOrder = append(linkOrder, key)
			if _, dialed := s.peers[key]; !dialed {
				link, err := s.dialPeer(tr.From, tr.To)
				if err != nil {
					return err
				}
				s.peers[key] = link
			}
		}
		byLink[key] = append(byLink[key], g)
	}

	// Publish the routing plan so each destination's peer handler can
	// recover its transfers' global slots from link arrival order.
	s.mu.Lock()
	s.routing.next = 0
	s.routing.aborted = false
	for key, list := range byLink {
		s.routing.queues[key] = list
	}
	s.mu.Unlock()

	acks := make([]chan transferAck, len(transfers))
	for g := range acks {
		acks[g] = make(chan transferAck, 1)
	}
	for _, key := range linkOrder {
		link, list := s.peers[key], byLink[key]
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, g := range list {
				tr := transfers[g]
				if err := link.send(slp.Transfer{
					From:     uint32(tr.From),
					To:       uint32(tr.To),
					Teleport: tr.Teleport,
					Avatar:   tr.Avatar,
				}); err != nil {
					err = fmt.Errorf("region %d -> %d: transfer send: %w", tr.From, tr.To, err)
					for _, rest := range list {
						acks[rest] <- transferAck{err: err}
					}
					return
				}
			}
			for k, g := range list {
				accepted, err := link.readAck(transfers[g])
				if err != nil {
					for _, rest := range list[k:] {
						acks[rest] <- transferAck{err: err}
					}
					return
				}
				acks[g] <- transferAck{accepted: accepted}
			}
		}()
	}

	var firstErr error
	for g := range transfers {
		a := <-acks[g]
		if a.err != nil {
			firstErr = a.err
			break
		}
		s.mu.Lock()
		s.est.ResolveTransfer(g, a.accepted)
		s.routing.next++
		s.routing.cond.Broadcast()
		s.mu.Unlock()
	}
	// On failure, release any injector still waiting for its turn; the
	// sender goroutines self-terminate on their write/read deadlines and
	// are joined by shutdown via s.wg. Leftover queue entries (consumed
	// only up to the failure) are dropped with the estate.
	s.mu.Lock()
	if firstErr != nil {
		s.routing.aborted = true
		s.routing.cond.Broadcast()
	}
	clear(s.routing.queues)
	s.mu.Unlock()
	return firstErr
}

// dialPeer opens and authenticates an outgoing link to region `to` on
// behalf of region `from`; the caller owns (and caches) the link.
func (s *EstateServer) dialPeer(from, to int) (*peerLink, error) {
	conn, err := net.DialTimeout("tcp", s.hosts[to].addr(), s.peerTimeout())
	if err != nil {
		return nil, fmt.Errorf("region %d -> %d: %w", from, to, err)
	}
	link := &peerLink{conn: conn, bw: bufio.NewWriter(conn), timeout: s.peerTimeout()}
	if err := link.send(slp.PeerHello{Version: slp.Version, Region: uint32(from), Password: s.cfg.Password}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("region %d -> %d: peer hello: %w", from, to, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(s.peerTimeout()))
	reply, err := slp.ReadMessage(conn)
	if err != nil {
		conn.Close()
		if isTimeout(err) {
			return nil, &PeerTimeoutError{From: from, To: to, Op: "peer handshake", Err: err}
		}
		return nil, fmt.Errorf("region %d -> %d: peer handshake: %w", from, to, err)
	}
	if e, isErr := reply.(slp.Error); isErr {
		conn.Close()
		return nil, fmt.Errorf("region %d -> %d: peer refused (%d): %s", from, to, e.Code, e.Message)
	}
	if _, isWelcome := reply.(slp.Welcome); !isWelcome {
		conn.Close()
		return nil, fmt.Errorf("region %d -> %d: unexpected peer handshake reply %s", from, to, reply.Type())
	}
	return link, nil
}

// readAck reads one TransferAck off the link. The read is bounded: a
// peer that dies between Transfer and TransferAck must fail the estate,
// not hang the shared clock forever.
func (l *peerLink) readAck(tr world.Transfer) (bool, error) {
	_ = l.conn.SetReadDeadline(time.Now().Add(l.timeout))
	reply, err := slp.ReadMessage(l.conn)
	if err != nil {
		if isTimeout(err) {
			return false, &PeerTimeoutError{From: tr.From, To: tr.To, Op: "transfer ack", Err: err}
		}
		return false, fmt.Errorf("region %d -> %d: transfer ack: %w", tr.From, tr.To, err)
	}
	switch v := reply.(type) {
	case slp.TransferAck:
		return v.Accepted, nil
	case slp.Error:
		return false, fmt.Errorf("region %d -> %d: transfer rejected (%d): %s", tr.From, tr.To, v.Code, v.Message)
	default:
		return false, fmt.Errorf("region %d -> %d: unexpected transfer reply %s", tr.From, tr.To, reply.Type())
	}
}

func (l *peerLink) send(m slp.Message) error {
	_ = l.conn.SetWriteDeadline(time.Now().Add(l.timeout))
	if err := slp.WriteMessage(l.bw, m); err != nil {
		return err
	}
	return l.bw.Flush()
}

// servePeer runs the destination side of an inter-server link on region
// `region`: it welcomes the peer, then admits (or refuses) each incoming
// avatar transfer.
func (s *EstateServer) servePeer(region int, conn net.Conn) {
	bw := bufio.NewWriter(conn)
	write := func(m slp.Message) error {
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := slp.WriteMessage(bw, m); err != nil {
			return err
		}
		return bw.Flush()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.inPeers[conn] = struct{}{}
	name := s.hosts[region].sim.Scenario().Land.Name
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inPeers, conn)
		s.mu.Unlock()
	}()
	if err := write(slp.Welcome{Land: name}); err != nil {
		return
	}
	for {
		msg, err := slp.ReadMessage(conn)
		if err != nil {
			var de *slp.DecodeError
			if errors.As(err, &de) {
				_ = write(slp.Error{Code: slp.ErrMalformed, Message: de.Error()})
			}
			return
		}
		tr, ok := msg.(slp.Transfer)
		if !ok {
			if _, bye := msg.(slp.Logout); bye {
				return
			}
			_ = write(slp.Error{Code: slp.ErrBadRequest,
				Message: fmt.Sprintf("unexpected %s on transfer link", msg.Type())})
			return
		}
		if int(tr.To) != region {
			_ = write(slp.Error{Code: slp.ErrBadRequest,
				Message: fmt.Sprintf("transfer addressed to region %d arrived at %d", tr.To, region)})
			return
		}
		s.mu.Lock()
		// A transfer on a link the tick planned carries a global slot:
		// frames arrive in link order, so popping the link's queue
		// recovers it, and the inject then waits its turn behind the
		// resolves of every earlier slot (see tickRouting). A transfer
		// with no plan entry — an external peer injecting out-of-band —
		// keeps the legacy immediate-inject path.
		key := int(tr.From)*len(s.hosts) + int(tr.To)
		if q := s.routing.queues[key]; len(q) > 0 {
			g := q[0]
			s.routing.queues[key] = q[1:]
			for s.routing.next != g && !s.routing.aborted && !s.closed {
				s.routing.cond.Wait()
			}
			if s.routing.aborted || s.closed {
				s.mu.Unlock()
				return
			}
		}
		accepted, err := s.est.Inject(world.Transfer{
			From:     int(tr.From),
			To:       int(tr.To),
			Teleport: tr.Teleport,
			Avatar:   tr.Avatar,
		})
		s.mu.Unlock()
		if err != nil {
			_ = write(slp.Error{Code: slp.ErrMalformed, Message: err.Error()})
			return
		}
		if err := write(slp.TransferAck{Accepted: accepted}); err != nil {
			return
		}
	}
}

// directoryLoop serves grid discovery and clock control. Connections
// are registered (under the lock, refused after shutdown began) so
// shutdown can close them: serveDirectory's read deadline is 30 s, and
// an open-but-idle monitor connection must not hold s.wg.Wait — and
// with it Run's return — for that long. The registered-before-Add
// ordering also keeps wg.Add from racing wg.Wait after close.
func (s *EstateServer) directoryLoop() error {
	for {
		conn, err := s.dirLn.Accept()
		if err != nil {
			return fmt.Errorf("server: directory accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.dirConns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.dirConns, conn)
				s.mu.Unlock()
			}()
			s.serveDirectory(conn)
		}()
	}
}

func (s *EstateServer) serveDirectory(conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	write := func(m slp.Message) error {
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := slp.WriteMessage(bw, m); err != nil {
			return err
		}
		return bw.Flush()
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		msg, err := slp.ReadMessage(conn)
		if err != nil {
			var de *slp.DecodeError
			if errors.As(err, &de) {
				_ = write(slp.Error{Code: slp.ErrMalformed, Message: de.Error()})
			}
			return
		}
		switch msg.(type) {
		case slp.DirectoryRequest:
			s.mu.Lock()
			dir := s.directoryLocked()
			s.mu.Unlock()
			if err := write(dir); err != nil {
				return
			}
		case slp.ClockStart:
			now := s.StartClock()
			if err := write(slp.ClockStarted{SimTime: now}); err != nil {
				return
			}
		case slp.Logout:
			return
		default:
			_ = write(slp.Error{Code: slp.ErrBadRequest,
				Message: fmt.Sprintf("unexpected %s at directory endpoint", msg.Type())})
			return
		}
	}
}

func (s *EstateServer) shutdown() {
	// Seal the analytics engine first (its feed ends, the whole-trace
	// analysis finalises and publishes); the query endpoint itself stays
	// up until CloseAnalytics so the sealed result remains queryable.
	if s.analytics != nil {
		s.analytics.seal()
	}
	// Flag closed first (no new sessions), then let queued pushes reach
	// the wire before tearing connections down: the run's final
	// snapshots are queued asynchronously, and a monitor that misses
	// them cannot reproduce the measurement.
	s.mu.Lock()
	s.closed = true
	var sessions []*session
	for _, h := range s.hosts {
		sessions = append(sessions, h.sessionsLocked()...)
	}
	s.mu.Unlock()
	drainSessions(sessions, 5*time.Second)
	s.mu.Lock()
	for _, h := range s.hosts {
		h.shutdownLocked()
	}
	for _, l := range s.peers {
		l.conn.Close()
	}
	for conn := range s.inPeers {
		conn.Close()
	}
	for conn := range s.dirConns {
		conn.Close()
	}
	// Wake any injector still gated on its routing turn; with closed
	// set it gives up instead of waiting on a tick that will never
	// resolve.
	s.routing.cond.Broadcast()
	s.mu.Unlock()
	s.closeListeners()
	s.wg.Wait()
}
