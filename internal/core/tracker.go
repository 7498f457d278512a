package core

import (
	"slices"

	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/trace"
)

// pastEntry is one pair's contact history: every pair that was ever in
// contact has one, for the rest of the stream, so that its next contact
// can emit an inter-contact time. A zero key.B marks an empty slot — keys
// are normalised A < B, so no real pair has B == 0.
type pastEntry struct {
	key pairKey
	// lastEnd is the last snapshot time of the pair's previous completed
	// contact; valid when hasPrev.
	lastEnd int64
	hasPrev bool
}

// liveEntry is one pair in contact as of the tracker's latest snapshot.
// Such a pair was in range at every snapshot from start to the latest.
type liveEntry struct {
	key   pairKey
	start int64 // first snapshot time of the contact
	past  int32 // the pair's pastTable slot
	// leftCensored marks a contact already in progress at the first trace
	// snapshot, whose true start is unknown.
	leftCensored bool
	// seen marks, during a full edge walk, a pair found in range again;
	// the walk's closing sweep clears it.
	seen bool
}

// minPairSlots is the slot count a pair table starts with on its
// first insertion; tables double at 3/4 load.
const minPairSlots = 64

// hashPair mixes both avatar IDs with a splitmix64-style finaliser.
//
//slmob:hotpath
func hashPair(k pairKey) uint64 {
	h := uint64(k.A)*0x9e3779b97f4a7c15 ^ uint64(k.B)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// pastTable is an insert-only open-addressed table of pair histories with
// linear probing: a pair's history feeds inter-contact times for the
// rest of the stream, so nothing is ever deleted. Lookups and
// steady-state insertions allocate nothing.
type pastTable struct {
	slots []pastEntry
	n     int
}

// lookupOrInsert returns the slot of k, inserting an empty history if
// the pair is new. isNew reports the insertion; grew reports that the
// table was resized first, which moves every slot.
//
//slmob:hotpath
func (pt *pastTable) lookupOrInsert(k pairKey) (idx int, isNew, grew bool) {
	if (pt.n+1)*4 > len(pt.slots)*3 {
		pt.grow()
		grew = true
	}
	mask := uint64(len(pt.slots) - 1)
	for i := hashPair(k) & mask; ; i = (i + 1) & mask {
		s := &pt.slots[i]
		if s.key.B == 0 {
			*s = pastEntry{key: k}
			pt.n++
			return int(i), true, grew
		}
		if s.key == k {
			return int(i), false, grew
		}
	}
}

// find returns the slot of k, or -1.
//
//slmob:hotpath
func (pt *pastTable) find(k pairKey) int {
	if pt.n == 0 {
		return -1
	}
	mask := uint64(len(pt.slots) - 1)
	for i := hashPair(k) & mask; ; i = (i + 1) & mask {
		switch pt.slots[i].key {
		case k:
			return int(i)
		case pairKey{}:
			return -1
		}
	}
}

func (pt *pastTable) grow() {
	old := pt.slots
	pt.slots = make([]pastEntry, max(2*len(old), minPairSlots))
	mask := uint64(len(pt.slots) - 1)
	for _, e := range old {
		if e.key.B == 0 {
			continue
		}
		j := hashPair(e.key) & mask
		for pt.slots[j].key.B != 0 {
			j = (j + 1) & mask
		}
		pt.slots[j] = e
	}
}

// liveTable is an open-addressed table of the pairs in contact, with
// linear probing and backward-shift deletion, so a contact's end leaves
// no tombstone and the table stays as small as the contacts in progress.
type liveTable struct {
	slots []liveEntry
	n     int
}

// find returns the slot of k, or -1.
//
//slmob:hotpath
func (lt *liveTable) find(k pairKey) int {
	if lt.n == 0 {
		return -1
	}
	mask := uint64(len(lt.slots) - 1)
	for i := hashPair(k) & mask; ; i = (i + 1) & mask {
		switch lt.slots[i].key {
		case k:
			return int(i)
		case pairKey{}:
			return -1
		}
	}
}

// insert adds e, whose pair must not be in the table.
//
//slmob:hotpath
func (lt *liveTable) insert(e liveEntry) {
	if (lt.n+1)*4 > len(lt.slots)*3 {
		lt.grow()
	}
	mask := uint64(len(lt.slots) - 1)
	i := hashPair(e.key) & mask
	for lt.slots[i].key.B != 0 {
		i = (i + 1) & mask
	}
	lt.slots[i] = e
	lt.n++
}

// remove deletes slot i and shifts the rest of its probe run back over
// the hole. Only entries after i in the run move, so a sweep that
// starts just past an empty slot can delete as it goes, re-examining
// slot i, and visits every entry exactly once.
//
//slmob:hotpath
func (lt *liveTable) remove(i int) {
	mask := len(lt.slots) - 1
	hole := i
	for j := (i + 1) & mask; lt.slots[j].key.B != 0; j = (j + 1) & mask {
		// Move j into the hole unless its home lies cyclically in
		// (hole, j], where the hole would break its probe run.
		home := int(hashPair(lt.slots[j].key)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			lt.slots[hole] = lt.slots[j]
			hole = j
		}
	}
	lt.slots[hole] = liveEntry{}
	lt.n--
}

func (lt *liveTable) grow() {
	old := lt.slots
	lt.slots = make([]liveEntry, max(2*len(old), minPairSlots))
	lt.n = 0
	for _, e := range old {
		if e.key.B != 0 {
			lt.insert(e)
		}
	}
}

// contactTracker is the per-range contact state machine shared by the
// single-land Analyzer, the batch ExtractContacts, and the estate-global
// analysis: it folds one proximity graph per snapshot into running
// CT/ICT/FT distributions. Its state is two pair tables: the
// insert-only past table holds every pair ever in contact with the end
// of its last contact, and the live table holds the contacts in
// progress. Both are allocated on first use and allocation-free at
// steady state.
//
// The machine takes its input from one of two sources. After an
// incremental graph build it reads the workspace's edge diff: a removed
// edge ends a contact, an added edge starts one, and an unchanged edge
// costs nothing. After any other build — the first snapshot, a churn
// fallback, DisableIncremental, the batch path — it walks every edge,
// checking each against the live table, and ends the live pairs the walk
// did not reach. Both sources drive the same start and end transitions,
// so they produce identical events.
//
// Every live pair was in range at each snapshot since its start, so the
// last time it was seen is the tracker's previous snapshot, prevT: a
// contact ending at t has duration prevT - start + τ and sets the pair's
// lastEnd to prevT.
//
// The tracker is the state-machine half of the metric; the event sink is
// the ContactSet bound with bind(). Every completed event — a contact
// duration, an inter-contact gap, a first-contact wait, a new pair, a
// censored interval — is emitted into the currently bound sink at the
// snapshot at which it resolves, which is what lets windowed analytics
// swap sinks at window boundaries and still have the merged windows
// reproduce the whole-trace distributions bit-identically.
type contactTracker struct {
	tau          int64
	prevT        int64 // time of the previous snapshot observed
	past         pastTable
	live         liveTable
	firstContact map[trace.AvatarID]int64
	cs           *ContactSet
}

func newContactTracker(tau int64) *contactTracker {
	return &contactTracker{
		tau:          tau,
		firstContact: make(map[trace.AvatarID]int64),
	}
}

// bind points the tracker's event emission at cs. Events already emitted
// stay where they were — binding is how a window rollover redirects the
// remainder of the stream into a fresh accumulator.
func (c *contactTracker) bind(cs *ContactSet) { c.cs = cs }

// observeBuild advances the state machine with the workspace's latest
// build: from its edge diff when the build has one, by a full edge walk
// otherwise. The tracker must have observed every earlier build of ws,
// so that its live table holds the previous build's edges.
//
//slmob:hotpath
func (c *contactTracker) observeBuild(ids []trace.AvatarID, fsT []int64, ws *graph.Workspace, t int64, first bool) {
	if diff, ok := ws.EdgeDiff(); ok && !first {
		c.observeDiff(ids, fsT, diff, t)
		return
	}
	c.observe(ids, fsT, ws.Graph(), t, first)
}

// observe advances the state machine by a full walk of the proximity
// graph g over the avatars ids at snapshot time t. fsT holds each
// avatar's first-seen time, aligned with ids, so first-contact waits are
// emitted the moment the first contact happens. first marks the
// stream's first snapshot, whose ongoing contacts are left-censored.
//
//slmob:hotpath
func (c *contactTracker) observe(ids []trace.AvatarID, fsT []int64, g *graph.Graph, t int64, first bool) {
	for i := range ids {
		nbrs := g.Neighbors(i)
		if len(nbrs) > 0 {
			c.touch(ids[i], fsT[i], t)
		}
		for _, j := range nbrs {
			if int(j) <= i {
				continue
			}
			k := makePair(ids[i], ids[j])
			if l := c.live.find(k); l >= 0 {
				c.live.slots[l].seen = true
				continue
			}
			c.start(k, t, first, true)
		}
	}
	// Ends: live pairs the walk did not mark. The sweep starts just past
	// an empty slot, so backward shifts never carry an unvisited entry
	// behind it.
	slots := c.live.slots
	if c.live.n > 0 {
		mask := len(slots) - 1
		e := 0
		for slots[e].key.B != 0 {
			e++
		}
		for step := 0; step < len(slots); {
			l := &slots[(e+1+step)&mask]
			switch {
			case l.key.B == 0:
				step++
			case l.seen:
				l.seen = false
				step++
			default:
				c.end((e + 1 + step) & mask)
			}
		}
	}
	c.prevT = t
}

// observeDiff advances the state machine from an incremental build's
// edge diff: each removed edge ends its pair's contact, each added edge
// starts one. ids and fsT are aligned with the new graph's vertices.
//
//slmob:hotpath
func (c *contactTracker) observeDiff(ids []trace.AvatarID, fsT []int64, diff graph.EdgeDiff, t int64) {
	for _, e := range diff.Removed {
		if l := c.live.find(makePair(trace.AvatarID(e[0]), trace.AvatarID(e[1]))); l >= 0 {
			c.end(l)
		}
	}
	for _, e := range diff.Added {
		i, j := e[0], e[1]
		c.touch(ids[i], fsT[i], t)
		c.touch(ids[j], fsT[j], t)
		c.start(makePair(ids[i], ids[j]), t, false, false)
	}
	c.prevT = t
}

// touch records id's first contact at t, emitting its first-contact
// wait from its first-seen time fs, unless it has had one before.
//
//slmob:hotpath
func (c *contactTracker) touch(id trace.AvatarID, fs, t int64) {
	if _, ok := c.firstContact[id]; !ok {
		c.firstContact[id] = t
		c.cs.FT.Add(float64(t - fs))
	}
}

// start opens a contact for pair k at t, which must not be live.
//
//slmob:hotpath
func (c *contactTracker) start(k pairKey, t int64, first, seen bool) {
	p, isNew, grew := c.past.lookupOrInsert(k)
	if grew {
		c.repoint()
	}
	if isNew {
		c.cs.Pairs++
	} else if h := &c.past.slots[p]; h.hasPrev {
		c.cs.ICT.Add(float64(t - h.lastEnd))
	}
	c.live.insert(liveEntry{key: k, start: t, past: int32(p), leftCensored: first, seen: seen})
}

// end closes the contact in live slot l, last seen at prevT.
//
//slmob:hotpath
func (c *contactTracker) end(l int) {
	e := &c.live.slots[l]
	if e.leftCensored {
		c.cs.Censored++
	} else {
		c.cs.CT.Add(float64(c.prevT - e.start + c.tau))
	}
	h := &c.past.slots[e.past]
	h.lastEnd = c.prevT
	h.hasPrev = true
	c.live.remove(l)
}

// repoint refreshes every live entry's past-table slot after the past
// table moved its slots.
func (c *contactTracker) repoint() {
	for i := range c.live.slots {
		if e := &c.live.slots[i]; e.key.B != 0 {
			e.past = int32(c.past.find(e.key))
		}
	}
}

// finish right-censors contacts still open at the end of the stream and
// derives the never-contacted count from the stream's total population,
// emitting both into the currently bound sink (the final window).
// totalSeen is the number of distinct avatars ever observed.
func (c *contactTracker) finish(totalSeen int) *ContactSet {
	c.cs.Censored += c.live.n
	if n := totalSeen - len(c.firstContact); n > 0 {
		c.cs.NeverContacted += n
	}
	return c.cs
}

// tripTracker is the per-avatar sessionisation state machine shared by
// the single-land Analyzer and the estate-global analysis: an avatar
// absent longer than the session gap logs out and back in; displacement
// above moveEps between consecutive samples counts as movement. Closed
// sessions are appended to the bound output list (*out) at the snapshot
// their closure is detected — the window-attribution point.
type tripTracker struct {
	moveEps float64
	gap     int64
	open    map[trace.AvatarID]*sessionState
	out     *[]closedSession
}

func newTripTracker(moveEps float64, gap int64, out *[]closedSession) *tripTracker {
	return &tripTracker{
		moveEps: moveEps,
		gap:     gap,
		open:    make(map[trace.AvatarID]*sessionState),
		out:     out,
	}
}

// bind redirects closed-session emission, the trip analogue of
// contactTracker.bind.
func (tt *tripTracker) bind(out *[]closedSession) { tt.out = out }

// observe folds one avatar sample at snapshot time t into the tracker.
// Seated samples keep the session alive but contribute no movement.
// Session (re)creation allocates, but only on login/relogin, never at
// per-sample steady state.
//
//slmob:hotpath
func (tt *tripTracker) observe(id trace.AvatarID, pos geom.Vec, seated bool, t int64) {
	ss := tt.open[id]
	if ss != nil && t-ss.last > tt.gap {
		tt.closeSession(id, ss)
		*ss = sessionState{login: t}
	}
	if ss == nil {
		ss = &sessionState{login: t}
		tt.open[id] = ss
	}
	ss.last = t
	if seated {
		return
	}
	if ss.hasPrev {
		d := pos.DistXY(ss.prevPos)
		ss.length += d
		if d > tt.moveEps {
			ss.moving += t - ss.prevT
		}
	}
	ss.hasPrev = true
	ss.prevPos = pos
	ss.prevT = t
}

// closeSession emits one finished session into the bound output. The
// append is self-amortising: the closed-session buffer is recycled
// across windows.
//
//slmob:hotpath
func (tt *tripTracker) closeSession(id trace.AvatarID, ss *sessionState) {
	*tt.out = append(*tt.out, closedSession{
		id:       id,
		login:    ss.login,
		duration: ss.last - ss.login,
		length:   ss.length,
		moving:   ss.moving,
	})
}

// closeAll closes every open session into the bound output — the
// end-of-stream flush feeding the final window. Sessions close in
// ascending avatar order: the flush feeds the checkpointed closed-
// session slice, and map iteration order must never reach serialized
// state.
func (tt *tripTracker) closeAll() {
	for _, id := range sortedKeys(tt.open) {
		tt.closeSession(id, tt.open[id])
	}
}

// buildTripStats sorts the closed sessions into the batch path's order
// (login time, then avatar ID) and fills ts, reusing its slices. The
// session records themselves are retained (copied) as merge keys, so
// window TripStats can be re-merged into the whole-trace ordering.
func buildTripStats(closed []closedSession, ts *TripStats) *TripStats {
	if ts == nil {
		ts = &TripStats{}
	}
	slices.SortFunc(closed, func(a, b closedSession) int {
		if a.login != b.login {
			if a.login < b.login {
				return -1
			}
			return 1
		}
		if a.id != b.id {
			if a.id < b.id {
				return -1
			}
			return 1
		}
		return 0
	})
	ts.TravelTime = ts.TravelTime[:0]
	ts.TravelLength = ts.TravelLength[:0]
	ts.EffectiveTravelTime = ts.EffectiveTravelTime[:0]
	ts.sess = append(ts.sess[:0], closed...)
	for _, cs := range closed {
		ts.TravelTime = append(ts.TravelTime, float64(cs.duration))
		ts.TravelLength = append(ts.TravelLength, cs.length)
		ts.EffectiveTravelTime = append(ts.EffectiveTravelTime, float64(cs.moving))
	}
	return ts
}
