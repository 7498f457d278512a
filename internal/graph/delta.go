package graph

import (
	"slmob/internal/geom"
)

// DefaultChurnThreshold is the moved+arrived+departed fraction of the
// population above which ApplyPositions abandons the incremental patch
// and rebuilds from scratch. Measured with slbench -churn-sweep: the
// incremental path stays profitable well past half the population
// changing per snapshot (the patch touches only dirty neighbourhoods,
// while a rebuild re-queries everyone), and above that the two paths
// cost about the same — so the fallback exists to bound the worst case,
// not to win the average one.
const DefaultChurnThreshold = 0.75

// WorkspaceStats counts how the incremental engine served a workspace's
// build calls — the observability feed behind slbench's incremental-hit
// report. Counters only ever increase; Add folds another workspace's
// counters in, so per-range and per-region workspaces aggregate.
type WorkspaceStats struct {
	// Snapshots counts ApplyPositions calls.
	Snapshots int64
	// Incremental counts snapshots served by the delta path.
	Incremental int64
	// FullRebuilds counts snapshots that rebuilt from scratch: the first
	// snapshot, range changes, churn-fallback triggers, and builds after
	// a FromPositions invalidated the state.
	FullRebuilds int64
	// Moved / Arrived / Departed count per-avatar diff outcomes across
	// all diffed snapshots (fallback snapshots included — the diff is
	// what decides the fallback).
	Moved    int64
	Arrived  int64
	Departed int64
	// EdgesAdded / EdgesRemoved count adjacency patches on the delta
	// path. Scratch rebuilds are not counted: the rates describe
	// incremental work.
	EdgesAdded   int64
	EdgesRemoved int64
}

// Add folds another stats block into st.
func (st *WorkspaceStats) Add(o WorkspaceStats) {
	st.Snapshots += o.Snapshots
	st.Incremental += o.Incremental
	st.FullRebuilds += o.FullRebuilds
	st.Moved += o.Moved
	st.Arrived += o.Arrived
	st.Departed += o.Departed
	st.EdgesAdded += o.EdgesAdded
	st.EdgesRemoved += o.EdgesRemoved
}

// Stats returns a copy of the workspace's incremental-engine counters.
func (ws *Workspace) Stats() WorkspaceStats { return ws.stats }

// SetChurnThreshold overrides the churn fraction above which
// ApplyPositions falls back to a full rebuild. Zero restores
// DefaultChurnThreshold; a negative value forces a rebuild on every call
// (the parity-test configuration); 1 or more disables the fallback.
func (ws *Workspace) SetChurnThreshold(t float64) { ws.d.thresh = t }

// deltaState is the temporal-coherence state ApplyPositions keeps between
// snapshots. Avatars live in stable slots so that identity survives the
// index reshuffling of arrivals and departures: the grid and the
// slot-space adjacency are keyed by slot, and each call translates the
// patched slot-space graph into the workspace's index-space CSR arena.
type deltaState struct {
	ok     bool    // slot state mirrors the previous snapshot
	r      float64 // communication range the state is keyed to
	thresh float64 // churn fallback threshold; 0 selects the default
	epoch  int64   // ApplyPositions call counter, for generation stamps

	grid *geom.Grid // persistent grid over live slots, patched in place

	idOf  map[uint64]int32 // avatar id -> slot
	id    []uint64         // slot -> avatar id
	pos   []geom.Vec       // slot -> last observed position
	nbr   [][]int32        // slot-space adjacency, unordered
	seen  []int64          // slot -> epoch last present (departure detection)
	dirtG []int64          // slot -> epoch last marked dirty
	free  []int32          // recyclable slots
	live  []int32          // slots present in the previous snapshot

	slotOf []int32 // current index -> slot
	idxOf  []int32 // slot -> current index

	// Edge diff of the latest call against the previous build, valid
	// when diffOK (incremental calls only). oldNbr/oldOff hold each dirty
	// slot's neighbours from before the patch; mark is a slot-indexed
	// stamp table for the old-vs-new set comparisons.
	diffOK  bool
	removed [][2]uint64
	added   [][2]int32
	oldNbr  []int32
	oldOff  []int32
	mark    []int64
	stamp   int64

	// Per-call scratch.
	dirty    []int32 // slots whose edges must be recomputed
	departed []int32
	arrived  []int32 // current indices of new avatars
	moved    []int32 // current indices of avatars whose (X, Y) changed
}

// ApplyPositions builds the same proximity graph FromPositions builds —
// identical vertex indexing, identical edge set — by diffing the snapshot
// against the previous ApplyPositions call and patching only what
// changed: avatars whose ground-plane position moved, arrivals, and
// departures. ids[i] is the stable identity of the avatar at ps[i]; ids
// must be unique within a call. When the churn fraction exceeds the
// threshold (SetChurnThreshold), or on the first call, a range change, or
// after a FromPositions call, it falls back to a full rebuild, so the
// worst case never exceeds a scratch build.
//
// Adjacency-list order may differ from FromPositions, but every metric
// the pipeline derives — degrees, diameter, clustering, contact pairs —
// depends only on the edge set and is bit-identical between the two
// builders. The returned graph is invalidated by the next build call.
//
//slmob:hotpath
func (ws *Workspace) ApplyPositions(ids []uint64, ps []geom.Vec, r float64) *Graph {
	if len(ids) != len(ps) {
		panic("graph: ApplyPositions ids/positions length mismatch")
	}
	ws.stats.Snapshots++
	ws.rowsOK = false
	d := &ws.d
	d.diffOK = false
	if r <= 0 {
		// Degenerate range: no edges ever; the scratch builder handles it
		// (and invalidates the delta state).
		ws.stats.FullRebuilds++
		return ws.FromPositions(ps, r)
	}
	if !d.ok || d.r != r {
		return ws.rebuildDelta(ids, ps, r)
	}

	// Diff the snapshot against the slot state.
	n := len(ids)
	d.epoch++
	d.slotOf = growInt32(d.slotOf, n)
	d.moved = d.moved[:0]
	d.arrived = d.arrived[:0]
	d.departed = d.departed[:0]
	for i := 0; i < n; i++ {
		s, ok := d.idOf[ids[i]]
		if !ok {
			d.slotOf[i] = -1
			d.arrived = append(d.arrived, int32(i))
			continue
		}
		d.slotOf[i] = s
		d.seen[s] = d.epoch
		d.idxOf[s] = int32(i)
		if p := ps[i]; p.X != d.pos[s].X || p.Y != d.pos[s].Y {
			d.moved = append(d.moved, int32(i))
		}
	}
	for _, s := range d.live {
		if d.seen[s] != d.epoch {
			d.departed = append(d.departed, s)
		}
	}
	ws.stats.Moved += int64(len(d.moved))
	ws.stats.Arrived += int64(len(d.arrived))
	ws.stats.Departed += int64(len(d.departed))

	// Churn heuristic: beyond the threshold a scratch rebuild costs less
	// than patching nearly everyone's neighbourhood.
	base := n
	if p := len(d.live); p > base {
		base = p
	}
	changed := len(d.moved) + len(d.arrived) + len(d.departed)
	thresh := d.thresh
	if thresh == 0 {
		thresh = DefaultChurnThreshold
	}
	if thresh < 0 || float64(changed) > thresh*float64(base) {
		return ws.rebuildDelta(ids, ps, r)
	}
	ws.stats.Incremental++

	// Departures: report their edges as removed, detach, drop from the
	// grid, recycle the slot. A departed-departed edge is reported once:
	// the first detach takes it off the other's list.
	d.removed = d.removed[:0]
	d.added = d.added[:0]
	for _, s := range d.departed {
		for _, o := range d.nbr[s] {
			d.removed = append(d.removed, [2]uint64{d.id[s], d.id[o]})
		}
		ws.detachSlot(s)
		d.grid.Remove(int64(s), d.pos[s])
		delete(d.idOf, d.id[s])
		d.free = append(d.free, s)
	}
	// Arrivals: allocate a slot, insert into the grid, mark dirty.
	d.dirty = d.dirty[:0]
	for _, i := range d.arrived {
		s := d.allocSlot()
		d.id[s] = ids[i]
		d.idOf[ids[i]] = s
		d.pos[s] = ps[i]
		d.seen[s] = d.epoch
		d.slotOf[i] = s
		d.idxOf[s] = i
		d.grid.Insert(int64(s), ps[i])
		d.markDirty(s)
	}
	// Moves: relocate in the grid, mark dirty.
	for _, i := range d.moved {
		s := d.slotOf[i]
		d.grid.Move(int64(s), d.pos[s], ps[i])
		d.pos[s] = ps[i]
		d.markDirty(s)
	}
	d.live = d.live[:0]
	for i := 0; i < n; i++ {
		d.live = append(d.live, d.slotOf[i])
	}

	// Edge patch. Record every dirty slot's old neighbours, then detach
	// every dirty slot (so re-adds cannot duplicate), then re-derive each
	// dirty slot's neighbourhood from the patched grid. A dirty-dirty
	// pair is emitted once, from the lower-numbered slot.
	d.oldNbr = d.oldNbr[:0]
	d.oldOff = d.oldOff[:0]
	for _, s := range d.dirty {
		d.oldOff = append(d.oldOff, int32(len(d.oldNbr)))
		d.oldNbr = append(d.oldNbr, d.nbr[s]...)
	}
	d.oldOff = append(d.oldOff, int32(len(d.oldNbr)))
	for _, s := range d.dirty {
		ws.detachSlot(s)
	}
	for _, s := range d.dirty {
		ws.relinkSlot(s, r)
	}
	ws.diffDirty()

	// Translate the slot-space adjacency into the index-space CSR arena.
	if cap(ws.adj) < n {
		ws.adj = make([][]int32, n, n+n/2+8)
	}
	ws.adj = ws.adj[:n]
	ws.off = growInt32(ws.off, n+1)
	ws.off[0] = 0
	m2 := int32(0)
	for i := 0; i < n; i++ {
		m2 += int32(len(d.nbr[d.slotOf[i]]))
		ws.off[i+1] = m2
	}
	ws.arena = growInt32(ws.arena, int(m2))
	for i := 0; i < n; i++ {
		base := int(ws.off[i])
		for k, o := range d.nbr[d.slotOf[i]] {
			ws.arena[base+k] = d.idxOf[o]
		}
		ws.adj[i] = ws.arena[ws.off[i]:ws.off[i+1]:ws.off[i+1]]
	}
	ws.g = Graph{adj: ws.adj, m: int(m2) / 2}
	return &ws.g
}

// rebuildDelta builds the slot state from scratch with slot == index —
// the first-call path and the churn fallback. The scratch grid pass is
// the same two-pass build FromPositions runs; on top of it the slot
// tables and the persistent grid are refilled so the next call can patch
// incrementally.
//
//slmob:hotpath
func (ws *Workspace) rebuildDelta(ids []uint64, ps []geom.Vec, r float64) *Graph {
	ws.stats.FullRebuilds++
	d := &ws.d
	n := len(ids)
	d.epoch++
	d.r = r
	d.ensureSlots(n)
	if d.idOf == nil {
		d.idOf = make(map[uint64]int32, n)
	}
	clear(d.idOf)
	// Slots beyond the population are parked on the free list, keeping
	// their neighbour buffers for later growth; lowest slot on top.
	d.free = d.free[:0]
	for s := len(d.id) - 1; s >= n; s-- {
		d.nbr[s] = d.nbr[s][:0]
		d.free = append(d.free, int32(s))
	}
	d.live = d.live[:0]
	d.slotOf = growInt32(d.slotOf, n)
	if d.grid == nil || d.grid.CellSize() != r {
		d.grid = geom.NewGrid(r)
	} else {
		d.grid.Reset()
	}
	for i := 0; i < n; i++ {
		d.id[i] = ids[i]
		d.idOf[ids[i]] = int32(i)
		d.pos[i] = ps[i]
		d.seen[i] = d.epoch
		d.idxOf[i] = int32(i)
		d.slotOf[i] = int32(i)
		d.live = append(d.live, int32(i))
		d.grid.Insert(int64(i), ps[i])
	}

	// Scratch edge pass into the CSR arena, as FromPositions does.
	if cap(ws.adj) < n {
		ws.adj = make([][]int32, n, n+n/2+8)
	}
	ws.adj = ws.adj[:n]
	ws.g = Graph{adj: ws.adj}
	ws.pairs = ws.pairs[:0]
	for i := 0; i < n; i++ {
		d.grid.VisitWithin(ps[i], r, func(oid int64, _ geom.Vec) bool {
			if j := int32(oid); int(j) > i {
				ws.pairs = append(ws.pairs, int32(i), j)
			}
			return true
		})
	}
	ws.buildCSR(n)
	// Mirror the adjacency into the mutable slot-space lists.
	for i := 0; i < n; i++ {
		lst := d.nbr[i]
		lst = lst[:0]
		for _, v := range ws.adj[i] {
			lst = append(lst, v)
		}
		d.nbr[i] = lst
	}
	d.ok = true
	return &ws.g
}

// ensureSlots grows every slot-indexed table to at least n entries,
// preserving existing slots.
//
//slmob:hotpath
func (d *deltaState) ensureSlots(n int) {
	for len(d.id) < n {
		d.id = append(d.id, 0)
		d.pos = append(d.pos, geom.Vec{})
		d.nbr = append(d.nbr, nil)
		d.seen = append(d.seen, 0)
		d.dirtG = append(d.dirtG, 0)
		d.mark = append(d.mark, 0)
		d.idxOf = append(d.idxOf, -1)
	}
}

// allocSlot hands out a recycled slot, or a fresh one when the free list
// is empty. Recycled slots were detached when freed.
//
//slmob:hotpath
func (d *deltaState) allocSlot() int32 {
	if k := len(d.free); k > 0 {
		s := d.free[k-1]
		d.free = d.free[:k-1]
		return s
	}
	s := int32(len(d.id))
	d.ensureSlots(len(d.id) + 1)
	return s
}

// markDirty queues a slot for edge recomputation, once per call.
//
//slmob:hotpath
func (d *deltaState) markDirty(s int32) {
	if d.dirtG[s] != d.epoch {
		d.dirtG[s] = d.epoch
		d.dirty = append(d.dirty, s)
	}
}

// detachSlot removes every edge incident to s.
//
//slmob:hotpath
func (ws *Workspace) detachSlot(s int32) {
	d := &ws.d
	for _, o := range d.nbr[s] {
		lst := d.nbr[o]
		for k := range lst {
			if lst[k] == s {
				last := len(lst) - 1
				lst[k] = lst[last]
				d.nbr[o] = lst[:last]
				break
			}
		}
	}
	ws.stats.EdgesRemoved += int64(len(d.nbr[s]))
	d.nbr[s] = d.nbr[s][:0]
}

// relinkSlot re-derives s's neighbourhood from the patched grid. Edges to
// non-dirty slots are added unconditionally (s was detached, so no
// duplicate can exist); a dirty-dirty pair is added only from its
// lower-numbered endpoint, since the higher one will see it too.
//
//slmob:hotpath
func (ws *Workspace) relinkSlot(s int32, r float64) {
	d := &ws.d
	d.grid.VisitWithin(d.pos[s], r, func(oid int64, _ geom.Vec) bool {
		o := int32(oid)
		if o == s || (d.dirtG[o] == d.epoch && o < s) {
			return true
		}
		d.nbr[s] = append(d.nbr[s], o)
		d.nbr[o] = append(d.nbr[o], s)
		ws.stats.EdgesAdded++
		return true
	})
}

// diffDirty completes the edge diff from the dirty slots: the old
// neighbours each one lost are removed edges, the new neighbours it
// gained are added edges; a neighbour it kept is no change, although the
// patch detached and relinked it. A dirty-dirty pair is reported from
// its lower-numbered slot only.
//
//slmob:hotpath
func (ws *Workspace) diffDirty() {
	d := &ws.d
	for k, s := range d.dirty {
		old := d.oldNbr[d.oldOff[k]:d.oldOff[k+1]]
		cur := d.nbr[s]
		d.stamp++
		for _, o := range cur {
			d.mark[o] = d.stamp
		}
		for _, o := range old {
			if d.mark[o] != d.stamp && (d.dirtG[o] != d.epoch || o > s) {
				d.removed = append(d.removed, [2]uint64{d.id[s], d.id[o]})
			}
		}
		d.stamp++
		for _, o := range old {
			d.mark[o] = d.stamp
		}
		for _, o := range cur {
			if d.mark[o] != d.stamp && (d.dirtG[o] != d.epoch || o > s) {
				d.added = append(d.added, [2]int32{d.idxOf[s], d.idxOf[o]})
			}
		}
	}
	d.diffOK = true
}
