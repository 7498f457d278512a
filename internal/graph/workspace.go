package graph

import (
	"math/bits"

	"slmob/internal/geom"
)

// Workspace owns every buffer the snapshot-rate graph pipeline needs —
// the spatial grid, a flat CSR-style adjacency arena, the component
// scratch, and the adjacency bitset the line-of-sight metrics run on —
// so that building a proximity graph and computing its diameter and
// clustering performs zero heap allocations per snapshot once the
// buffers have warmed up to the population size. One Workspace serves
// one goroutine and one communication range at a time; it is not safe
// for concurrent use.
//
// Two build modes share the storage. FromPositions rebuilds the graph
// from scratch every call; ApplyPositions (delta.go) diffs the snapshot
// against the previous one and patches only what moved. Both modes
// produce graphs with identical edge sets, and Diameter and
// MeanClustering run the same bitset kernels on either, so every metric
// — degrees, diameter, clustering — is bit-identical between the two.
//
// The *Graph returned by FromPositions or ApplyPositions aliases the
// workspace's arena and is valid only until the next build call.
type Workspace struct {
	grid     *geom.Grid
	gridCell float64

	pairs []int32   // flat (u, v) pair list, two entries per edge
	off   []int32   // CSR offsets, n+1 entries
	cur   []int32   // fill cursors during CSR construction
	arena []int32   // flat neighbour storage
	adj   [][]int32 // per-vertex views into arena
	g     Graph     // the reusable graph header handed back to callers

	// Component scratch for Diameter.
	queue []int32
	seen  []bool
	comp  []int32 // current component under construction
	best  []int32 // largest component seen so far

	// Adjacency bitset for the metric kernels: row u is
	// rows[u*w : (u+1)*w] with w = ⌈n/64⌉. rowsOK marks it current for
	// g; the builders clear it and fillRows refills on the first metric
	// call.
	rows   []uint64
	rowsOK bool
	front  []uint64 // visited, frontier, next: three rows of BFS scratch

	// Incremental (temporal-coherence) state for ApplyPositions.
	d     deltaState
	stats WorkspaceStats
}

// NewWorkspace returns an empty workspace. Buffers grow on demand and are
// retained across calls.
func NewWorkspace() *Workspace { return &Workspace{} }

// growInt32 returns buf resized to n, preserving the live prefix when a
// reallocation is needed — callers like the delta path's slot tables rely
// on existing entries surviving population growth.
//
//slmob:hotpath
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		nb := make([]int32, n, n+n/2+8)
		copy(nb, buf)
		return nb
	}
	return buf[:n]
}

// FromPositions builds the line-of-sight proximity graph over the given
// positions at range r into the workspace's reusable storage. It produces
// exactly the graph the package-level FromPositions builds — identical
// adjacency lists in identical order — without the per-snapshot
// allocations. The returned graph is invalidated by the next call.
//
// FromPositions discards any incremental state: a subsequent
// ApplyPositions starts from a full rebuild.
//
//slmob:hotpath
func (ws *Workspace) FromPositions(ps []geom.Vec, r float64) *Graph {
	ws.d.ok = false
	ws.d.diffOK = false
	ws.rowsOK = false
	n := len(ps)
	if cap(ws.adj) < n {
		ws.adj = make([][]int32, n, n+n/2+8)
	}
	ws.adj = ws.adj[:n]
	ws.g = Graph{adj: ws.adj}
	if r <= 0 || n < 2 {
		for i := range ws.adj {
			ws.adj[i] = nil
		}
		return &ws.g
	}

	// The pooled grid is keyed to the query radius; a workspace is
	// typically dedicated to one communication range, so this rebuilds
	// only when the range actually changes.
	if ws.grid == nil || ws.gridCell != r {
		ws.grid = geom.NewGrid(r)
		ws.gridCell = r
	} else {
		ws.grid.Reset()
	}
	for i, p := range ps {
		ws.grid.Insert(int64(i), p)
	}

	// Pass 1: collect each unordered pair once, from its lower endpoint,
	// in the same order the incremental builder emits edges.
	ws.pairs = ws.pairs[:0]
	for i, p := range ps {
		ws.grid.VisitWithin(p, r, func(id int64, _ geom.Vec) bool {
			if j := int32(id); int(j) > i {
				ws.pairs = append(ws.pairs, int32(i), j)
			}
			return true
		})
	}
	ws.buildCSR(n)
	return &ws.g
}

// buildCSR counting-sorts ws.pairs into the CSR arena and points ws.g at
// the result. cur doubles as the degree accumulator before the prefix sum
// turns it into fill cursors.
//
//slmob:hotpath
func (ws *Workspace) buildCSR(n int) {
	ws.off = growInt32(ws.off, n+1)
	ws.cur = growInt32(ws.cur, n)
	for i := range ws.cur {
		ws.cur[i] = 0
	}
	for _, v := range ws.pairs {
		ws.cur[v]++
	}
	ws.off[0] = 0
	for i := 0; i < n; i++ {
		ws.off[i+1] = ws.off[i] + ws.cur[i]
		ws.cur[i] = ws.off[i]
	}
	ws.arena = growInt32(ws.arena, len(ws.pairs))
	for k := 0; k < len(ws.pairs); k += 2 {
		u, v := ws.pairs[k], ws.pairs[k+1]
		ws.arena[ws.cur[u]] = v
		ws.cur[u]++
		ws.arena[ws.cur[v]] = u
		ws.cur[v]++
	}
	for i := 0; i < n; i++ {
		ws.adj[i] = ws.arena[ws.off[i]:ws.off[i+1]:ws.off[i+1]]
	}
	ws.g.m = len(ws.pairs) / 2
}

// fillRows lays the current graph out as an adjacency bitset — row u
// holds bit v for every neighbour v, in w = ⌈n/64⌉ words — once per
// build, and returns w. Both line-of-sight kernels run on these rows,
// whichever builder made the graph.
//
//slmob:hotpath
func (ws *Workspace) fillRows() int {
	n := len(ws.g.adj)
	w := (n + 63) >> 6
	if ws.rowsOK {
		return w
	}
	if cap(ws.rows) < n*w {
		ws.rows = make([]uint64, n*w, n*w+n*w/2+8)
	}
	ws.rows = ws.rows[:n*w]
	clear(ws.rows)
	for u, nbrs := range ws.g.adj {
		row := ws.rows[u*w : u*w+w]
		for _, v := range nbrs {
			row[v>>6] |= 1 << (v & 63)
		}
	}
	ws.rowsOK = true
	return w
}

// Diameter computes the longest shortest path within the largest
// connected component of the workspace's current graph — the same value
// Graph.Diameter returns — without per-call allocations. After finding
// the component it runs one frontier BFS per member over the adjacency
// bitset: next = (OR of the frontier's rows) &^ visited, one level per
// round, so the cost is O(|C|²·⌈n/64⌉) word operations.
//
//slmob:hotpath
func (ws *Workspace) Diameter() int {
	g := &ws.g
	n := len(g.adj)
	if n == 0 {
		return 0
	}
	ws.queue = growInt32(ws.queue, n)[:0]
	if cap(ws.seen) < n {
		ws.seen = make([]bool, n, n+n/2+8)
	}
	ws.seen = ws.seen[:n]
	clear(ws.seen)

	// Largest component, ties broken by first-seen order like
	// Graph.LargestComponent.
	ws.best = ws.best[:0]
	for s := 0; s < n; s++ {
		if ws.seen[s] {
			continue
		}
		ws.comp = ws.comp[:0]
		ws.queue = ws.queue[:0]
		ws.queue = append(ws.queue, int32(s))
		ws.seen[s] = true
		for qi := 0; qi < len(ws.queue); qi++ {
			u := ws.queue[qi]
			ws.comp = append(ws.comp, u)
			for _, v := range g.adj[u] {
				if !ws.seen[v] {
					ws.seen[v] = true
					ws.queue = append(ws.queue, v)
				}
			}
		}
		if len(ws.comp) > len(ws.best) {
			ws.best, ws.comp = ws.comp, ws.best
		}
	}
	if len(ws.best) < 2 {
		return 0
	}

	w := ws.fillRows()
	if cap(ws.front) < 3*w {
		ws.front = make([]uint64, 3*w)
	}
	visited, frontier, next := ws.front[:w], ws.front[w:2*w], ws.front[2*w:3*w]
	diam := 0
	for _, src := range ws.best {
		clear(visited)
		clear(frontier)
		visited[src>>6] = 1 << (src & 63)
		frontier[src>>6] = visited[src>>6]
		level := 0
		for {
			clear(next)
			for i, f := range frontier {
				for ; f != 0; f &= f - 1 {
					v := i<<6 + bits.TrailingZeros64(f)
					for j, x := range ws.rows[v*w : v*w+w] {
						next[j] |= x
					}
				}
			}
			grew := uint64(0)
			for j := range next {
				next[j] &^= visited[j]
				visited[j] |= next[j]
				grew |= next[j]
			}
			if grew == 0 {
				break
			}
			level++
			frontier, next = next, frontier
		}
		if level > diam {
			diam = level
		}
	}
	return diam
}

// EdgeDiff is how the edge set of an incremental ApplyPositions differs
// from the build before it. Removed edges are reported by avatar id,
// since a departed avatar has no vertex in the new graph; added edges are
// reported by vertex index in the new graph. Each changed edge appears
// once, in either orientation.
type EdgeDiff struct {
	Removed [][2]uint64
	Added   [][2]int32
}

// EdgeDiff returns the edge diff of the latest build call and reports
// whether there is one. Only an incremental ApplyPositions has a diff; a
// full rebuild — the first call, a range change, the churn fallback, the
// call after a FromPositions — reports none, and neither does
// FromPositions. The slices alias workspace storage and are invalidated
// by the next build call.
func (ws *Workspace) EdgeDiff() (EdgeDiff, bool) {
	if !ws.d.diffOK {
		return EdgeDiff{}, false
	}
	return EdgeDiff{Removed: ws.d.removed, Added: ws.d.added}, true
}

// Graph returns the workspace's current graph — the value the latest
// build call produced. It is invalidated by the next build call.
func (ws *Workspace) Graph() *Graph { return &ws.g }

// MeanClustering returns the mean Watts–Strogatz clustering coefficient
// of the workspace's current graph, bit-identical to
// Graph.MeanClustering. Each vertex's link count is read off the
// adjacency bitset: every edge among u's neighbours shows up twice in
// Σ_{v∈N(u)} popcount(row[u] & row[v]). The link count is the same
// integer LocalClustering finds, and the coefficients are summed in the
// same vertex order, so the float result carries the same bits.
//
//slmob:hotpath
func (ws *Workspace) MeanClustering() float64 {
	n := len(ws.g.adj)
	if n == 0 {
		return 0
	}
	w := ws.fillRows()
	sum := 0.0
	for u, nbrs := range ws.g.adj {
		k := len(nbrs)
		if k < 2 {
			continue
		}
		ru := ws.rows[u*w : u*w+w]
		twice := 0
		for _, v := range nbrs {
			rv := ws.rows[int(v)*w : int(v)*w+w]
			for j, x := range ru {
				twice += bits.OnesCount64(x & rv[j])
			}
		}
		sum += 2 * float64(twice/2) / float64(k*(k-1))
	}
	return sum / float64(n)
}
