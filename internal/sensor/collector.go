package sensor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"slmob/internal/geom"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// Collector is the external web server of the paper's sensor
// architecture: sensors flush their caches to it over HTTP, and it merges
// the partial, possibly overlapping observations into a mobility trace.
type Collector struct {
	mu sync.Mutex
	// readings[t][avatar] is the merged position observed at sim time t.
	readings map[int64]map[trace.AvatarID]geom.Vec
	flushes  int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{readings: make(map[int64]map[trace.AvatarID]geom.Vec)}
}

// ServeHTTP accepts flush payloads at any path via POST.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var payload FlushPayload
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		http.Error(w, fmt.Sprintf("bad payload: %v", err), http.StatusBadRequest)
		return
	}
	c.Ingest(payload)
	w.WriteHeader(http.StatusOK)
}

// Ingest merges one flush payload (also used directly by in-process
// experiments through Engine.SetPostHook).
func (c *Collector) Ingest(payload FlushPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushes++
	for _, rd := range payload.Readings {
		m := c.readings[rd.T]
		if m == nil {
			m = make(map[trace.AvatarID]geom.Vec)
			c.readings[rd.T] = m
		}
		// Overlapping sensors may observe the same avatar; positions are
		// identical, so last-write-wins is fine.
		m[trace.AvatarID(rd.ID)] = geom.V(rd.X, rd.Y, rd.Z)
	}
}

// Flushes returns the number of payloads received.
func (c *Collector) Flushes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushes
}

// Source is a streaming view of the collector's merged readings: one
// snapshot per observed sim time, in time order, built lazily so only one
// snapshot is resident at a time. The set of snapshot times is fixed when
// the source is created — the sensor architecture is store-and-forward
// (caches flush minutes late), so create the source once collection has
// finished. Coverage may be partial: avatars outside every sensor's range
// simply never appear, which is exactly the architecture's documented
// weakness.
type Source struct {
	c     *Collector
	land  string
	tau   int64
	times []int64
	i     int
}

// Source returns a streaming view over the readings merged so far.
func (c *Collector) Source(land string, tau int64) *Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	times := make([]int64, 0, len(c.readings))
	for t := range c.readings {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return &Source{c: c, land: land, tau: tau, times: times}
}

// Info reports the merged trace's provenance.
func (s *Source) Info() trace.Info {
	return trace.Info{
		Land: s.land,
		Tau:  s.tau,
		Meta: map[string]string{"monitor": "sensors"},
	}
}

// Next assembles and returns the snapshot for the next observed time,
// io.EOF past the last.
func (s *Source) Next(ctx context.Context) (trace.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return trace.Snapshot{}, err
	}
	if s.i >= len(s.times) {
		return trace.Snapshot{}, io.EOF
	}
	t := s.times[s.i]
	s.i++
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	m := s.c.readings[t]
	snap := trace.Snapshot{T: t, Samples: make([]trace.Sample, 0, len(m))}
	ids := make([]trace.AvatarID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		snap.Samples = append(snap.Samples, trace.Sample{ID: id, Pos: m[id]})
	}
	return snap, nil
}

// GridSpecs lays out an n x n sensor grid covering the land, the
// deployment pattern a measurement campaign would use. With range 96 m a
// 4x4 grid fully covers a 256 m land.
func GridSpecs(land world.LandConfig, n int, sensingRange float64, period int64, collector string, replicate bool) []Spec {
	if n <= 0 {
		n = 4
	}
	cell := land.Size / float64(n)
	specs := make([]Spec, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			specs = append(specs, Spec{
				Pos:       geom.V2(cell*(float64(i)+0.5), cell*(float64(j)+0.5)),
				Range:     sensingRange,
				Period:    period,
				Collector: collector,
				Replicate: replicate,
			})
		}
	}
	return specs
}
