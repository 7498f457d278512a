package experiment

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

	"slmob/internal/core"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// TestDebugApfelFT is a diagnostic for calibrating Apfel Land's
// first-contact time; run manually with SLMOB_DEBUG=1.
func TestDebugApfelFT(t *testing.T) {
	if os.Getenv("SLMOB_DEBUG") == "" {
		t.Skip("diagnostic; set SLMOB_DEBUG=1 to run")
	}
	scn := world.ApfelLand(1)
	scn.Duration = 6 * 3600
	src, err := world.NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(context.Background(), src, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.ExtractContacts(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	ft := cs.FT.Values()
	sort.Float64s(ft)
	fmt.Printf("FT n=%d never=%d\n", len(ft), cs.NeverContacted)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		fmt.Printf("  p%.0f = %v\n", p*100, ft[int(p*float64(len(ft)))])
	}
	// Where do users make their first contact? Track the first snapshot
	// with a neighbour per user and report the position.
	type firstInfo struct {
		t   int64
		pos [2]float64
	}
	firstSeen := map[trace.AvatarID]int64{}
	contact := map[trace.AvatarID]firstInfo{}
	for _, snap := range tr.Snapshots {
		for i, s := range snap.Samples {
			if _, ok := firstSeen[s.ID]; !ok {
				firstSeen[s.ID] = snap.T
			}
			if _, done := contact[s.ID]; done {
				continue
			}
			for j, o := range snap.Samples {
				if i != j && s.Pos.DistXY(o.Pos) <= 10 {
					contact[s.ID] = firstInfo{t: snap.T, pos: [2]float64{s.Pos.X, s.Pos.Y}}
					break
				}
			}
		}
	}
	// Histogram of first-contact positions on a 32m grid.
	grid := map[[2]int]int{}
	quick := 0
	for id, fi := range contact {
		if fi.t-firstSeen[id] <= 30 {
			quick++
			grid[[2]int{int(fi.pos[0]) / 32, int(fi.pos[1]) / 32}]++
		}
	}
	fmt.Printf("quick contacts (<=30s): %d of %d\n", quick, len(contact))
	type kv struct {
		k [2]int
		v int
	}
	var kvs []kv
	for k, v := range grid {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].v > kvs[j].v })
	for i, e := range kvs {
		if i >= 8 {
			break
		}
		fmt.Printf("  cell (%d,%d)x32m: %d quick first contacts\n", e.k[0], e.k[1], e.v)
	}
}
