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

// TestDebugDanceICT is a diagnostic for calibrating Dance Island's
// inter-contact time; run manually with SLMOB_DEBUG=1.
func TestDebugDanceICT(t *testing.T) {
	if os.Getenv("SLMOB_DEBUG") == "" {
		t.Skip("diagnostic; set SLMOB_DEBUG=1 to run")
	}
	scn := world.DanceIsland(1)
	scn.Duration = 8 * 3600
	src, err := world.NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(context.Background(), src, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{10, 80} {
		cs, err := core.ExtractContacts(tr, r)
		if err != nil {
			t.Fatal(err)
		}
		ict := cs.ICT.Values()
		sort.Float64s(ict)
		fmt.Printf("r=%g: ICT n=%d\n", r, len(ict))
		if len(ict) == 0 {
			continue
		}
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			fmt.Printf("  p%.0f = %v\n", p*100, ict[int(p*float64(len(ict)))])
		}
		// Bucket the gaps to find the short-gap mass.
		buckets := []float64{20, 60, 120, 300, 600, 1200, 1e9}
		counts := make([]int, len(buckets))
		for _, v := range ict {
			for i, b := range buckets {
				if v <= b {
					counts[i]++
					break
				}
			}
		}
		prev := 0.0
		for i, b := range buckets {
			fmt.Printf("  (%6.0f,%6.0f]: %d\n", prev, b, counts[i])
			prev = b
		}
	}
}
