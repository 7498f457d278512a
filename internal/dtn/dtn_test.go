package dtn

import (
	"context"
	"testing"

	"slmob/internal/geom"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// denseTrace collects a short Dance Island trace where contacts abound.
func denseTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	scn := world.DanceIsland(seed)
	scn.Duration = 3600
	src, err := world.NewSource(scn, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(context.Background(), src, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReplayValidation(t *testing.T) {
	tr := denseTrace(t, 1)
	if _, err := Replay(tr, Config{Range: 0, Messages: 10}); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := Replay(tr, Config{Range: 10, Messages: 0}); err == nil {
		t.Error("zero messages accepted")
	}
	empty := trace.New("x", 10)
	if _, err := Replay(empty, Config{Range: 10, Messages: 10}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestEpidemicDeliversOnDenseLand(t *testing.T) {
	tr := denseTrace(t, 2)
	res, err := Replay(tr, Config{Protocol: Epidemic, Range: 10, Messages: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no messages generated")
	}
	if res.DeliveryRatio() < 0.4 {
		t.Errorf("epidemic delivery ratio %.2f too low on a dance floor", res.DeliveryRatio())
	}
	if res.CopiesPerMessage() < 1 {
		t.Errorf("copies per message = %v", res.CopiesPerMessage())
	}
	for _, d := range res.Delays {
		if d < 0 {
			t.Errorf("negative delay %v", d)
		}
	}
}

func TestProtocolOrdering(t *testing.T) {
	// Epidemic dominates everything in delivery ratio; direct delivery is
	// the cheapest. This is the classic DTN result the traces must
	// reproduce (experiment X2).
	tr := denseTrace(t, 4)
	results, err := CompareProtocols(tr, 10, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[Protocol]*Result{}
	for _, r := range results {
		byProto[r.Protocol] = r
	}
	epi, direct := byProto[Epidemic], byProto[Direct]
	spray, twohop := byProto[SprayAndWait], byProto[TwoHop]
	if epi.DeliveryRatio() < direct.DeliveryRatio() {
		t.Errorf("epidemic %.2f < direct %.2f", epi.DeliveryRatio(), direct.DeliveryRatio())
	}
	if epi.DeliveryRatio() < spray.DeliveryRatio() {
		t.Errorf("epidemic %.2f < spray %.2f", epi.DeliveryRatio(), spray.DeliveryRatio())
	}
	if epi.DeliveryRatio() < twohop.DeliveryRatio() {
		t.Errorf("epidemic %.2f < two-hop %.2f", epi.DeliveryRatio(), twohop.DeliveryRatio())
	}
	// Cost ordering: epidemic replicates the most; direct never replicates.
	if direct.CopiesPerMessage() != 1 {
		t.Errorf("direct copies = %v, want 1", direct.CopiesPerMessage())
	}
	if epi.CopiesPerMessage() <= direct.CopiesPerMessage() {
		t.Errorf("epidemic cost %v not above direct %v",
			epi.CopiesPerMessage(), direct.CopiesPerMessage())
	}
}

func TestSprayAndWaitBoundsCopies(t *testing.T) {
	tr := denseTrace(t, 6)
	const budget = 4
	res, err := Replay(tr, Config{
		Protocol: SprayAndWait, Range: 10, Messages: 80, Copies: budget, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CopiesPerMessage() > budget {
		t.Errorf("spray exceeded budget: %v copies/msg > %d", res.CopiesPerMessage(), budget)
	}
}

func TestTTLReducesDelivery(t *testing.T) {
	tr := denseTrace(t, 8)
	free, err := Replay(tr, Config{Protocol: Epidemic, Range: 10, Messages: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ttld, err := Replay(tr, Config{Protocol: Epidemic, Range: 10, Messages: 100, Seed: 9, TTL: 30})
	if err != nil {
		t.Fatal(err)
	}
	if ttld.Delivered > free.Delivered {
		t.Errorf("TTL increased delivery: %d > %d", ttld.Delivered, free.Delivered)
	}
	for _, d := range ttld.Delays {
		if d > 30 {
			t.Errorf("delivery after TTL: delay %v", d)
		}
	}
}

func TestLargerRangeDeliversFaster(t *testing.T) {
	tr := denseTrace(t, 10)
	r10, err := Replay(tr, Config{Protocol: Epidemic, Range: 10, Messages: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r80, err := Replay(tr, Config{Protocol: Epidemic, Range: 80, Messages: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r80.DeliveryRatio() < r10.DeliveryRatio() {
		t.Errorf("r=80 ratio %.2f < r=10 ratio %.2f", r80.DeliveryRatio(), r10.DeliveryRatio())
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := denseTrace(t, 12)
	a, err := Replay(tr, Config{Protocol: SprayAndWait, Range: 10, Messages: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(tr, Config{Protocol: SprayAndWait, Range: 10, Messages: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Copies != b.Copies {
		t.Errorf("replay not deterministic: %+v vs %+v", a, b)
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		Epidemic: "epidemic", Direct: "direct", TwoHop: "two-hop",
		SprayAndWait: "spray-and-wait",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d -> %q", p, p.String())
		}
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol name empty")
	}
}

func TestResultAccessorsEmpty(t *testing.T) {
	r := &Result{}
	if r.DeliveryRatio() != 0 || r.MedianDelay() != 0 || r.CopiesPerMessage() != 0 {
		t.Error("empty result accessors should be zero")
	}
}

func TestReplaySkipsSeated(t *testing.T) {
	// Two avatars forever in contact, but one is seated: no delivery.
	tr := trace.New("x", 10)
	for i := int64(1); i <= 10; i++ {
		_ = tr.Append(trace.Snapshot{T: i * 10, Samples: []trace.Sample{
			{ID: 1, Pos: geom.V2(5, 5)},
			{ID: 2, Pos: geom.V2(6, 5), Seated: true},
		}})
	}
	res, err := Replay(tr, Config{Protocol: Epidemic, Range: 10, Messages: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered %d via a seated avatar", res.Delivered)
	}
}

// TestReplayPinned pins every protocol's outcome on a fixed trace. The
// exchanges depend on adjacency order (spray-and-wait hands tokens to
// neighbours in list order), so this guards the contact-graph builder
// the replay uses as well as the protocols.
func TestReplayPinned(t *testing.T) {
	tr := denseTrace(t, 12)
	type pin struct {
		p                 Protocol
		delivered, copies int
		delaySum          float64
	}
	want := map[float64][]pin{
		10: {{Epidemic, 53, 1046, 5050}, {SprayAndWait, 50, 310, 5870}, {TwoHop, 51, 706, 5930}, {Direct, 37, 60, 2980}},
		80: {{Epidemic, 59, 649, 10}, {SprayAndWait, 59, 215, 10}, {TwoHop, 59, 640, 10}, {Direct, 59, 60, 10}},
	}
	for _, r := range []float64{10, 80} {
		res, err := CompareProtocols(tr, r, 60, 13)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range res {
			w := want[r][i]
			sum := 0.0
			for _, d := range got.Delays {
				sum += d
			}
			if got.Protocol != w.p || got.Delivered != w.delivered || got.Copies != w.copies || sum != w.delaySum {
				t.Errorf("r=%v %v: delivered %d copies %d delay sum %v, want %d %d %v",
					r, got.Protocol, got.Delivered, got.Copies, sum, w.delivered, w.copies, w.delaySum)
			}
		}
	}
}
