package sensor

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"slmob/internal/geom"
	"slmob/internal/trace"
	"slmob/internal/world"
)

// collect materialises the readings merged so far as a trace.
func collect(t *testing.T, col *Collector, land string, tau int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Collect(context.Background(), col.Source(land, tau), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func publicScenario(seed uint64) world.Scenario {
	scn := world.ApfelLand(seed) // public land, ObjectLifetime 7200
	scn.Duration = 7200
	return scn
}

func TestDeployPolicy(t *testing.T) {
	private := world.DanceIsland(1).Land
	e := NewEngine(private)
	_, err := e.Deploy(0, Spec{Pos: geom.V2(10, 10), Range: 96, Period: 10})
	if err == nil {
		t.Fatal("private land accepted a sensor")
	}

	public := world.ApfelLand(1).Land
	e = NewEngine(public)
	info, err := e.Deploy(0, Spec{Pos: geom.V2(10, 10), Range: 96, Period: 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.ExpiresAt != public.ObjectLifetime {
		t.Errorf("expiry = %d, want %d", info.ExpiresAt, public.ObjectLifetime)
	}

	sandbox := public
	sandbox.Kind = world.Sandbox
	e = NewEngine(sandbox)
	info, err = e.Deploy(0, Spec{Pos: geom.V2(10, 10), Range: 96, Period: 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.ExpiresAt != 0 {
		t.Errorf("sandbox object has expiry %d", info.ExpiresAt)
	}
}

func TestDeployValidation(t *testing.T) {
	e := NewEngine(world.ApfelLand(1).Land)
	if _, err := e.Deploy(0, Spec{Pos: geom.V2(-5, 10), Range: 96, Period: 10}); err == nil {
		t.Error("out-of-bounds position accepted")
	}
	if _, err := e.Deploy(0, Spec{Pos: geom.V2(10, 10), Range: 0, Period: 10}); err == nil {
		t.Error("zero range accepted")
	}
	// Range above the platform cap is clamped, not rejected.
	if _, err := e.Deploy(0, Spec{Pos: geom.V2(10, 10), Range: 500, Period: 10}); err != nil {
		t.Errorf("over-range deployment rejected: %v", err)
	}
}

func TestScanDetectsAvatarsWithLimits(t *testing.T) {
	scn := publicScenario(2)
	sim, err := world.NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(scn.Land)
	var got []FlushPayload
	e.SetPostHook(func(p FlushPayload) error {
		got = append(got, p)
		return nil
	})
	// One sensor on the central plaza.
	if _, err := e.Deploy(0, Spec{
		Pos: geom.V2(128, 128), Range: 96, Period: 10, Collector: "hook",
	}); err != nil {
		t.Fatal(err)
	}
	for sim.Time() < 3600 {
		sim.Step()
		e.Step(sim.Time(), sim)
	}
	st := e.Stats()
	if st.Scans == 0 || st.Readings == 0 {
		t.Fatalf("no sensing activity: %+v", st)
	}
	// Force remaining cache out by advancing past the throttle.
	if st.Readings > 0 && len(got) == 0 && st.Flushes == 0 {
		t.Error("cache never flushed")
	}
	for _, p := range got {
		if len(p.Readings) == 0 {
			t.Error("empty flush payload")
		}
		for _, r := range p.Readings {
			if geom.V(r.X, r.Y, r.Z).DistXY(geom.V2(128, 128)) > 96.01 {
				t.Errorf("reading outside sensing range: %+v", r)
			}
		}
	}
}

func TestMaxDetectedPerScan(t *testing.T) {
	// A crowded land: the 16-avatar scan cap must truncate.
	scn := world.IsleOfView(3)
	scn.Land.Kind = world.Sandbox
	scn.Duration = 600
	sim, err := world.NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(scn.Land)
	e.SetPostHook(func(FlushPayload) error { return nil })
	if _, err := e.Deploy(0, Spec{
		Pos: geom.V2(128, 135), Range: 96, Period: 10, Collector: "hook",
	}); err != nil {
		t.Fatal(err)
	}
	perScan := map[int64]int{}
	e2 := NewEngine(scn.Land) // silence linters about unused; not used
	_ = e2
	for sim.Time() < 600 {
		sim.Step()
		e.Step(sim.Time(), sim)
	}
	st := e.Stats()
	if st.TruncatedScans == 0 {
		t.Errorf("no truncated scans on a 65-avatar land: %+v", st)
	}
	_ = perScan
}

func TestExpiryAndReplication(t *testing.T) {
	scn := publicScenario(4)
	scn.Land.ObjectLifetime = 100
	sim, err := world.NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(scn.Land)
	e.SetPostHook(func(FlushPayload) error { return nil })
	e.SetReplicationInterval(50)
	if _, err := e.Deploy(0, Spec{
		Pos: geom.V2(128, 128), Range: 96, Period: 10, Collector: "hook", Replicate: true,
	}); err != nil {
		t.Fatal(err)
	}
	for sim.Time() < 1000 {
		sim.Step()
		e.Step(sim.Time(), sim)
	}
	st := e.Stats()
	if st.Expired < 5 {
		t.Errorf("expired = %d, want several with lifetime 100", st.Expired)
	}
	if st.Replicated < st.Expired-1 {
		t.Errorf("replicated = %d, expired = %d", st.Replicated, st.Expired)
	}
	if e.ActiveObjects() == 0 {
		t.Error("no active object despite replication")
	}
}

func TestNoReplicationMeansDeath(t *testing.T) {
	scn := publicScenario(5)
	scn.Land.ObjectLifetime = 100
	sim, _ := world.NewSim(scn)
	e := NewEngine(scn.Land)
	e.SetPostHook(func(FlushPayload) error { return nil })
	_, err := e.Deploy(0, Spec{Pos: geom.V2(128, 128), Range: 96, Period: 10, Collector: "hook"})
	if err != nil {
		t.Fatal(err)
	}
	for sim.Time() < 300 {
		sim.Step()
		e.Step(sim.Time(), sim)
	}
	if e.ActiveObjects() != 0 {
		t.Error("object survived expiry without replication")
	}
}

func TestCollectorHTTPIngestion(t *testing.T) {
	col := NewCollector()
	srv := httptest.NewServer(col)
	defer srv.Close()

	payload := FlushPayload{
		Object: 1, Land: "Apfel Land",
		Readings: []Reading{
			{T: 10, ID: 7, X: 1, Y: 2, Z: 3},
			{T: 20, ID: 7, X: 2, Y: 3, Z: 4},
			{T: 10, ID: 8, X: 9, Y: 9, Z: 0},
		},
	}
	body, _ := json.Marshal(payload)
	resp, err := http.Post(srv.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if col.Flushes() != 1 {
		t.Errorf("flushes = %d", col.Flushes())
	}
	tr := collect(t, col, "Apfel Land", 10)
	if len(tr.Snapshots) != 2 {
		t.Fatalf("snapshots = %d", len(tr.Snapshots))
	}
	if len(tr.Snapshots[0].Samples) != 2 {
		t.Errorf("t=10 samples = %d", len(tr.Snapshots[0].Samples))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorRejectsBadRequests(t *testing.T) {
	col := NewCollector()
	srv := httptest.NewServer(col)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %s", resp.Status)
	}
	resp, err = http.Post(srv.URL, "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %s", resp.Status)
	}
}

func TestEndToEndSensorTraceOverHTTP(t *testing.T) {
	col := NewCollector()
	httpSrv := httptest.NewServer(col)
	defer httpSrv.Close()

	scn := publicScenario(6)
	sim, err := world.NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(scn.Land)
	for _, spec := range GridSpecs(scn.Land, 4, 96, 10, httpSrv.URL, true) {
		if _, err := e.Deploy(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	for sim.Time() < 3600 {
		sim.Step()
		e.Step(sim.Time(), sim)
	}
	e.Wait()
	tr := collect(t, col, scn.Land.Name, 10)
	if tr.UniqueUsers() == 0 {
		t.Fatalf("sensor network observed nobody: stats %+v", e.Stats())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridSpecsCoverage(t *testing.T) {
	land := world.ApfelLand(1).Land
	specs := GridSpecs(land, 4, 96, 10, "hook", false)
	if len(specs) != 16 {
		t.Fatalf("specs = %d", len(specs))
	}
	// Every land point must be within range of some sensor.
	for x := 0.0; x < land.Size; x += 16 {
		for y := 0.0; y < land.Size; y += 16 {
			covered := false
			for _, s := range specs {
				if s.Pos.DistXY(geom.V2(x, y)) <= s.Range {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("point (%v,%v) uncovered", x, y)
			}
		}
	}
	if got := GridSpecs(land, 0, 96, 10, "hook", false); len(got) != 16 {
		t.Errorf("default grid = %d", len(got))
	}
}
