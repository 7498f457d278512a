package world

import (
	"context"
	"math"
	"testing"

	"slmob/internal/geom"
	"slmob/internal/trace"
)

// collect simulates the scenario and materialises its τ-sampled trace.
func collect(t *testing.T, scn Scenario, tau int64) *trace.Trace {
	t.Helper()
	src, err := NewSource(scn, tau)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(context.Background(), src, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// shortScenario returns a small, fast scenario for unit tests.
func shortScenario(seed uint64) Scenario {
	scn := ApfelLand(seed)
	scn.Duration = 1800
	return scn
}

func TestScenarioValidation(t *testing.T) {
	good := shortScenario(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := good
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	bad = good
	bad.Land.Spawns = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing spawns accepted")
	}
	bad = good
	bad.Land.POIs = nil
	if err := bad.Validate(); err == nil {
		t.Error("POI-gravity without POIs accepted")
	}
	bad = good
	bad.Warmup = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
	bad = good
	bad.Behavior.WalkSpeed = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero walk speed accepted")
	}
	bad = good
	bad.Arrivals.Diurnal = []float64{1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("short diurnal profile accepted")
	}
}

func TestSimDeterminism(t *testing.T) {
	runStates := func() []AvatarState {
		sim, err := NewSim(shortScenario(7))
		if err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(900)
		return sim.States(nil)
	}
	a := runStates()
	b := runStates()
	if len(a) != len(b) {
		t.Fatalf("population differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSimSeedsDiffer(t *testing.T) {
	simA, _ := NewSim(shortScenario(1))
	simB, _ := NewSim(shortScenario(2))
	simA.RunUntil(900)
	simB.RunUntil(900)
	a := simA.States(nil)
	b := simB.States(nil)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Pos != b[i].Pos {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical worlds")
		}
	}
}

func TestAvatarsStayInBounds(t *testing.T) {
	sim, err := NewSim(shortScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	bounds := sim.Scenario().Land.Bounds()
	for step := 0; step < 1800; step++ {
		sim.Step()
		for _, st := range sim.States(nil) {
			if !bounds.Contains(st.Pos) {
				t.Fatalf("avatar %d out of bounds at %v (t=%d)", st.ID, st.Pos, sim.Time())
			}
		}
	}
}

func TestPopulationReachesSteadyState(t *testing.T) {
	scn := DanceIsland(5)
	scn.Duration = 4 * 3600
	sim, err := NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(scn.Duration)
	pop := sim.Population()
	// Steady state should stay within a loose band of the target.
	if pop < 10 || pop > 80 {
		t.Errorf("population = %d, want near %v", pop, DanceConcurrentTarget)
	}
	if sim.Peak() > scn.Land.EffectiveMaxAvatars() {
		t.Errorf("peak %d exceeded cap", sim.Peak())
	}
}

func TestLandCapRejectsLogins(t *testing.T) {
	scn := shortScenario(11)
	scn.Land.MaxAvatars = 5
	scn.Warmup = 5
	scn.Arrivals.RatePerSec = 1 // flood
	sim, err := NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(60)
	if sim.Population() > 5 {
		t.Errorf("population %d exceeds cap 5", sim.Population())
	}
	if sim.RejectedLogins() == 0 {
		t.Error("no logins rejected despite cap flood")
	}
}

func TestDepartedGroundTruth(t *testing.T) {
	scn := shortScenario(13)
	scn.Duration = 3600
	sim, err := NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(3600)
	departed := sim.Departed()
	if len(departed) == 0 {
		t.Fatal("no avatars departed in an hour")
	}
	for _, d := range departed {
		if d.LogoutT <= d.LoginT {
			t.Errorf("avatar %d: logout %d <= login %d", d.ID, d.LogoutT, d.LoginT)
		}
		if d.Travelled < 0 || math.IsNaN(d.Travelled) {
			t.Errorf("avatar %d: bad travelled %v", d.ID, d.Travelled)
		}
		if d.MovingSecs < 0 || d.MovingSecs > d.LogoutT-d.LoginT {
			t.Errorf("avatar %d: moving %d out of session %d", d.ID, d.MovingSecs, d.LogoutT-d.LoginT)
		}
	}
}

func TestExternalAvatarLifecycle(t *testing.T) {
	sim, err := NewSim(shortScenario(17))
	if err != nil {
		t.Fatal(err)
	}
	id, err := sim.AddExternal(geom.V2(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	states := sim.States(nil)
	found := false
	for _, st := range states {
		if st.ID == id {
			found = true
		}
	}
	if !found {
		t.Error("external avatar not visible in States")
	}
	// Residents view must exclude it.
	for _, st := range sim.ResidentStates(nil) {
		if st.ID == id {
			t.Error("external avatar leaked into ResidentStates")
		}
	}
	if err := sim.MoveExternal(id, geom.V2(50, 50)); err != nil {
		t.Fatal(err)
	}
	if err := sim.ExternalChat(id, "hi"); err != nil {
		t.Fatal(err)
	}
	sim.RemoveExternal(id)
	for _, st := range sim.States(nil) {
		if st.ID == id {
			t.Error("external avatar still present after removal")
		}
	}
	if err := sim.MoveExternal(id, geom.V2(1, 1)); err == nil {
		t.Error("moving a removed external succeeded")
	}
}

func TestCrawlerPerturbation(t *testing.T) {
	// A silent, motionless external avatar must attract residents; a
	// mimicking one must not. Measure mean distance to the external.
	meanDist := func(mimic bool) float64 {
		scn := shortScenario(23)
		scn.Duration = 3600
		scn.Behavior.CuriosityProb = 0.01
		sim, err := NewSim(scn)
		if err != nil {
			t.Fatal(err)
		}
		crawlerPos := geom.V2(200, 40)
		id, err := sim.AddExternal(crawlerPos)
		if err != nil {
			t.Fatal(err)
		}
		sum, n := 0.0, 0
		for sim.Time() < 3600 {
			sim.Step()
			if mimic && sim.Time()%30 == 0 {
				_ = sim.MoveExternal(id, crawlerPos) // declared movement
				_ = sim.ExternalChat(id, "hello")
			}
			if sim.Time()%60 == 0 {
				for _, st := range sim.ResidentStates(nil) {
					sum += st.Pos.DistXY(crawlerPos)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	naive := meanDist(false)
	mimicking := meanDist(true)
	if naive >= mimicking {
		t.Errorf("perturbation missing: naive mean dist %.1f >= mimic %.1f", naive, mimicking)
	}
}

func TestSittingReportsSeatedState(t *testing.T) {
	scn := shortScenario(29)
	scn.Land.AllowSit = true
	scn.Land.SitSpots = []SitSpot{{Pos: geom.V2(128, 128), Capacity: 4}}
	scn.Behavior.SitProb = 1.0
	scn.Duration = 3600
	sim, err := NewSim(scn)
	if err != nil {
		t.Fatal(err)
	}
	seated := 0
	for sim.Time() < 3600 {
		sim.Step()
		for _, st := range sim.States(nil) {
			if st.Seated {
				seated++
				if !st.Pos.XY().Sub(geom.V2(128, 128)).IsZero() && st.Pos.DistXY(geom.V2(128, 128)) > 0.1 {
					t.Fatalf("seated avatar not at sit spot: %v", st.Pos)
				}
			}
		}
	}
	if seated == 0 {
		t.Error("nobody ever sat despite SitProb=1")
	}
}

func TestCollectProducesValidTrace(t *testing.T) {
	scn := shortScenario(31)
	scn.Duration = 1200
	tr := collect(t, scn, 10)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) != 120 {
		t.Errorf("snapshots = %d, want 120", len(tr.Snapshots))
	}
	if tr.Land != scn.Land.Name {
		t.Errorf("land = %q", tr.Land)
	}
	if tr.UniqueUsers() == 0 {
		t.Error("no users observed")
	}
	if _, err := NewSource(scn, 0); err == nil {
		t.Error("tau=0 accepted")
	}
}

func TestSessionModel(t *testing.T) {
	m := SessionModelWithMean(60, 14400, 878)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mean(); math.Abs(got-878)/878 > 0.02 {
		t.Errorf("analytic mean = %v, want ~878", got)
	}
	bad := SessionModel{Min: 0, Max: 10, Alpha: 1}
	if err := bad.Validate(); err == nil {
		t.Error("invalid session model accepted")
	}
	mix := m
	mix.StayerFrac = 0.5
	mix.StayerMin, mix.StayerMax = 1000, 2000
	want := 0.5*1500 + 0.5*878
	if got := mix.Mean(); math.Abs(got-want)/want > 0.02 {
		t.Errorf("mixture mean = %v, want ~%v", got, want)
	}
}

func TestArrivalsDiurnalAveragesToBase(t *testing.T) {
	a := Arrivals{RatePerSec: 0.05, Diurnal: mildDiurnal}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for h := int64(0); h < 24; h++ {
		sum += a.Rate(h * 3600)
	}
	avg := sum / 24
	if math.Abs(avg-0.05)/0.05 > 1e-9 {
		t.Errorf("diurnal average = %v, want 0.05", avg)
	}
	flat := Arrivals{RatePerSec: 0.01}
	if flat.Rate(12345) != 0.01 {
		t.Error("flat rate wrong")
	}
}

func TestPaperLandPresetsValid(t *testing.T) {
	for _, scn := range PaperLands(1) {
		if err := scn.Validate(); err != nil {
			t.Errorf("%s: %v", scn.Land.Name, err)
		}
	}
	for _, model := range []Model{RandomWaypoint, LevyWalk} {
		scn := BaselineScenario(model, 1)
		if err := scn.Validate(); err != nil {
			t.Errorf("baseline %v: %v", model, err)
		}
	}
	if _, err := PaperLand("apfel", 1); err != nil {
		t.Error(err)
	}
	if _, err := PaperLand("nonesuch", 1); err == nil {
		t.Error("unknown land accepted")
	}
}

func TestBaselineModelsProduceMovement(t *testing.T) {
	for _, model := range []Model{RandomWaypoint, LevyWalk} {
		scn := BaselineScenario(model, 3)
		scn.Duration = 900
		tr := collect(t, scn, 10)
		moved := false
		sessions := tr.Sessions(0)
		for _, s := range sessions {
			if geom.PathLengthXY(s.Path()) > 10 {
				moved = true
				break
			}
		}
		if !moved {
			t.Errorf("%v: nobody moved", model)
		}
	}
}

func TestKindString(t *testing.T) {
	if Public.String() != "public" || Private.String() != "private" || Sandbox.String() != "sandbox" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	if POIGravity.String() != "poi-gravity" || RandomWaypoint.String() != "random-waypoint" ||
		LevyWalk.String() != "levy-walk" || Model(9).String() == "" {
		t.Error("model names wrong")
	}
}
