package world

import (
	"testing"

	"slmob/internal/geom"
	"slmob/internal/rng"
	"slmob/internal/trace"
)

// TestAvatarCapsuleRoundTrip: every field the destination needs — and
// the avatar's personal random stream — must survive the wire.
func TestAvatarCapsuleRoundTrip(t *testing.T) {
	src := rng.New(99)
	for i := 0; i < 1000; i++ {
		src.Uint64() // advance mid-stream
	}
	a := &avatar{
		id:            trace.AvatarID(1<<40 | 1234),
		pos:           geom.V(12.25, 200.5, 1.75),
		rng:           src,
		phase:         phaseTravel,
		target:        geom.V(255.5, 0.25, 0),
		speed:         3.3125,
		pauseUntil:    77777,
		loginT:        123,
		logoutAt:      99999,
		anchor:        geom.V(1, 2, 3),
		wanderer:      true,
		wanderLegs:    4,
		firstLeg:      true,
		seat:          2, // not carried: in-transit avatars hold no seat
		crossTo:       1, // not carried: arrival placement resets it
		movingSecs:    456,
		travelled:     1234.0625,
		investigating: true,
	}
	b, err := decodeAvatar(encodeAvatar(a))
	if err != nil {
		t.Fatal(err)
	}
	if b.id != a.id || b.pos != a.pos || b.phase != a.phase || b.target != a.target ||
		b.speed != a.speed || b.pauseUntil != a.pauseUntil || b.loginT != a.loginT ||
		b.logoutAt != a.logoutAt || b.anchor != a.anchor || b.wanderer != a.wanderer ||
		b.wanderLegs != a.wanderLegs || b.firstLeg != a.firstLeg ||
		b.movingSecs != a.movingSecs || b.travelled != a.travelled ||
		b.investigating != a.investigating {
		t.Errorf("decoded avatar = %+v, want %+v", b, a)
	}
	if b.seat != -1 || b.crossTo != -1 {
		t.Errorf("seat/crossTo = %d/%d, want -1/-1", b.seat, b.crossTo)
	}
	// The random stream continues exactly where the source left it.
	for i := 0; i < 16; i++ {
		want := a.rng.Uint64()
		if got := b.rng.Uint64(); got != want {
			t.Fatalf("rng draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestCapsuleDecodeRejectsGarbage covers the defensive paths.
func TestCapsuleDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeAvatar(nil); err == nil {
		t.Error("nil capsule accepted")
	}
	if _, err := decodeAvatar(make([]byte, capsuleSize-1)); err == nil {
		t.Error("short capsule accepted")
	}
	bad := encodeAvatar(&avatar{rng: rng.New(1), seat: -1, crossTo: -1})
	bad[0] = 99
	if _, err := decodeAvatar(bad); err == nil {
		t.Error("bad version accepted")
	}
	bad = encodeAvatar(&avatar{rng: rng.New(1), seat: -1, crossTo: -1})
	bad[1+8+24] = 7 // phase byte out of range
	if _, err := decodeAvatar(bad); err == nil {
		t.Error("bad phase accepted")
	}
}

// TestStepPendingMatchesStep: driving an estate through the routed
// transfer path — encode, inject the decoded copy, resolve — must be
// bit-identical to the in-process Step, tick for tick. This is the
// in-memory version of the estate server's network handoff loop. The
// inputs are the Paper Archipelago with raised migration rates and
// "Hot Borders", a handoff-heavy variant capped just above its warmup
// population so admissions race capacity: many handoffs are refused,
// exercising the refuse path and the fact that a resolve at the source
// frees a slot for a later inject.
func TestStepPendingMatchesStep(t *testing.T) {
	paper := PaperEstate(77)
	paper.Duration = 2400
	paper.CrossProb = 0.004
	paper.TeleportProb = 0.001

	hot := PaperEstate(79)
	hot.Name = "Hot Borders"
	hot.Duration = 1800
	hot.CrossProb = 0.05
	hot.TeleportProb = 0.02
	for i := range hot.Regions {
		hot.Regions[i].Land.MaxAvatars = hot.Regions[i].Warmup + 5
	}

	for _, cfg := range []EstateConfig{paper, hot} {
		t.Run(cfg.Name, func(t *testing.T) {
			local, err := NewEstateSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			routed, err := NewEstateSim(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var bufA, bufB []AvatarState
			for step := int64(0); step < cfg.Duration; step++ {
				local.Step()
				transfers := routed.StepPending()
				for i, tr := range transfers {
					accepted, err := routed.Inject(tr)
					if err != nil {
						t.Fatalf("inject at t=%d: %v", routed.Time(), err)
					}
					routed.ResolveTransfer(i, accepted)
				}
				if step%100 != 0 {
					continue
				}
				for ri := 0; ri < local.NumRegions(); ri++ {
					bufA = local.Region(ri).ResidentStates(bufA)
					bufB = routed.Region(ri).ResidentStates(bufB)
					if len(bufA) != len(bufB) {
						t.Fatalf("t=%d region %d: %d residents vs %d", local.Time(), ri, len(bufA), len(bufB))
					}
					for k := range bufA {
						if bufA[k] != bufB[k] {
							t.Fatalf("t=%d region %d: resident %d = %+v vs %+v",
								local.Time(), ri, k, bufA[k], bufB[k])
						}
					}
				}
			}
			if local.Crossings() != routed.Crossings() || local.Teleports() != routed.Teleports() ||
				local.BlockedHandoffs() != routed.BlockedHandoffs() {
				t.Errorf("counters: local %d/%d/%d, routed %d/%d/%d",
					local.Crossings(), local.Teleports(), local.BlockedHandoffs(),
					routed.Crossings(), routed.Teleports(), routed.BlockedHandoffs())
			}
			if routed.Crossings() == 0 || routed.Teleports() == 0 {
				t.Error("scenario exercised no handoffs; parity is vacuous")
			}
			if cfg.Name == hot.Name && routed.BlockedHandoffs() == 0 {
				t.Error("capped estate refused no handoffs; the refuse path is untested")
			}
		})
	}
}

// TestInjectValidation: transfers with impossible routes are protocol
// errors, not silent corruption.
func TestInjectValidation(t *testing.T) {
	cfg := PaperEstate(1)
	cfg.Duration = 600
	est, err := NewEstateSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capsule := encodeAvatar(&avatar{rng: rng.New(5), seat: -1, crossTo: -1})
	cases := []Transfer{
		{From: -1, To: 1, Avatar: capsule},
		{From: 0, To: 3, Avatar: capsule},
		{From: 1, To: 1, Avatar: capsule},
		{From: 0, To: 2, Avatar: capsule}, // walk across no shared border
		{From: 0, To: 1, Avatar: []byte{1, 2, 3}},
	}
	for i, tr := range cases {
		if _, err := est.Inject(tr); err == nil {
			t.Errorf("case %d: invalid transfer %+v accepted", i, tr)
		}
	}
	// A teleport may cross the whole grid.
	if _, err := est.Inject(Transfer{From: 0, To: 2, Teleport: true, Avatar: capsule}); err != nil {
		t.Errorf("teleport 0->2 rejected: %v", err)
	}
}
