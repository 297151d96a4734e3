package tracegen

import (
	"testing"

	"tdat/internal/netem"
)

// runTwice runs the scenario twice and asserts byte-identical traces — the
// per-seed determinism every diversity dimension must preserve.
func runTwice(t *testing.T, sc Scenario) *Trace {
	t.Helper()
	tr := Run(sc)
	if h1, h2 := hashTrace(t, tr), hashTrace(t, Run(sc)); h1 != h2 {
		t.Fatalf("%s seed %d: double run diverged (%s vs %s)", sc.Kind, sc.Seed, h1, h2)
	}
	return tr
}

// TestHeavyTailAppScenario: the Pareto profile completes the transfer,
// marks application-idle truth, and reproduces per seed.
func TestHeavyTailAppScenario(t *testing.T) {
	tr := runTwice(t, Scenario{Kind: KindHeavyTailApp, Seed: 3, Routes: 1500})
	if tr.RoutesDelivered != 1500 {
		t.Fatalf("delivered %d of 1500 routes", tr.RoutesDelivered)
	}
	if tr.Truth.AppIdle.Empty() {
		t.Error("heavy-tail profile produced no AppIdle truth")
	}
	// A heavy-tailed gap draw must actually shape the transfer: idle time
	// should be a large share of the ground duration.
	if idle := tr.Truth.AppIdle.Size(); idle < tr.GroundDuration/4 {
		t.Errorf("AppIdle %dµs over %dµs transfer — profile not binding", idle, tr.GroundDuration)
	}
}

// TestBimodalAppScenario: both modes of the bimodal profile appear as
// wire-visible inter-burst gaps and the transfer completes. (The AppIdle
// truth set merges back-to-back gaps — bursts take zero virtual time — so
// the two regimes are asserted on the capture, where they actually show.)
func TestBimodalAppScenario(t *testing.T) {
	tr := runTwice(t, Scenario{Kind: KindBimodalApp, Seed: 4, Routes: 1500})
	if tr.RoutesDelivered != 1500 {
		t.Fatalf("delivered %d of 1500 routes", tr.RoutesDelivered)
	}
	// Gap-dominated transfer: idle time must dwarf wire time.
	if idle := tr.Truth.AppIdle.Size(); idle < tr.GroundDuration/2 {
		t.Errorf("AppIdle %dµs over %dµs transfer — profile not binding", idle, tr.GroundDuration)
	}
	var prev Micros
	seen := false
	short, long := 0, 0
	for _, c := range tr.Captures {
		if c.Dir != netem.DirData || c.Pkt.PayloadLen() == 0 {
			continue
		}
		if seen {
			switch gap := c.Time - prev; {
			case gap > 250_000:
				long++
			case gap > 5_000 && gap < 150_000:
				short++
			}
		}
		seen = true
		prev = c.Time
	}
	if short < 3 || long < 1 {
		t.Errorf("inter-burst gaps span one regime only (%d short, %d long)", short, long)
	}
}

// TestVaryingRateScenario: step and sawtooth profiles complete and stay
// deterministic; the time-varying link stretches the transfer relative to
// the fixed high rate.
func TestVaryingRateScenario(t *testing.T) {
	for _, profile := range []string{"step", "sawtooth"} {
		sc := Scenario{Kind: KindVaryingRate, Seed: 5, Routes: 1500, RateProfile: profile}
		tr := runTwice(t, sc)
		if tr.RoutesDelivered != 1500 {
			t.Fatalf("%s: delivered %d of 1500 routes", profile, tr.RoutesDelivered)
		}
		fixed := Run(Scenario{Kind: KindBandwidth, Seed: 5, Routes: 1500})
		if tr.GroundDuration <= fixed.GroundDuration {
			t.Errorf("%s profile (%dµs) not slower than fixed high rate (%dµs)",
				profile, tr.GroundDuration, fixed.GroundDuration)
		}
	}
}

// TestBurstLossScenario: Gilbert–Elliott loss layers onto both loss kinds,
// records authoritative drops, and clusters them (bursts, not i.i.d.).
func TestBurstLossScenario(t *testing.T) {
	ge := &netem.GEParams{PGoodBad: 0.05, PBadGood: 0.25, DropBad: 0.9}
	for _, kind := range []Kind{KindUpstreamLoss, KindDownstreamLoss} {
		tr := runTwice(t, Scenario{Kind: kind, Seed: 6, Routes: 4000, BurstLoss: ge})
		drops := tr.Truth.UpstreamDrops
		if kind == KindDownstreamLoss {
			drops = tr.Truth.DownstreamDrops
		}
		if len(drops) < 4 {
			t.Fatalf("%s: only %d GE drops", kind, len(drops))
		}
		// Bursts: at least one pair of consecutive drops within 10 ms.
		clustered := false
		for i := 1; i < len(drops); i++ {
			if drops[i]-drops[i-1] < 10_000 {
				clustered = true
				break
			}
		}
		if !clustered {
			t.Errorf("%s: %d drops with no clustering — process not bursty", kind, len(drops))
		}
	}
}

// TestFanoutScenario: a peer group with slow unobserved members blocks the
// observed member on the slack bound, the transfer still completes, and
// the run reproduces per seed.
func TestFanoutScenario(t *testing.T) {
	sc := Scenario{Kind: KindFanout, Seed: 7, Routes: 1200, GroupMembers: 24}
	tr := runTwice(t, sc)
	if tr.RoutesDelivered != 1200 {
		t.Fatalf("delivered %d of 1200 routes", tr.RoutesDelivered)
	}
	if tr.Truth.GroupBlocked.Empty() {
		t.Fatal("fanout run never hit the group slack bound")
	}
	if blocked := tr.Truth.GroupBlocked.Size(); blocked < tr.GroundDuration/4 {
		t.Errorf("GroupBlocked %dµs over %dµs — slack bound barely binding", blocked, tr.GroundDuration)
	}
}

// TestFanoutScalesToHundreds: the group machinery holds at route-server
// scale (hundreds of members). Kept small-table so the test stays fast.
func TestFanoutScalesToHundreds(t *testing.T) {
	if testing.Short() {
		t.Skip("route-server-scale fanout is slow")
	}
	tr := Run(Scenario{Kind: KindFanout, Seed: 8, Routes: 800, GroupMembers: 200})
	if tr.RoutesDelivered != 800 {
		t.Fatalf("delivered %d of 800 routes", tr.RoutesDelivered)
	}
	if tr.Truth.GroupBlocked.Empty() {
		t.Error("200-member fanout never hit the slack bound")
	}
}
