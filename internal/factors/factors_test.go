package factors

import (
	"testing"

	"tdat/internal/series"
	"tdat/internal/timerange"
	"tdat/internal/traceutil"
)

const mss = 1460

// pacedCatalog builds a sender-app-limited transfer: 200 ms pacing gaps
// dominate.
func pacedCatalog() (*series.Catalog, timerange.Range) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	t0 := traceutil.Micros(20_000)
	off := int64(0)
	for i := 0; i < 10; i++ {
		b.Data(t0, off, mss)
		off += mss
		b.Ack(t0+10_000, off, 65535)
		t0 += 200_000
	}
	cat := series.Generate(b.Extract(), series.Config{DisableShift: true})
	return cat, timerange.R(0, t0)
}

// windowBoundCatalog builds a receiver-window-bounded transfer with a tiny
// (small-bucket) window.
func windowBoundCatalog() (*series.Catalog, timerange.Range) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	win := uint16(2 * mss) // < 3·MSS: the small bucket
	t0 := traceutil.Micros(20_000)
	off := int64(0)
	for f := 0; f < 20; f++ {
		b.Data(t0, off, mss)
		b.Data(t0+100, off+mss, mss)
		off += 2 * mss
		b.Ack(t0+10_000, off, win)
		t0 += 10_000
	}
	cat := series.Generate(b.Extract(), series.Config{DisableShift: true})
	return cat, timerange.R(0, t0)
}

func TestPacedTransferIsSenderLimited(t *testing.T) {
	cat, period := pacedCatalog()
	rep := AnalyzeEv(cat, period, 0, nil)
	if rep.Threshold != DefaultMajorThreshold {
		t.Errorf("threshold = %v", rep.Threshold)
	}
	if rep.G.At(GroupSender) < 0.8 {
		t.Errorf("sender ratio = %.2f, want > 0.8 (G=%v)", rep.G.At(GroupSender), rep.G)
	}
	if len(rep.MajorGroups) == 0 || rep.MajorGroups[0] != GroupSender {
		t.Errorf("major groups = %v", rep.MajorGroups)
	}
	if rep.DominantFactor[GroupSender] != SenderApp {
		t.Errorf("dominant sender factor = %v", rep.DominantFactor[GroupSender])
	}
	g, ratio := rep.Dominant()
	if g != GroupSender || ratio < 0.8 {
		t.Errorf("Dominant = %v %.2f", g, ratio)
	}
}

func TestWindowBoundTransferIsReceiverLimited(t *testing.T) {
	cat, period := windowBoundCatalog()
	rep := AnalyzeEv(cat, period, 0, nil)
	if rep.G.At(GroupReceiver) < 0.5 {
		t.Errorf("receiver ratio = %.2f (G=%v)", rep.G.At(GroupReceiver), rep.G)
	}
	if rep.DominantFactor[GroupReceiver] != ReceiverApp {
		t.Errorf("dominant receiver factor = %v (small window ⇒ receiver app)",
			rep.DominantFactor[GroupReceiver])
	}
	if rep.Unknown() {
		t.Error("report should not be unknown")
	}
}

func TestEmptyPeriodYieldsUnknown(t *testing.T) {
	cat, _ := pacedCatalog()
	rep := AnalyzeEv(cat, timerange.R(5, 5), 0, nil)
	if !rep.Unknown() {
		t.Error("zero-length period must be unknown")
	}
	for f := Factor(0); int(f) < numFactors; f++ {
		if rep.V.At(f) != 0 {
			t.Errorf("factor %v ratio = %v on empty period", f, rep.V.At(f))
		}
	}
}

func TestThresholdSweepStability(t *testing.T) {
	// Paper: thresholds 0.3–0.5 do not qualitatively change the relative
	// importance of factors.
	cat, period := pacedCatalog()
	var prevDominant Group
	for i, th := range []float64{0.3, 0.4, 0.5} {
		rep := AnalyzeEv(cat, period, th, nil)
		g, _ := rep.Dominant()
		if i > 0 && g != prevDominant {
			t.Errorf("dominant group changed at threshold %v: %v → %v", th, prevDominant, g)
		}
		prevDominant = g
	}
}

func TestRatiosBounded(t *testing.T) {
	cat, period := windowBoundCatalog()
	rep := AnalyzeEv(cat, period, 0, nil)
	for f := Factor(0); int(f) < numFactors; f++ {
		if r := rep.V.At(f); r < 0 || r > 1.0001 {
			t.Errorf("factor %v ratio %v out of [0,1]", f, r)
		}
	}
	for g := GroupSender; int(g) < numGroups; g++ {
		if r := rep.G.At(g); r < 0 || r > 1.0001 {
			t.Errorf("group %v ratio %v out of [0,1]", g, r)
		}
	}
	// Group ratio cannot exceed the sum of member factors but must be at
	// least the max member (union ≥ any member).
	maxMember := 0.0
	for _, f := range []Factor{ReceiverApp, ReceiverWindow, ReceiverLocalLoss} {
		if rep.V.At(f) > maxMember {
			maxMember = rep.V.At(f)
		}
	}
	if rep.G.At(GroupReceiver) < maxMember-1e-9 {
		t.Errorf("group union %v below max member %v", rep.G.At(GroupReceiver), maxMember)
	}
}

func TestGroupOfCoversAllFactors(t *testing.T) {
	want := map[Factor]Group{
		SenderApp: GroupSender, SenderCwnd: GroupSender, SenderLocalLoss: GroupSender,
		ReceiverApp: GroupReceiver, ReceiverWindow: GroupReceiver, ReceiverLocalLoss: GroupReceiver,
		NetBandwidth: GroupNetwork, NetLoss: GroupNetwork,
	}
	for f, g := range want {
		if GroupOf(f) != g {
			t.Errorf("GroupOf(%v) = %v, want %v", f, GroupOf(f), g)
		}
	}
}

func TestStringers(t *testing.T) {
	if SenderApp.String() != "bgp-sender-app" || NetLoss.String() != "network-loss" {
		t.Error("factor stringer broken")
	}
	if Factor(99).String() != "unknown" || Group(99).String() != "unknown" {
		t.Error("unknown stringers broken")
	}
	if GroupSender.String() != "sender" || GroupReceiver.String() != "receiver" || GroupNetwork.String() != "network" {
		t.Error("group stringer broken")
	}
	var v Vector
	v[SenderApp] = 0.5
	if v.String() == "" {
		t.Error("vector stringer empty")
	}
	g := GroupVector{0.8, 0.1, 0.1}
	if g.String() != "(0.80, 0.10, 0.10)" {
		t.Errorf("group vector = %q", g.String())
	}
}

func TestMajorGroupsSortedDescending(t *testing.T) {
	cat, period := windowBoundCatalog()
	rep := AnalyzeEv(cat, period, 0.01, nil) // tiny threshold admits several groups
	for i := 1; i < len(rep.MajorGroups); i++ {
		if rep.G.At(rep.MajorGroups[i-1]) < rep.G.At(rep.MajorGroups[i]) {
			t.Errorf("major groups not sorted: %v with G=%v", rep.MajorGroups, rep.G)
		}
	}
}
