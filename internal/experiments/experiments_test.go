package experiments

import (
	"io"
	"strings"
	"testing"

	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/factors"
	"tdat/internal/series"
	"tdat/internal/tracegen"
)

// quickSuite is shared across the package tests (generation is the
// expensive part).
var quickSuite = RunSuite(QuickScale())

func TestSuiteShapeMatchesScale(t *testing.T) {
	s := QuickScale()
	if got := len(quickSuite.Vendor().Transfers); got != s.VendorTransfers {
		t.Errorf("vendor transfers = %d, want %d", got, s.VendorTransfers)
	}
	if got := len(quickSuite.Quagga().Transfers); got != s.QuaggaTransfers {
		t.Errorf("quagga transfers = %d, want %d", got, s.QuaggaTransfers)
	}
	if got := len(quickSuite.RV().Transfers); got != s.RVTransfers {
		t.Errorf("rv transfers = %d, want %d", got, s.RVTransfers)
	}
	for _, ds := range quickSuite.Datasets {
		for i, tr := range ds.Transfers {
			if tr.Report == nil || tr.Packets == 0 {
				t.Fatalf("%s transfer %d incomplete", ds.Name, i)
			}
		}
	}
}

func TestTable1CountsAddUp(t *testing.T) {
	rows := Table1(io.Discard, quickSuite)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Transfers != len(quickSuite.Datasets[i].Transfers) {
			t.Errorf("row %d transfers = %d", i, r.Transfers)
		}
		if r.Packets == 0 || r.Bytes == 0 || r.Routers == 0 {
			t.Errorf("row %d has zero columns: %+v", i, r)
		}
	}
}

func TestTable4QualitativeShape(t *testing.T) {
	res := Table4(io.Discard, quickSuite)
	// The paper's headline claims, asserted pooled across the three
	// datasets (the quick scale is too small for per-dataset stability; the
	// default-scale benchmark output shows them per dataset):
	// sender-side factors are the most prevalent major group, network the
	// rarest, and within the sender group BGP dominates TCP.
	var snd, rcv, net, sApp, sCwnd int
	for i := 0; i < 3; i++ {
		snd += res.SenderLimited[i]
		rcv += res.ReceiverLimited[i]
		net += res.NetworkLimited[i]
		sApp += res.SenderApp[i]
		sCwnd += res.SenderCwnd[i]
	}
	if snd <= rcv {
		t.Errorf("pooled: sender %d <= receiver %d", snd, rcv)
	}
	if snd <= net {
		t.Errorf("pooled: sender %d <= network %d", snd, net)
	}
	if sApp <= sCwnd {
		t.Errorf("pooled: sender BGP %d <= TCP %d", sApp, sCwnd)
	}
	// RouteViews' receiver side leans TCP (the 16 KB window), unlike ISP_A
	// (paper §IV-A).
	if res.RecvApp[2] > res.RecvWindow[2] {
		t.Errorf("RV receiver: BGP %d > TCP window %d (paper shows the reverse)",
			res.RecvApp[2], res.RecvWindow[2])
	}
}

func TestFig3DurationsPositive(t *testing.T) {
	res := Fig3(io.Discard, quickSuite)
	for i := 0; i < 3; i++ {
		if res.P50[i] <= 0 || res.P80[i] < res.P50[i] {
			t.Errorf("%s: p50=%.2f p80=%.2f", res.Names[i], res.P50[i], res.P80[i])
		}
	}
}

func TestFig4StretchesExist(t *testing.T) {
	res := Fig4(io.Discard, quickSuite)
	any := false
	for i := 0; i < 3; i++ {
		if len(res.Ratios[i]) > 0 {
			any = true
			for _, r := range res.Ratios[i] {
				if r < 1 {
					t.Errorf("stretch ratio %.2f < 1", r)
				}
			}
		}
	}
	if !any {
		t.Error("no stretch ratios computed")
	}
}

func TestFig14RatiosBounded(t *testing.T) {
	res := Fig14(io.Discard, quickSuite)
	for i := 0; i < 3; i++ {
		for _, p := range res.Points[i] {
			if p[0] < 0 || p[0] > 1.001 || p[1] < 0 || p[1] > 1.001 {
				t.Errorf("point out of range: %v", p)
			}
		}
	}
}

func TestFig16GroupsByFactor(t *testing.T) {
	res := Fig16(io.Discard, quickSuite)
	if len(res.ByFactor) == 0 {
		t.Fatal("no factors grouped")
	}
	if len(res.ByFactor[factors.SenderApp]) == 0 {
		t.Error("no sender-app dominated transfers at all")
	}
}

func TestFig17FindsDatasetTimers(t *testing.T) {
	res := Fig17(io.Discard, quickSuite)
	// Vendor profile paces at 200/400 ms: 200 must be among its timers.
	found := false
	for _, ms := range res.Timers[0] {
		if ms == 200 {
			found = true
		}
	}
	if !found {
		t.Errorf("vendor timers = %v, want 200ms present", res.Timers[0])
	}
	if res.Detected[0] == 0 {
		t.Error("no timers detected in the vendor dataset")
	}
}

func TestTable2SlowSample(t *testing.T) {
	rows := Table2(io.Discard, quickSuite, 2)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Num == 0 {
		t.Error("no timer-gap transfers in the slow sample")
	}
	if rows[2].Num != 2 {
		t.Errorf("peer-group passthrough = %d", rows[2].Num)
	}
}

func TestTable3ShowsEscalatingDelays(t *testing.T) {
	rows := Table3(io.Discard, 4242)
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].DelaySec <= 0 {
		t.Errorf("first delay = %v", rows[0].DelaySec)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].DelaySec < rows[i-1].DelaySec {
			t.Errorf("delays not monotone: %v", rows)
		}
	}
}

func TestTable5CountsProblems(t *testing.T) {
	res := Table5(io.Discard, quickSuite, 1)
	if res.GapTransfers[0] == 0 {
		t.Error("no gap transfers in the vendor dataset")
	}
	for i := 0; i < 3; i++ {
		if res.PGCases[i] != 1 {
			t.Errorf("%s peer-group cases = %d, want 1", res.Names[i], res.PGCases[i])
		}
		if res.PGAvgSec[i] < 10 {
			t.Errorf("%s peer-group delay = %.1fs, implausibly small", res.Names[i], res.PGAvgSec[i])
		}
	}
}

func TestFig15MonotoneBGPPressure(t *testing.T) {
	pts := Fig15(io.Discard, 4242, []int{2, 12})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].BGPRatio <= pts[0].BGPRatio {
		t.Errorf("BGP receiver pressure did not grow with concurrency: %.2f -> %.2f",
			pts[0].BGPRatio, pts[1].BGPRatio)
	}
}

func TestExampleFiguresRender(t *testing.T) {
	var sb strings.Builder
	Fig5(&sb, 4243)
	Fig6(&sb, 4244)
	Fig7(&sb, 4245)
	Fig8(&sb, 4246)
	Fig11(&sb, 4247)
	out := sb.String()
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 11", "marks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in example figures", want)
		}
	}
	if strings.Contains(out, "analysis failed") {
		t.Error("an example figure failed to analyze")
	}
}

func TestFig9DetectsBlocking(t *testing.T) {
	var sb strings.Builder
	Fig9(&sb, 4248)
	out := sb.String()
	if !strings.Contains(out, "detected blocking") {
		t.Errorf("Fig9 did not detect blocking:\n%s", out)
	}
}

// TestPeerGroupBlockingAnyBlamesVendorMember runs a four-member peer group
// end to end: every member's capture goes through the analyzer, and for
// each healthy member PeerGroupBlockingAny blames the vendor member, whose
// death blocked the group, among its three siblings, for a time between
// the kill and the hold expiry.
func TestPeerGroupBlockingAnyBlamesVendorMember(t *testing.T) {
	pg := tracegen.RunPeerGroup(61, 4, 8_000, 1_000_000, 30_000_000)
	cats := make([]*series.Catalog, len(pg.Members))
	for i, tr := range pg.Members {
		rep := analyzeTrace(tr)
		if rep == nil {
			t.Fatalf("member %d: capture is not one transfer", i)
		}
		cats[i] = rep.Catalog
	}
	vendor := len(cats) - 1
	for i := 0; i < vendor; i++ {
		siblings := append(append([]*series.Catalog(nil), cats[:i]...), cats[i+1:]...)
		res, blamed, ok := detect.PeerGroupBlockingAny(cats[i], siblings, 0)
		// Without member i, the vendor member is the last sibling.
		if !ok || blamed != len(siblings)-1 {
			t.Errorf("member %d: blamed sibling %d (ok %v), want the vendor member %d", i, blamed, ok, len(siblings)-1)
			continue
		}
		// The blocking falls between the ground truth's t1 and t2.
		if span, _ := res.Blocked.Bounds(); span.Start < pg.KillAt || span.End > pg.HoldExpiry {
			t.Errorf("member %d: blocked %v outside kill %d .. hold expiry %d", i, res.Blocked, pg.KillAt, pg.HoldExpiry)
		}
	}
}

func TestMeasureThroughputFasterThanPaper(t *testing.T) {
	res := MeasureThroughput(5, 4250)
	if res.Connections != 5 {
		t.Fatalf("connections = %d", res.Connections)
	}
	// The paper's Perl prototype took 26 s/connection; anything below one
	// second comfortably beats it on comparable trace sizes.
	if res.PerConnection > 1.0 {
		t.Errorf("analyzer took %.2fs per connection", res.PerConnection)
	}
}

func TestAccuracyAgainstGroundTruth(t *testing.T) {
	rows := Accuracy(9000, 2, false)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	total, correct := 0, 0
	for _, r := range rows {
		total += r.Trials
		correct += r.Correct
		if r.Trials == 0 {
			t.Errorf("%v: no trials completed", r.Kind)
		}
	}
	// The analyzer must attribute the vast majority of scenarios to the
	// ground-truth group.
	if correct*10 < total*9 {
		t.Errorf("accuracy %d/%d below 90%%", correct, total)
	}
}

func TestPaperScaleTransferTakesMinutes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale table in -short mode")
	}
	// The paper's headline: a full table (≈300k routes / 4.5 MB) that the
	// link could move in seconds takes ~10 minutes under the 200 ms vendor
	// pacing timer.
	tr := tracegen.Run(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 5042, Routes: 300_000,
		PacingTimer: 200_000, PacingBudget: 24, Horizon: 3_600_000_000,
	})
	rep := core.New(core.Config{}).AnalyzePackets(tr.Packets())
	if len(rep.Transfers) != 1 {
		t.Fatal("want one transfer")
	}
	d := rep.Transfers[0].Duration()
	if d < 8*60_000_000 || d > 15*60_000_000 {
		t.Errorf("paper-scale paced transfer took %.1f min, want ≈10", float64(d)/6e7)
	}
	if rep.Transfers[0].Timer == nil {
		t.Error("timer not detected at paper scale")
	}
	g, ratio := rep.Transfers[0].Factors.Dominant()
	if g.String() != "sender" || ratio < 0.9 {
		t.Errorf("dominant = %v %.2f", g, ratio)
	}
}

// TestDimensionRobustnessCalibrated: at seed offset 0 (the grid the
// validation floors gate) the Reno row must attribute every adversarial
// dimension correctly, every stack must sweep the same six dimensions in
// grid order, and the table must render.
func TestDimensionRobustnessCalibrated(t *testing.T) {
	rows := DimensionRobustness(0)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	wantDims := []string{
		"long-rtt", "varying-rate", "burst-loss",
		"heavy-tail-app", "bimodal-app", "fanout",
	}
	for _, r := range rows {
		if len(r.Cells) != len(wantDims) {
			t.Fatalf("stack %s swept %d dimensions, want %d", r.Stack, len(r.Cells), len(wantDims))
		}
		for i, c := range r.Cells {
			if c.Dimension != wantDims[i] {
				t.Errorf("stack %s cell[%d] = %s, want %s", r.Stack, i, c.Dimension, wantDims[i])
			}
			if c.Trials == 0 {
				t.Errorf("stack %s dimension %s: no trials", r.Stack, c.Dimension)
			}
		}
	}
	reno := rows[0]
	if reno.Stack.String() != "reno" {
		t.Fatalf("first row is %s, want reno", reno.Stack)
	}
	if reno.Trials == 0 || reno.Correct != reno.Trials {
		t.Errorf("reno attribution %d/%d, want perfect on the calibrated grid",
			reno.Correct, reno.Trials)
	}

	var buf strings.Builder
	DimensionRobustnessTable(&buf, 0)
	for _, want := range []string{"adversarial dimensions", "reno", "fanout"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q:\n%s", want, buf.String())
		}
	}
}
