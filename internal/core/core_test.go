package core

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"strings"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/netem"
	"tdat/internal/pcapio"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// analyzeScenario runs one simulator scenario and the full analyzer over
// its sniffer capture, returning the single transfer report.
func analyzeScenario(t *testing.T, sc tracegen.Scenario) *TransferReport {
	t.Helper()
	tr := tracegen.Run(sc)
	if tr.RoutesDelivered == 0 {
		t.Fatalf("scenario %v delivered no routes", sc.Kind)
	}
	a := New(Config{})
	rep := a.AnalyzePackets(tr.Packets())
	if len(rep.Transfers) != 1 {
		t.Fatalf("analyzer found %d transfers, want 1", len(rep.Transfers))
	}
	return rep.Transfers[0]
}

func TestEndToEndPacedIsSenderAppLimited(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 1, Routes: 6_000,
		PacingTimer: 200_000, PacingBudget: 24,
	})
	g, ratio := rep.Factors.Dominant()
	if g != factors.GroupSender {
		t.Errorf("dominant group = %v (G=%v)", g, rep.Factors.G)
	}
	if ratio < 0.5 {
		t.Errorf("sender ratio = %.2f, want > 0.5", ratio)
	}
	if rep.Factors.DominantFactor[factors.GroupSender] != factors.SenderApp {
		t.Errorf("dominant factor = %v, want bgp-sender-app",
			rep.Factors.DominantFactor[factors.GroupSender])
	}
	if rep.Timer == nil {
		t.Fatal("pacing timer not detected")
	}
	if rep.Timer.TimerMicros < 150_000 || rep.Timer.TimerMicros > 250_000 {
		t.Errorf("timer = %d µs, want ≈200ms", rep.Timer.TimerMicros)
	}
}

func TestEndToEndSlowReceiverIsReceiverLimited(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindSlowReceiver, Seed: 2, Routes: 15_000,
		CollectorRate: 20_000,
	})
	if rep.Factors.G.At(factors.GroupReceiver) < 0.3 {
		t.Errorf("receiver ratio = %.2f (G=%v V=%v)",
			rep.Factors.G.At(factors.GroupReceiver), rep.Factors.G, rep.Factors.V)
	}
	g, _ := rep.Factors.Dominant()
	if g != factors.GroupReceiver {
		t.Errorf("dominant group = %v (G=%v)", g, rep.Factors.G)
	}
	if rep.Factors.DominantFactor[factors.GroupReceiver] != factors.ReceiverApp {
		t.Errorf("dominant receiver factor = %v, want bgp-receiver-app",
			rep.Factors.DominantFactor[factors.GroupReceiver])
	}
}

func TestEndToEndSmallWindowIsWindowLimited(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindSmallWindow, Seed: 3, Routes: 20_000,
		RecvBuf: 16384, RTT: 30_000,
	})
	if rep.Factors.G.At(factors.GroupReceiver) < 0.3 {
		t.Errorf("receiver ratio = %.2f (G=%v V=%v)",
			rep.Factors.G.At(factors.GroupReceiver), rep.Factors.G, rep.Factors.V)
	}
	// A fully open (but small) max window bounding the transfer is the
	// "TCP advertised window" parameter factor.
	if rep.Factors.V.At(factors.ReceiverWindow) < rep.Factors.V.At(factors.ReceiverApp) {
		t.Errorf("window factor %.2f below receiver-app %.2f",
			rep.Factors.V.At(factors.ReceiverWindow), rep.Factors.V.At(factors.ReceiverApp))
	}
}

func TestEndToEndUpstreamLossIsNetworkLimited(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindUpstreamLoss, Seed: 4, Routes: 12_000, LossRate: 0.05,
	})
	if rep.Factors.V.At(factors.NetLoss) < 0.1 {
		t.Errorf("network loss ratio = %.2f (V=%v)", rep.Factors.V.At(factors.NetLoss), rep.Factors.V)
	}
	if rep.Conn.Profile.GapFillCount == 0 {
		t.Error("no gap fills recorded for an upstream-lossy path")
	}
	if rep.Conn.Profile.RetransmitCount > rep.Conn.Profile.GapFillCount {
		t.Errorf("upstream loss should show as gap fills: retx=%d gapfill=%d",
			rep.Conn.Profile.RetransmitCount, rep.Conn.Profile.GapFillCount)
	}
}

func TestEndToEndDownstreamLossIsReceiverLocal(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindDownstreamLoss, Seed: 5, Routes: 12_000, LossRate: 0.05,
	})
	if rep.Factors.V.At(factors.ReceiverLocalLoss) < 0.05 {
		t.Errorf("receiver-local loss ratio = %.2f (V=%v)",
			rep.Factors.V.At(factors.ReceiverLocalLoss), rep.Factors.V)
	}
	if rep.Conn.Profile.RetransmitCount == 0 {
		t.Error("no captured retransmissions for a downstream-lossy path")
	}
}

func TestEndToEndBandwidthLimited(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindBandwidth, Seed: 6, Routes: 12_000, UpstreamRate: 60_000,
	})
	if rep.Factors.V.At(factors.NetBandwidth) < 0.3 {
		t.Errorf("bandwidth ratio = %.2f (V=%v)", rep.Factors.V.At(factors.NetBandwidth), rep.Factors.V)
	}
}

func TestEndToEndZeroAckBugDetected(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindZeroAckBug, Seed: 7, Routes: 12_000,
	})
	if !rep.ZeroAckBug {
		t.Errorf("ZeroAckBug not flagged (V=%v)", rep.Factors.V)
	}
}

func TestEndToEndMCTMatchesGroundTruth(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 8, Routes: 8_000})
	a := New(Config{})
	rep := a.AnalyzePackets(tr.Packets())
	if len(rep.Transfers) != 1 {
		t.Fatal("want one transfer")
	}
	got := rep.Transfers[0]
	if got.MCT == nil {
		t.Fatal("MCT did not produce a transfer end")
	}
	// The analyzer's duration must agree with the simulator's ground truth
	// within 20% (MCT sees arrival times; ground truth is app processing).
	gd := float64(tr.GroundDuration)
	ad := float64(got.Duration())
	if ad < gd*0.7 || ad > gd*1.3 {
		t.Errorf("analyzer duration %.2fs vs ground %.2fs", ad/1e6, gd/1e6)
	}
	if got.Messages == 0 {
		t.Error("no BGP messages recovered")
	}
}

func TestAnalyzePcapRoundTrip(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 9, Routes: 4_000})
	// Serialize the capture to pcap bytes the way the sniffer box would.
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	for _, c := range tr.Captures {
		frame, err := c.Pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(c.Time, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	rep, err := a.AnalyzePcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transfers) != 1 || rep.SkippedPackets != 0 {
		t.Fatalf("transfers=%d skipped=%d", len(rep.Transfers), rep.SkippedPackets)
	}
	if rep.Transfers[0].Conn.Profile.TotalDataBytes == 0 {
		t.Error("pcap round trip lost payload")
	}
}

func TestWriteTextReport(t *testing.T) {
	rep := analyzeScenario(t, tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 10, Routes: 3_000, PacingTimer: 200_000, PacingBudget: 24,
	})
	var sb strings.Builder
	if err := rep.WriteText(&sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"group ratios", "major:", "Transmission", "SendAppLimited"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestAnalyzeConnectionWindowForcedEnd(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 11, Routes: 4_000})
	a := New(Config{})
	rep := a.AnalyzePackets(tr.Packets())
	c := rep.Transfers[0].Conn
	forced := a.AnalyzeConnectionWindow(c, timerange.R(c.Profile.Start, c.Profile.Start+1_000_000))
	if forced.Duration() != 1_000_000 {
		t.Errorf("forced duration = %d", forced.Duration())
	}
	// Window clamping: ratios stay within [0,1].
	for f := 0; f < 8; f++ {
		if r := forced.Factors.V[f]; r < 0 || r > 1.0001 {
			t.Errorf("factor %d ratio %v out of range", f, r)
		}
	}
}

func TestSnifferDirectionConsistency(t *testing.T) {
	// The flows orientation must agree with the simulator's: data flows
	// router → collector.
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 12, Routes: 3_000})
	a := New(Config{})
	rep := a.AnalyzePackets(tr.Packets())
	c := rep.Transfers[0].Conn
	if c.Sender.Port != 179 {
		t.Errorf("sender = %v, want the router (port 179)", c.Sender)
	}
	var dataDir int
	for _, cap := range tr.Captures {
		if cap.Dir == netem.DirData && len(cap.Pkt.Payload) > 0 {
			dataDir++
		}
	}
	if dataDir == 0 {
		t.Error("no data-direction captures")
	}
}

func TestAnalyzeConnectionWithUpdatesPinsEnd(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 20, Routes: 4_000})
	a := New(Config{})
	conns := flows.Extract(tr.Packets())
	if len(conns) != 1 {
		t.Fatal("want one connection")
	}
	// Build MCT updates from the collector's archive (the Quagga pipeline).
	var (
		times []Micros
		msgs  []bgp.Message
	)
	for _, e := range tr.Archive {
		m, err := bgp.Parse(e.Raw)
		if err != nil {
			t.Fatal(err)
		}
		times, msgs = append(times, e.Time), append(msgs, m)
	}
	rep := a.AnalyzeConnectionWithUpdates(conns[0], mct.FromMessages(times, msgs))
	if rep.MCT == nil {
		t.Fatal("archive-driven analysis produced no MCT result")
	}
	// Archive timestamps ARE the ground truth end.
	if rep.Transfer.End != tr.GroundDuration {
		t.Errorf("end = %d, ground = %d", rep.Transfer.End, tr.GroundDuration)
	}
	// Empty archive falls back to the last data packet.
	rep2 := a.AnalyzeConnectionWithUpdates(conns[0], nil)
	if rep2.MCT != nil || rep2.Duration() <= 0 {
		t.Errorf("fallback: mct=%v dur=%d", rep2.MCT, rep2.Duration())
	}
}

func TestAnalyzerRobustToSnifferDrops(t *testing.T) {
	// tcpdump drops leave void periods in the trace (paper §II-A); the
	// analyzer must survive a decimated capture and still classify.
	tr := tracegen.Run(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 21, Routes: 6_000,
		PacingTimer: 200_000, PacingBudget: 24,
	})
	pkts := tr.Packets()
	var thinned []flows.TimedPacket
	for i, p := range pkts {
		if i%11 == 3 {
			continue // drop ~9% of captured packets
		}
		thinned = append(thinned, p)
	}
	a := New(Config{})
	rep := a.AnalyzePackets(thinned)
	if len(rep.Transfers) != 1 {
		t.Fatalf("transfers = %d", len(rep.Transfers))
	}
	got := rep.Transfers[0]
	g, ratio := got.Factors.Dominant()
	if g != factors.GroupSender || ratio < 0.4 {
		t.Errorf("decimated capture misclassified: %v %.2f (V=%v)", g, ratio, got.Factors.V)
	}
}

func TestAnalyzerDeterministic(t *testing.T) {
	run := func() string {
		tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 22, Routes: 6_000})
		rep := New(Config{}).AnalyzePackets(tr.Packets())
		return rep.Transfers[0].Factors.V.String() + rep.Transfers[0].Factors.G.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic analysis: %s vs %s", a, b)
	}
}

func TestMultiConnectionCapture(t *testing.T) {
	// Two transfers in one capture file (different routers): the analyzer
	// must separate and classify both.
	tr1 := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 23, Routes: 4_000, PacingBudget: 24})
	tr2 := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindSmallWindow, Seed: 24, Routes: 8_000, RecvBuf: 16384, RTT: 30_000})
	merged := append(tr1.Packets(), tr2.Packets()...)
	// Disambiguate the second connection's addresses.
	for _, p := range tr2.Packets() {
		_ = p
	}
	// tr2 shares IPs with tr1; rewrite its router address so the flows layer
	// sees two connections.
	for _, tp := range merged[len(tr1.Packets()):] {
		if tp.Pkt.TCP.SrcPort == 179 {
			tp.Pkt.IP.Src = netip.MustParseAddr("10.0.0.9")
		} else {
			tp.Pkt.IP.Dst = netip.MustParseAddr("10.0.0.9")
		}
	}
	rep := New(Config{}).AnalyzePackets(merged)
	if len(rep.Transfers) != 2 {
		t.Fatalf("transfers = %d, want 2", len(rep.Transfers))
	}
	for _, t2 := range rep.Transfers {
		if t2.Factors.Unknown() {
			t.Errorf("transfer %s unclassified", t2.Conn.Sender)
		}
	}
}

func TestAnalyzeChurnWindow(t *testing.T) {
	// Paper §VII future work: analyze the failure-triggered burst on an
	// established session, not just the initial transfer. The paced sender
	// must be classified sender-app limited within the churn window alone.
	ct := tracegen.RunChurn(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 51, Routes: 6_000,
		PacingTimer: 200_000, PacingBudget: 24,
	}, 5_000_000, 0.5)
	a := New(Config{})
	conns := flows.Extract(ct.Packets())
	if len(conns) != 1 {
		t.Fatal("want one connection")
	}
	rep := a.AnalyzeConnectionWindow(conns[0], timerange.R(ct.ChurnStart, ct.ChurnEnd))
	g, ratio := rep.Factors.Dominant()
	if g != factors.GroupSender || ratio < 0.5 {
		t.Errorf("churn window: %v %.2f (V=%v)", g, ratio, rep.Factors.V)
	}
	if rep.Timer == nil {
		t.Error("pacing timer not detected within the churn window")
	} else if rep.Timer.TimerMicros < 150_000 || rep.Timer.TimerMicros > 250_000 {
		t.Errorf("churn timer = %d µs", rep.Timer.TimerMicros)
	}
	// An empty window falls back to the whole connection.
	whole := a.AnalyzeConnectionWindow(conns[0], timerange.Range{})
	if whole.Duration() <= rep.Duration() {
		t.Errorf("whole-connection window %d not larger than churn %d",
			whole.Duration(), rep.Duration())
	}
}

func TestJSONReport(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 60, Routes: 4_000,
		PacingTimer: 200_000, PacingBudget: 24,
	})
	rep := New(Config{}).AnalyzePackets(tr.Packets())
	j := rep.Transfers[0].JSON()
	if j.Sender == "" || j.Duration <= 0 {
		t.Errorf("json basics: %+v", j)
	}
	if len(j.Factors) != 8 || len(j.Groups) != 3 || len(j.Series) != 34 {
		t.Errorf("factor/group/series counts: %d/%d/%d",
			len(j.Factors), len(j.Groups), len(j.Series))
	}
	if j.TimerMillis < 150 || j.TimerMillis > 250 {
		t.Errorf("timer_ms = %v", j.TimerMillis)
	}
	if len(j.MajorGroups) == 0 || j.MajorGroups[0] != "sender" {
		t.Errorf("major groups = %v", j.MajorGroups)
	}
	var buf bytes.Buffer
	if err := rep.Transfers[0].WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back["sender"] != j.Sender {
		t.Errorf("round trip sender = %v", back["sender"])
	}
}

func TestResetRestartSplitsIntoTwoTransfers(t *testing.T) {
	// One capture, one 4-tuple, two table transfers separated by a RST —
	// the ISP_A-1 pattern. The analyzer must report two transfers, each
	// with its own clean sequence space.
	tr := tracegen.RunWithReset(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 70, Routes: 8_000,
		PacingTimer: 200_000, PacingBudget: 24,
		Horizon: 120_000_000,
	}, 700_000)
	a := New(Config{})
	rep := a.AnalyzePackets(tr.Packets())
	if len(rep.Transfers) != 2 {
		t.Fatalf("transfers = %d, want 2 (reset split)", len(rep.Transfers))
	}
	first, second := rep.Transfers[0], rep.Transfers[1]
	if first.Conn.Profile.Start >= second.Conn.Profile.Start {
		t.Error("transfers out of order")
	}
	// The second (complete) transfer must classify cleanly.
	if second.Factors.Unknown() {
		t.Errorf("second transfer unclassified: V=%v", second.Factors.V)
	}
	if second.Messages == 0 {
		t.Error("second transfer recovered no BGP messages")
	}
	// The second transfer delivered the full table.
	if tr.RoutesDelivered < 8_000 {
		t.Errorf("routes delivered = %d, want ≥ one full table", tr.RoutesDelivered)
	}
}
