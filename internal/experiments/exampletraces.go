package experiments

import (
	"fmt"
	"io"

	"tdat/internal/asciiplot"
	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/flows"
	"tdat/internal/obs"
	"tdat/internal/series"
	"tdat/internal/tracegen"
)

// exampleScenario runs one scenario and returns its analyzed report.
func exampleScenario(sc tracegen.Scenario) (*tracegen.Trace, *AnalyzedTransfer) {
	tr := tracegen.Run(sc)
	rep := analyzeTrace(tr)
	if rep == nil {
		return tr, nil
	}
	return tr, &AnalyzedTransfer{Kind: tr.Kind, Report: rep, GroundDuration: tr.GroundDuration}
}

// Fig5 shows a timer-paced transfer's time-sequence plot (paper Fig 5:
// gaps in a table transfer).
func Fig5(w io.Writer, seed int64) {
	header(w, "Figure 5: gaps in a table transfer (timer-paced sender)")
	_, at := exampleScenario(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: seed, Routes: 4_000,
		PacingTimer: 200_000, PacingBudget: 24,
	})
	if at == nil {
		fmt.Fprintln(w, "(analysis failed)")
		return
	}
	_ = asciiplot.TimeSequence(w, at.Report.Conn, 100, 18)
	if at.Report.Timer != nil {
		fmt.Fprintf(w, "detected timer: %.0f ms across %d gaps\n",
			float64(at.Report.Timer.TimerMicros)/1000, at.Report.Timer.Gaps)
	}
}

// Fig6 shows consecutive retransmission episodes (paper Fig 6).
func Fig6(w io.Writer, seed int64) {
	header(w, "Figure 6: consecutive packet retransmissions")
	_, at := exampleScenario(tracegen.Scenario{
		Kind: tracegen.KindDownstreamLoss, Seed: seed, Routes: 20_000, LossRate: 0.12,
	})
	if at == nil {
		fmt.Fprintln(w, "(analysis failed)")
		return
	}
	_ = asciiplot.TimeSequence(w, at.Report.Conn, 100, 18)
	fmt.Fprintf(w, "retransmissions=%d, loss episodes(≥8)=%d, recovery delay=%.2fs\n",
		at.Report.Conn.Profile.RetransmitCount, at.Report.ConsecLoss.Episodes,
		float64(at.Report.ConsecLoss.InducedDelay)/1e6)
}

// Fig7 shows downstream (receiver-local) losses: the sniffer sees the
// originals AND their retransmissions (paper Fig 7).
func Fig7(w io.Writer, seed int64) {
	header(w, "Figure 7: downstream (receiver-local) consecutive losses")
	_, at := exampleScenario(tracegen.Scenario{
		Kind: tracegen.KindDownstreamLoss, Seed: seed, Routes: 12_000, LossRate: 0.10,
	})
	if at == nil {
		fmt.Fprintln(w, "(analysis failed)")
		return
	}
	_ = asciiplot.TimeSequence(w, at.Report.Conn, 100, 16)
	p := at.Report.Conn.Profile
	fmt.Fprintf(w, "captured retransmissions (downstream loss) = %d, gap fills (upstream) = %d\n",
		p.RetransmitCount, p.GapFillCount)
}

// Fig8 shows upstream losses: the sniffer never sees the originals, only
// the out-of-sequence repairs (paper Fig 8).
func Fig8(w io.Writer, seed int64) {
	header(w, "Figure 8: upstream consecutive losses")
	_, at := exampleScenario(tracegen.Scenario{
		Kind: tracegen.KindUpstreamLoss, Seed: seed, Routes: 12_000, LossRate: 0.10,
	})
	if at == nil {
		fmt.Fprintln(w, "(analysis failed)")
		return
	}
	_ = asciiplot.TimeSequence(w, at.Report.Conn, 100, 16)
	p := at.Report.Conn.Profile
	fmt.Fprintf(w, "gap fills (upstream loss) = %d, captured retransmissions (downstream) = %d\n",
		p.GapFillCount, p.RetransmitCount)
}

// Fig9 shows the peer-group blocking timeline (paper Fig 9): the healthy
// session pauses from the member failure (t1) to its hold-timer removal
// (t2).
func Fig9(w io.Writer, seed int64) {
	header(w, "Figure 9: session failure and peer-group blocking")
	pg := tracegen.RunPeerGroup(seed, 2, 20_000, 1_000_000, 180_000_000)
	healthy := analyzeTrace(pg.Healthy)
	faulty := analyzeTrace(pg.Faulty)
	if healthy == nil || faulty == nil {
		fmt.Fprintln(w, "(analysis failed)")
		return
	}
	fmt.Fprintf(w, "t1 (member failure) = %.1fs, t2 (hold expiry) = %.1fs\n",
		float64(pg.KillAt)/1e6, float64(pg.HoldExpiry)/1e6)
	span := healthy.Conn.Span()
	rows := []asciiplot.Row{
		{Label: "healthy.Transmission", Set: healthy.Catalog.Get(series.Transmission)},
		{Label: "healthy.SendAppLimited", Set: healthy.Catalog.Get(series.SendAppLimited)},
		{Label: "faulty.Outstanding", Set: faulty.Catalog.Get(series.Outstanding)},
		{Label: "faulty.Loss", Set: faulty.Catalog.Get(series.LossRecovery)},
	}
	_ = asciiplot.Series(w, span, rows, 100)
	if det, ok := detect.PeerGroupBlocking(healthy.Catalog, faulty.Catalog, 0); ok {
		fmt.Fprintf(w, "detected blocking: longest pause %.1fs (ground truth %.1fs)\n",
			float64(det.LongestPause)/1e6, float64(pg.HoldExpiry-pg.KillAt)/1e6)
	} else {
		fmt.Fprintln(w, "blocking NOT detected")
	}
}

// Fig11 renders one transfer and its derived event series — the paper's
// showcase of the series representation.
func Fig11(w io.Writer, seed int64) {
	header(w, "Figure 11: example TCP trace and event series")
	_, at := exampleScenario(tracegen.Scenario{
		Kind: tracegen.KindUpstreamLoss, Seed: seed, Routes: 10_000, LossRate: 0.06,
	})
	if at == nil {
		fmt.Fprintln(w, "(analysis failed)")
		return
	}
	_ = asciiplot.TimeSequence(w, at.Report.Conn, 100, 14)
	fmt.Fprintln(w)
	_ = at.Report.WriteText(w, true)
}

// Throughput measures analyzer speed: connections and packets per second of
// wall time, the §V-C comparison against the paper's 26 s/connection Perl
// prototype.
type Throughput struct {
	Connections   int
	Packets       int
	WallSeconds   float64
	PerConnection float64 // seconds per connection
}

// String formats the measurement.
func (t Throughput) String() string {
	return fmt.Sprintf("analyzed %d connections (%d packets) in %.2fs wall = %.4fs/connection",
		t.Connections, t.Packets, t.WallSeconds, t.PerConnection)
}

// MeasureThroughput generates n representative transfers, then times the
// analyzer alone over their captures (trace generation excluded), mirroring
// the paper's per-connection processing-cost report.
func MeasureThroughput(n int, seed int64) Throughput {
	kinds := []tracegen.Kind{
		tracegen.KindClean, tracegen.KindPaced, tracegen.KindSlowReceiver,
		tracegen.KindSmallWindow, tracegen.KindUpstreamLoss,
	}
	var inputs [][]flows.TimedPacket
	packets := 0
	for i := 0; i < n; i++ {
		tr := tracegen.Run(tracegen.Scenario{
			Kind: kinds[i%len(kinds)], Seed: seed + int64(i), Routes: 12_000,
		})
		pkts := tr.Packets()
		packets += len(pkts)
		inputs = append(inputs, pkts)
	}
	analyzer := core.New(core.Config{})
	start := obs.Now()
	conns := 0
	for _, pkts := range inputs {
		rep := analyzer.AnalyzePackets(pkts)
		conns += len(rep.Transfers)
	}
	wall := obs.Since(start).Seconds()
	t := Throughput{Connections: conns, Packets: packets, WallSeconds: wall}
	if conns > 0 {
		t.PerConnection = wall / float64(conns)
	}
	return t
}
