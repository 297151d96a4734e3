package experiments

import (
	"fmt"
	"io"
	"sort"

	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/factors"
	"tdat/internal/stats"
	"tdat/internal/tracegen"
)

// Table1Row summarizes one dataset (paper Table I).
type Table1Row struct {
	Name      string
	Type      string
	Collector string
	Packets   int
	Bytes     int64
	Routers   int
	Transfers int
}

// Table1 prints the dataset summary.
func Table1(w io.Writer, s *Suite) []Table1Row {
	header(w, "Table I: summary of BGP/TCP datasets and identified table transfers")
	rows := []Table1Row{
		{Name: "ISPA-1", Type: "iBGP", Collector: "Vendor"},
		{Name: "ISPA-2", Type: "iBGP", Collector: "Quagga"},
		{Name: "RV", Type: "eBGP", Collector: "Vendor"},
	}
	for i, ds := range s.Datasets {
		routers := map[int]bool{}
		for _, t := range ds.Transfers {
			rows[i].Packets += t.Packets
			rows[i].Bytes += t.Bytes
			routers[t.Router.ID] = true
		}
		rows[i].Routers = len(routers)
		rows[i].Transfers = len(ds.Transfers)
	}
	fmt.Fprintf(w, "%-8s %-5s %-9s %12s %12s %7s %10s\n",
		"Trace", "Type", "Collector", "Packets", "Bytes", "Rtrs", "Transfers")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-5s %-9s %12d %12d %7d %10d\n",
			r.Name, r.Type, r.Collector, r.Packets, r.Bytes, r.Routers, r.Transfers)
	}
	return rows
}

// Table2Row counts one observed transport problem on the slow sample.
type Table2Row struct {
	Observation string
	Cause       string
	Num         int
}

// Table2 inspects the slow-transfer sample (µ+3σ per router, paper §II-B)
// and counts the transport problems found there. Peer-group cases come from
// the dedicated scenario runs (they need two coupled connections).
func Table2(w io.Writer, s *Suite, peerGroupCases int) []Table2Row {
	header(w, "Table II: observed transport problems (slow-transfer sample)")
	sample := slowSample(s)
	gaps, consec := 0, 0
	for _, t := range sample {
		if t.Report.Timer != nil {
			gaps++
		}
		if t.Report.ConsecLoss.Episodes > 0 {
			consec++
		}
	}
	rows := []Table2Row{
		{"Gaps in table transfers", "Timer implementation [15]", gaps},
		{"Consecutive retransmission", "Bursty BGP dynamics [22]", consec},
		{"BGP peer-group blocking", "BGP scaling feature [37]", peerGroupCases},
	}
	fmt.Fprintf(w, "(sample: %d slow transfers)\n", len(sample))
	fmt.Fprintf(w, "%-28s %-28s %5s\n", "Observation", "Potential Cause", "Num")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-28s %5d\n", r.Observation, r.Cause, r.Num)
	}
	return rows
}

// slowSample picks, per router, transfers slower than mean+3σ (or the
// slowest when none qualify) across all datasets — the paper's sampling
// rule.
func slowSample(s *Suite) []*AnalyzedTransfer {
	var out []*AnalyzedTransfer
	for _, ds := range s.Datasets {
		byRouter := map[int][]int{}
		for i, t := range ds.Transfers {
			byRouter[t.Router.ID] = append(byRouter[t.Router.ID], i)
		}
		// Visit routers in ID order, not map order, so the sampled-transfer
		// table is deterministic.
		routers := make([]int, 0, len(byRouter))
		for id := range byRouter {
			routers = append(routers, id)
		}
		sort.Ints(routers)
		for _, id := range routers {
			idxs := byRouter[id]
			durs := make([]float64, len(idxs))
			for j, i := range idxs {
				durs[j] = ds.Transfers[i].Duration()
			}
			for _, j := range stats.SlowOutliers(durs, 3) {
				out = append(out, &ds.Transfers[idxs[j]])
			}
		}
	}
	return out
}

// Table3Row is one delayed BGP update of the retransmission example.
type Table3Row struct {
	TimestampSec float64
	DelaySec     float64
	Prefixes     int
}

// Table3 reproduces the retransmission-delay example (paper Table III): a
// lossy transfer where updates written simultaneously by the router arrive
// seconds apart at the receiving BGP.
func Table3(w io.Writer, seed int64) []Table3Row {
	header(w, "Table III: retransmission delay of BGP updates (example transfer)")
	tr := tracegen.Run(tracegen.Scenario{
		Kind: tracegen.KindDownstreamLoss, Seed: seed, Routes: 20_000, LossRate: 0.12,
	})
	if len(tr.Archive) == 0 {
		fmt.Fprintln(w, "(no archive)")
		return nil
	}
	// Find the largest stall in update arrivals, then list arrivals after it
	// with their delay relative to the stall start (the router had already
	// queued them when the loss hit).
	var stallIdx int
	var stallLen Micros
	for i := 1; i < len(tr.Archive); i++ {
		if g := tr.Archive[i].Time - tr.Archive[i-1].Time; g > stallLen {
			stallLen, stallIdx = g, i
		}
	}
	base := tr.Archive[stallIdx-1].Time
	var rows []Table3Row
	var lastT Micros = -1
	for i := stallIdx; i < len(tr.Archive) && len(rows) < 8; i++ {
		e := tr.Archive[i]
		if e.Time == lastT {
			continue
		}
		lastT = e.Time
		rows = append(rows, Table3Row{
			TimestampSec: float64(e.Time) / 1e6,
			DelaySec:     float64(e.Time-base) / 1e6,
		})
	}
	fmt.Fprintf(w, "%-14s %-10s\n", "Timestamp(s)", "Delay(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14.3f %-10.3f\n", r.TimestampSec, r.DelaySec)
	}
	return rows
}

// Table4Result is the major-factor distribution (paper Table IV).
type Table4Result struct {
	Names     [3]string
	Transfers [3]int
	// Major counts per group.
	SenderLimited   [3]int
	ReceiverLimited [3]int
	NetworkLimited  [3]int
	Unknown         [3]int
	// Breakdown: dominant member factor among transfers where the group is
	// major.
	SenderApp  [3]int
	SenderCwnd [3]int
	RecvApp    [3]int
	RecvWindow [3]int
	RecvLoss   [3]int
	NetBw      [3]int
	NetLoss    [3]int
}

// Table4 classifies every transfer with the paper's 30% major-factor rule.
func Table4(w io.Writer, s *Suite) *Table4Result {
	header(w, "Table IV: distribution of major delay factors (threshold 30%)")
	res := &Table4Result{}
	for i, ds := range s.Datasets {
		res.Names[i] = ds.Name
		res.Transfers[i] = len(ds.Transfers)
		for _, t := range ds.Transfers {
			rep := t.Report.Factors
			if rep.Unknown() {
				res.Unknown[i]++
				continue
			}
			for _, g := range rep.MajorGroups {
				switch g {
				case factors.GroupSender:
					res.SenderLimited[i]++
					switch rep.DominantFactor[g] {
					case factors.SenderApp:
						res.SenderApp[i]++
					case factors.SenderCwnd:
						res.SenderCwnd[i]++
					}
				case factors.GroupReceiver:
					res.ReceiverLimited[i]++
					switch rep.DominantFactor[g] {
					case factors.ReceiverApp:
						res.RecvApp[i]++
					case factors.ReceiverWindow:
						res.RecvWindow[i]++
					case factors.ReceiverLocalLoss:
						res.RecvLoss[i]++
					}
				case factors.GroupNetwork:
					res.NetworkLimited[i]++
					switch rep.DominantFactor[g] {
					case factors.NetBandwidth:
						res.NetBw[i]++
					case factors.NetLoss:
						res.NetLoss[i]++
					}
				}
			}
		}
	}
	row := func(label string, v [3]int) {
		fmt.Fprintf(w, "%-26s %10d %10d %10d\n", label, v[0], v[1], v[2])
	}
	fmt.Fprintf(w, "%-26s %10s %10s %10s\n", "", res.Names[0], res.Names[1], res.Names[2])
	row("Table Transfers", res.Transfers)
	row("Sender-side limited", res.SenderLimited)
	row("Receiver-side limited", res.ReceiverLimited)
	row("Network limited", res.NetworkLimited)
	row("Unknown", res.Unknown)
	fmt.Fprintln(w, "Breakdown of Sender-side factor group")
	row("  BGP sender app", res.SenderApp)
	row("  TCP congestion window", res.SenderCwnd)
	fmt.Fprintln(w, "Breakdown of Receiver-side factor group")
	row("  BGP receiver app", res.RecvApp)
	row("  TCP advertised window", res.RecvWindow)
	row("  Local packet loss", res.RecvLoss)
	fmt.Fprintln(w, "Breakdown of Network factor group")
	row("  Bandwidth limited", res.NetBw)
	row("  Network packet loss", res.NetLoss)
	return res
}

// Table5Result counts the identified problems and their average induced
// delay per dataset (paper Table V).
type Table5Result struct {
	Names [3]string
	// Counts and average seconds.
	GapTransfers  [3]int
	GapAvgSec     [3]float64
	ConsTransfers [3]int
	ConsAvgSec    [3]float64
	PGCases       [3]int
	PGAvgSec      [3]float64
}

// Table5 quantifies the §II problems across all transfers, plus the
// peer-group blocking runs (pgPerDataset scenarios each).
func Table5(w io.Writer, s *Suite, pgPerDataset int) *Table5Result {
	header(w, "Table V: identified problems and average induced delays")
	res := &Table5Result{}
	for i, ds := range s.Datasets {
		res.Names[i] = ds.Name
		var gapDelay, consDelay float64
		for _, t := range ds.Transfers {
			if t.Report.Timer != nil {
				res.GapTransfers[i]++
				gapDelay += float64(t.Report.Timer.InducedDelay) / 1e6
			}
			if t.Report.ConsecLoss.Episodes > 0 {
				res.ConsTransfers[i]++
				consDelay += float64(t.Report.ConsecLoss.InducedDelay) / 1e6
			}
		}
		if res.GapTransfers[i] > 0 {
			res.GapAvgSec[i] = gapDelay / float64(res.GapTransfers[i])
		}
		if res.ConsTransfers[i] > 0 {
			res.ConsAvgSec[i] = consDelay / float64(res.ConsTransfers[i])
		}
		// Peer-group blocking: dedicated coupled-connection scenarios. Hold
		// times follow the deployments (ISP_A 180 s, RouteViews 120 s).
		hold := Micros(180_000_000)
		if i == 2 {
			hold = 120_000_000
		}
		var pgDelay float64
		for k := 0; k < pgPerDataset; k++ {
			pg := tracegen.RunPeerGroup(s.Scale.Seed+int64(i*100+k), 2, 20_000,
				Micros(1+k)*1_000_000, hold)
			healthy := analyzeTrace(pg.Healthy)
			faulty := analyzeTrace(pg.Faulty)
			if healthy == nil || faulty == nil {
				continue
			}
			if det, ok := detect.PeerGroupBlocking(healthy.Catalog, faulty.Catalog, 0); ok {
				res.PGCases[i]++
				pgDelay += float64(det.LongestPause) / 1e6
			}
		}
		if res.PGCases[i] > 0 {
			res.PGAvgSec[i] = pgDelay / float64(res.PGCases[i])
		}
	}
	fmt.Fprintf(w, "%-36s %18s %18s %18s\n", "", res.Names[0], res.Names[1], res.Names[2])
	fmt.Fprintf(w, "%-36s", "Gaps in table transfers")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(w, " %6d %6.2f(sec)", res.GapTransfers[i], res.GapAvgSec[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-36s", "Consecutive losses")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(w, " %6d %6.2f(sec)", res.ConsTransfers[i], res.ConsAvgSec[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-36s", "BGP peer-group blocking (upon resets)")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(w, " %6d %6.2f(sec)", res.PGCases[i], res.PGAvgSec[i])
	}
	fmt.Fprintln(w)
	return res
}

// analyzeTrace runs the analyzer over one trace's capture, returning the
// single transfer report or nil.
func analyzeTrace(tr *tracegen.Trace) *core.TransferReport {
	rep := core.New(core.Config{}).AnalyzePackets(tr.Packets())
	if len(rep.Transfers) != 1 {
		return nil
	}
	return rep.Transfers[0]
}
