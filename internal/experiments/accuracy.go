package experiments

import (
	"fmt"
	"io"

	"tdat/internal/core"
	"tdat/internal/factors"
	"tdat/internal/oracle"
	"tdat/internal/tracegen"
)

// AccuracyRow is one scenario kind's attribution score.
type AccuracyRow struct {
	Kind     tracegen.Kind
	Expected factors.Group
	Trials   int
	Correct  int
	// MeanRatio is the mean delay ratio the expected group received.
	MeanRatio float64
}

// Accuracy runs `perKind` trials of every scenario kind and scores the
// analyzer's dominant-group verdict against the simulator's ground truth,
// with the ACK shift enabled or not (the DESIGN.md §6 ablation).
func Accuracy(seed int64, perKind int, disableShift bool) []AccuracyRow {
	kinds := []tracegen.Kind{
		tracegen.KindPaced, tracegen.KindSlowReceiver, tracegen.KindSmallWindow,
		tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss, tracegen.KindBandwidth,
	}
	cfg := core.Config{}
	cfg.Series.DisableShift = disableShift
	analyzer := core.New(cfg)

	var rows []AccuracyRow
	for _, k := range kinds {
		row := AccuracyRow{Kind: k, Expected: oracle.ExpectedGroup(k)}
		for i := 0; i < perKind; i++ {
			sc := tracegen.Scenario{Kind: k, Seed: seed + int64(i)*101, Routes: 10_000 + i*2_000}
			switch k {
			case tracegen.KindPaced:
				sc.PacingTimer = []Micros{100_000, 200_000, 400_000}[i%3]
			case tracegen.KindSmallWindow:
				sc.RTT = 30_000
			case tracegen.KindBandwidth:
				sc.UpstreamRate = 60_000
			}
			tr := tracegen.Run(sc)
			rep := analyzer.AnalyzePackets(tr.Packets())
			if len(rep.Transfers) != 1 {
				continue
			}
			row.Trials++
			f := rep.Transfers[0].Factors
			row.MeanRatio += f.G.At(row.Expected)
			if g, _ := f.Dominant(); g == row.Expected {
				row.Correct++
			}
		}
		if row.Trials > 0 {
			row.MeanRatio /= float64(row.Trials)
		}
		rows = append(rows, row)
	}
	return rows
}

// AccuracyTable prints the ground-truth attribution score with the shift on
// and off.
func AccuracyTable(w io.Writer, seed int64, perKind int) {
	header(w, "Attribution accuracy vs simulator ground truth (shift ablation)")
	fmt.Fprintf(w, "%-16s %-9s %14s %14s\n", "scenario", "expected", "shift ON", "shift OFF")
	on := Accuracy(seed, perKind, false)
	off := Accuracy(seed, perKind, true)
	var totOn, totOff, tot int
	for i := range on {
		fmt.Fprintf(w, "%-16s %-9s %5d/%-3d %.2f  %5d/%-3d %.2f\n",
			on[i].Kind, on[i].Expected,
			on[i].Correct, on[i].Trials, on[i].MeanRatio,
			off[i].Correct, off[i].Trials, off[i].MeanRatio)
		totOn += on[i].Correct
		totOff += off[i].Correct
		tot += on[i].Trials
	}
	fmt.Fprintf(w, "%-16s %-9s %9d/%-3d %14d/%-3d\n", "TOTAL", "", totOn, tot, totOff, tot)
}

// PaperScale runs ONE transfer at the paper's true scale — a ~300k-route
// (≈4.5 MB) full table — for a few representative scenarios, confirming
// that the reproduction's scaled-down durations extrapolate to the paper's
// headline numbers: minutes-long transfers over links that could move the
// bytes in seconds.
func PaperScale(w io.Writer, seed int64) {
	header(w, "Paper-scale spot check (300k-route full table, ≈4.5 MB)")
	cases := []struct {
		name string
		sc   tracegen.Scenario
	}{
		{"paced 200ms/24upd (Houidi timers)", tracegen.Scenario{
			Kind: tracegen.KindPaced, Seed: seed, Routes: 300_000,
			PacingTimer: 200_000, PacingBudget: 24, Horizon: 3_600_000_000,
		}},
		{"unpaced, unconstrained", tracegen.Scenario{
			Kind: tracegen.KindClean, Seed: seed + 1, Routes: 300_000,
			Horizon: 3_600_000_000,
		}},
		{"16KB window, 30ms RTT (RV-style)", tracegen.Scenario{
			Kind: tracegen.KindSmallWindow, Seed: seed + 2, Routes: 300_000,
			RecvBuf: 16384, RTT: 30_000, Horizon: 3_600_000_000,
		}},
	}
	analyzer := core.New(core.Config{})
	for _, c := range cases {
		tr := tracegen.Run(c.sc)
		rep := analyzer.AnalyzePackets(tr.Packets())
		if len(rep.Transfers) != 1 {
			fmt.Fprintf(w, "%-36s analysis failed\n", c.name)
			continue
		}
		t := rep.Transfers[0]
		g, ratio := t.Factors.Dominant()
		fmt.Fprintf(w, "%-36s %8.1f min  %6d pkts  dominant %s (%.0f%%)\n",
			c.name, float64(t.Duration())/6e7, len(tr.Captures), g, ratio*100)
	}
	fmt.Fprintln(w, "(the paper's Fig 3: transfers of this size 'shall finish mostly in a few")
	fmt.Fprintln(w, " seconds' yet commonly take minutes — the pacing timer alone explains it)")
}
