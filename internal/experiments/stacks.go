package experiments

import (
	"fmt"
	"io"

	"tdat/internal/core"
	"tdat/internal/oracle"
	"tdat/internal/tcpsim"
	"tdat/internal/tracegen"
)

// StackRobustness runs every pathology kind under every sender stack and
// scores the dominant-group verdict against ground truth. The analyzer's
// delay-factor model was built against the paper's Reno-era traces; this
// table measures how much of the attribution survives senders the model
// never assumed — CUBIC growth, rate pacing, SACK recovery, and the two
// deliberately buggy receivers.
type StackRobustnessRow struct {
	Stack   tcpsim.Stack
	Trials  int
	Correct int
	// PerKind maps kind → "correct/trials" for the detailed table.
	Correctness []StackKindScore
}

// StackKindScore is one (stack, kind) cell.
type StackKindScore struct {
	Kind    tracegen.Kind
	Trials  int
	Correct int
}

// StackRobustness computes the table rows.
func StackRobustness(seed int64, perKind int) []StackRobustnessRow {
	kinds := []tracegen.Kind{
		tracegen.KindPaced, tracegen.KindSlowReceiver, tracegen.KindSmallWindow,
		tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss, tracegen.KindBandwidth,
	}
	analyzer := core.New(core.Config{})

	var rows []StackRobustnessRow
	for _, st := range tcpsim.AllStacks() {
		row := StackRobustnessRow{Stack: st}
		for _, k := range kinds {
			cell := StackKindScore{Kind: k}
			for i := 0; i < perKind; i++ {
				sc := tracegen.Scenario{
					Kind: k, Seed: seed + int64(i)*101, Routes: 8_000 + i*2_000,
					Stack: st,
				}
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
				cell.Trials++
				if g, _ := rep.Transfers[0].Factors.Dominant(); g == oracle.ExpectedGroup(k) {
					cell.Correct++
				}
			}
			row.Trials += cell.Trials
			row.Correct += cell.Correct
			row.Correctness = append(row.Correctness, cell)
		}
		rows = append(rows, row)
	}
	return rows
}

// StackRobustnessTable prints the per-stack attribution matrix: one row per
// sender stack, one column per pathology kind, each cell correct/trials.
func StackRobustnessTable(w io.Writer, seed int64, perKind int) {
	header(w, "Attribution robustness across sender stacks (correct/trials)")
	rows := StackRobustness(seed, perKind)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-12s", "stack")
	for _, c := range rows[0].Correctness {
		fmt.Fprintf(w, " %15s", c.Kind)
	}
	fmt.Fprintf(w, " %9s\n", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s", r.Stack)
		for _, c := range r.Correctness {
			fmt.Fprintf(w, " %11d/%-3d", c.Correct, c.Trials)
		}
		fmt.Fprintf(w, " %5d/%-3d\n", r.Correct, r.Trials)
	}
	fmt.Fprintln(w, "(reno is the model's home turf; drops below it mark Reno-specific")
	fmt.Fprintln(w, " inferences — see DESIGN.md §16 and scripts/validatefloor.txt)")
}
