package knee_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/knee"
	"tdat/internal/series"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// periodCurve rebuilds, from the analyzed transfer's SendAppLimited
// series, the evaluation curve detect.TimerGapsEv hands GapKnee: the
// burst-to-burst periods inside the transfer window, sorted, against their
// rank. It is nil when GapKnee would not run Find.
func periodCurve(tr *core.TransferReport) []knee.Point {
	app := tr.Catalog.Get(series.SendAppLimited)
	if !tr.Transfer.Empty() {
		app = app.Intersect(timerange.NewSet(tr.Transfer))
	}
	ranges := app.Ranges()
	var periods []float64
	for i := 1; i < len(ranges); i++ {
		periods = append(periods, float64(ranges[i].End-ranges[i-1].End))
	}
	if len(periods) < 8 {
		return nil
	}
	sort.Float64s(periods)
	pts := make([]knee.Point, len(periods))
	for i, p := range periods {
		pts[i] = knee.Point{X: float64(i), Y: p}
	}
	return pts
}

// TestFindMatchesQuadratic holds Find to the O(n²) reference on the curves
// the analyzer builds: every tracegen kind at seeds 1–20, and the paper's
// headline case (a 300k-route paced transfer, ~3,100 periods). The index
// must be the same. Fanout runs a 1,500-route table through a 24-member
// peer group: simulating the default 120 members would take most of the
// sweep's time, and under -race several times longer.
func TestFindMatchesQuadratic(t *testing.T) {
	var scenarios []tracegen.Scenario
	for k := tracegen.KindClean; k <= tracegen.KindFanout; k++ {
		for seed := int64(1); seed <= 20; seed++ {
			sc := tracegen.Scenario{Kind: k, Seed: seed}
			if k == tracegen.KindFanout {
				sc.Routes, sc.GroupMembers = 1_500, 24
			}
			scenarios = append(scenarios, sc)
		}
	}
	scenarios = append(scenarios, tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 1, Routes: 300_000, Horizon: 3_600_000_000,
	})
	a := core.New(core.Config{})
	var mu sync.Mutex
	curves, longest := 0, 0
	t.Run("sweep", func(t *testing.T) {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%v/seed%d/routes%d", sc.Kind, sc.Seed, sc.WithDefaults().Routes), func(t *testing.T) {
				t.Parallel()
				for _, c := range flows.Extract(tracegen.Run(sc).Packets()) {
					pts := periodCurve(a.AnalyzeConnection(c))
					if pts == nil {
						continue
					}
					mu.Lock()
					curves++
					longest = max(longest, len(pts))
					mu.Unlock()
					got, gotOK := knee.Find(pts)
					want, wantOK := knee.FindQuadratic(pts)
					if got != want || gotOK != wantOK {
						t.Errorf("Find = %d, %v; reference = %d, %v over %d periods", got, gotOK, want, wantOK, len(pts))
					}
				}
			})
		}
	})
	// The sweep must keep reaching the curves it is meant to cover: ~120
	// from the kinds whose sender idles between bursts, and the
	// ~3,100-period headline curve.
	if curves < 100 || longest < 3_000 {
		t.Fatalf("only %d curves, the longest %d periods", curves, longest)
	}
	t.Logf("%d curves, the longest %d periods", curves, longest)
}
