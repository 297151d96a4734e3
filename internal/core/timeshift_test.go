package core

import (
	"reflect"
	"testing"

	"tdat/internal/detect"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/tracegen"
)

// verdict is what the analysis concludes about one transfer, with every
// absolute time left out.
type verdict struct {
	V              factors.Vector
	G              factors.GroupVector
	MajorGroups    []factors.Group
	DominantFactor map[factors.Group]factors.Factor
	Timer          *detect.TimerGapResult
	ConsecLoss     detect.ConsecutiveLossResult
	ZeroAckBug     bool
	Messages       int
	Duration       Micros
	MCTUpdates     int
	MCTUnique      int
}

// verdicts returns the verdict of every transfer in rep, in report order.
func verdicts(t *testing.T, rep *Report) []verdict {
	t.Helper()
	if len(rep.Failures) > 0 {
		t.Fatalf("analysis failed: %+v", rep.Failures)
	}
	out := make([]verdict, len(rep.Transfers))
	for i, tr := range rep.Transfers {
		out[i] = verdict{
			V:              tr.Factors.V,
			G:              tr.Factors.G,
			MajorGroups:    tr.Factors.MajorGroups,
			DominantFactor: tr.Factors.DominantFactor,
			Timer:          tr.Timer,
			ConsecLoss:     tr.ConsecLoss,
			ZeroAckBug:     tr.ZeroAckBug,
			Messages:       tr.Messages,
			Duration:       tr.Duration(),
			MCTUpdates:     -1,
			MCTUnique:      -1,
		}
		if tr.MCT != nil {
			out[i].MCTUpdates, out[i].MCTUnique = tr.MCT.Updates, tr.MCT.UniquePrefixes
		}
	}
	return out
}

// TestTimeShiftKeepsVerdicts holds the analysis to time translation: a
// capture whose every packet time is shifted by the same amount, from a
// microsecond to past the year 2020 in Unix microseconds, gets the same
// verdict for every transfer. Verdicts depend on when packets arrive
// relative to each other, never on the clock's origin. The seeds of each
// kind also get verdicts that differ from one another, so the comparison
// can fail.
func TestTimeShiftKeepsVerdicts(t *testing.T) {
	kinds := []tracegen.Kind{
		tracegen.KindClean, tracegen.KindPaced, tracegen.KindSlowReceiver, tracegen.KindSmallWindow,
		tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss, tracegen.KindBandwidth, tracegen.KindZeroAckBug,
	}
	shifts := []Micros{1, 3_600_000_000, 1_700_000_000_000_000}
	for _, kind := range kinds {
		var seen [][]verdict
		for seed := int64(1); seed <= 3; seed++ {
			pkts := tracegen.Run(tracegen.Scenario{Kind: kind, Seed: seed, Routes: 1_500}).Packets()
			want := verdicts(t, New(Config{}).AnalyzePackets(pkts))
			if len(want) == 0 {
				t.Fatalf("%v seed %d: no transfer", kind, seed)
			}
			for _, other := range seen {
				if reflect.DeepEqual(other, want) {
					t.Errorf("%v seed %d: verdict %+v repeats an earlier seed's", kind, seed, want)
				}
			}
			seen = append(seen, want)
			for _, d := range shifts {
				shifted := make([]flows.TimedPacket, len(pkts))
				for i, p := range pkts {
					shifted[i] = flows.TimedPacket{Time: p.Time + d, Pkt: p.Pkt}
				}
				if got := verdicts(t, New(Config{}).AnalyzePackets(shifted)); !reflect.DeepEqual(got, want) {
					t.Errorf("%v seed %d shifted by %d µs:\n got %+v\nwant %+v", kind, seed, d, got, want)
				}
			}
		}
	}
}
