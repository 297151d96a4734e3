// Package factors reduces a series catalog to T-DAT's conclusive output
// (paper §III-D): eight delay factors in three groups (Sender, Receiver,
// Network), each scored with a delay ratio — the factor's series size over
// the analysis period — plus group ratios computed on the union of member
// series, and the major-factor classification at the paper's 30% threshold.
package factors

import (
	"fmt"
	"strings"

	"tdat/internal/explain"
	"tdat/internal/obs"
	"tdat/internal/series"
	"tdat/internal/timerange"
)

// Factor identifies one of the eight conclusive delay factors.
type Factor int

// The eight factors (paper Table IV rows).
const (
	// SenderApp is the BGP sender application limit (pacing timers, slow
	// route generation).
	SenderApp Factor = iota
	// SenderCwnd is the TCP congestion-window limit.
	SenderCwnd
	// SenderLocalLoss is packet loss local to the sender (only observable
	// with a sender-side sniffer).
	SenderLocalLoss
	// ReceiverApp is the BGP receiver application limit (small/zero
	// advertised windows).
	ReceiverApp
	// ReceiverWindow is the TCP advertised-window parameter limit (bounded
	// at a large, i.e. fully open, window).
	ReceiverWindow
	// ReceiverLocalLoss is packet loss local to the receiver.
	ReceiverLocalLoss
	// NetBandwidth is the path bandwidth limit.
	NetBandwidth
	// NetLoss is in-network packet loss.
	NetLoss

	numFactors = int(NetLoss) + 1
)

// String implements fmt.Stringer.
func (f Factor) String() string {
	switch f {
	case SenderApp:
		return "bgp-sender-app"
	case SenderCwnd:
		return "tcp-congestion-window"
	case SenderLocalLoss:
		return "sender-local-loss"
	case ReceiverApp:
		return "bgp-receiver-app"
	case ReceiverWindow:
		return "tcp-advertised-window"
	case ReceiverLocalLoss:
		return "receiver-local-loss"
	case NetBandwidth:
		return "bandwidth-limited"
	case NetLoss:
		return "network-loss"
	default:
		return "unknown"
	}
}

// Group is a top-level factor group.
type Group int

// The three groups.
const (
	GroupSender Group = iota
	GroupReceiver
	GroupNetwork
	numGroups = int(GroupNetwork) + 1
)

// String implements fmt.Stringer.
func (g Group) String() string {
	switch g {
	case GroupSender:
		return "sender"
	case GroupReceiver:
		return "receiver"
	case GroupNetwork:
		return "network"
	default:
		return "unknown"
	}
}

// GroupOf maps a factor to its group.
func GroupOf(f Factor) Group {
	switch f {
	case SenderApp, SenderCwnd, SenderLocalLoss:
		return GroupSender
	case ReceiverApp, ReceiverWindow, ReceiverLocalLoss:
		return GroupReceiver
	default:
		return GroupNetwork
	}
}

// seriesOf maps each factor to its backing series.
func seriesOf(f Factor) series.Name {
	switch f {
	case SenderApp:
		return series.SendAppLimited
	case SenderCwnd:
		return series.CwndBndOut
	case SenderLocalLoss:
		return series.SendLocalLoss
	case ReceiverApp:
		return series.SmallAdvBndOut
	case ReceiverWindow:
		return series.LargeAdvBndOut
	case ReceiverLocalLoss:
		return series.RecvLocalLoss
	case NetBandwidth:
		return series.BandwidthLimited
	default:
		return series.NetworkLoss
	}
}

// DefaultMajorThreshold is the paper's 30%-of-duration rule for calling a
// factor group "major".
const DefaultMajorThreshold = 0.3

// Vector is the raw per-factor delay-ratio vector V = (r_1 … r_8).
type Vector [numFactors]float64

// At returns the ratio for f.
func (v Vector) At(f Factor) float64 { return v[f] }

// String renders the vector compactly.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, r := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f", r)
	}
	b.WriteByte(')')
	return b.String()
}

// GroupVector is the compact 3-vector G = (R_s, R_r, R_n).
type GroupVector [numGroups]float64

// At returns the ratio for g.
func (v GroupVector) At(g Group) float64 { return v[g] }

// String renders the group vector like the paper's examples, e.g.
// "(0.80, 0.10, 0.10)".
func (v GroupVector) String() string {
	return fmt.Sprintf("(%.2f, %.2f, %.2f)", v[0], v[1], v[2])
}

// Report is the factor analysis of one transfer.
type Report struct {
	// Period is the analysis window (the BGP table transfer duration).
	Period timerange.Range
	// V is the raw 8-factor ratio vector.
	V Vector
	// G is the 3-group ratio vector, computed on member-series unions.
	G GroupVector
	// MajorGroups lists groups whose ratio exceeds the threshold, in
	// descending ratio order.
	MajorGroups []Group
	// DominantFactor per major group: the member factor with the largest
	// ratio (paper Table IV breakdown).
	DominantFactor map[Group]Factor
	// Threshold echoes the major-factor threshold used.
	Threshold float64
}

// Unknown reports whether no group reached the major threshold.
func (r *Report) Unknown() bool { return len(r.MajorGroups) == 0 }

// Observe tallies this classification in the metrics registry: one
// analyzed-transfers tick plus a per-dominant-group counter (the live
// analogue of the paper's Table IV distribution). No-op on a nil registry.
func (r *Report) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("tdat_factors_analyzed_total").Inc()
	if r.Unknown() {
		reg.Counter("tdat_factor_dominant_total", "group", "unknown").Inc()
		return
	}
	g, _ := r.Dominant()
	reg.Counter("tdat_factor_dominant_total", "group", g.String()).Inc()
}

// Dominant returns the single most limiting group and its ratio (the
// largest group ratio, regardless of threshold).
func (r *Report) Dominant() (Group, float64) {
	best := GroupSender
	for g := GroupSender; int(g) < numGroups; g++ {
		if r.G[g] > r.G[best] {
			best = g
		}
	}
	return best, r.G[best]
}

// AnalyzeEv scores the catalog over the analysis period. A non-positive
// threshold selects the paper's default 0.3. Every factor and group ratio
// records its numerator interval set (the backing series clipped to the
// period) and denominator in rec, and the major classification records
// which groups crossed the threshold; a nil Recorder keeps the
// uninstrumented fast path.
func AnalyzeEv(cat *series.Catalog, period timerange.Range, threshold float64, rec *explain.Recorder) *Report {
	if threshold <= 0 {
		threshold = DefaultMajorThreshold
	}
	rep := &Report{
		Period:         period,
		DominantFactor: map[Group]Factor{},
		Threshold:      threshold,
	}
	dur := float64(period.Len())
	if dur <= 0 {
		return rep
	}
	window := timerange.NewSet(period)

	ratio := func(s *timerange.Set) float64 {
		return float64(s.Intersect(window).Size()) / dur
	}
	for f := Factor(0); int(f) < numFactors; f++ {
		rep.V[f] = ratio(cat.Get(seriesOf(f)))
	}
	groupSets := map[Group]*timerange.Set{
		GroupSender:   cat.Get(series.SenderLimited),
		GroupReceiver: cat.Get(series.ReceiverLimited),
		GroupNetwork:  cat.Get(series.NetworkLimited),
	}
	for g, s := range groupSets {
		rep.G[g] = ratio(s)
	}

	// Major groups in descending ratio order.
	for g := GroupSender; int(g) < numGroups; g++ {
		if rep.G[g] > threshold {
			rep.MajorGroups = append(rep.MajorGroups, g)
		}
	}
	for i := 1; i < len(rep.MajorGroups); i++ {
		for j := i; j > 0 && rep.G[rep.MajorGroups[j-1]] < rep.G[rep.MajorGroups[j]]; j-- {
			rep.MajorGroups[j-1], rep.MajorGroups[j] = rep.MajorGroups[j], rep.MajorGroups[j-1]
		}
	}

	// Dominant member factor per group.
	for g := GroupSender; int(g) < numGroups; g++ {
		best := Factor(-1)
		for f := Factor(0); int(f) < numFactors; f++ {
			if GroupOf(f) != g {
				continue
			}
			if best < 0 || rep.V[f] > rep.V[best] {
				best = f
			}
		}
		rep.DominantFactor[g] = best
	}

	if rec.Enabled() {
		// Per-factor ratio provenance: the clipped backing series is the
		// numerator, the period length the denominator. Intervals are only
		// enumerated for contributing factors to keep the record compact.
		for f := Factor(0); int(f) < numFactors; f++ {
			name := seriesOf(f)
			ev := explain.Evidence{
				Rule: "factors.ratio/" + f.String(), Outcome: explain.OutcomeScored,
				Score: rep.V[f],
				Inputs: []explain.KV{
					{K: "numerator_us", V: rep.V[f] * dur},
					{K: "period_us", V: dur},
				},
				Detail: "clipped |" + string(name) + "| over the transfer period",
			}
			if rep.V[f] > 0 {
				ev.Intervals = []explain.IntervalSet{
					explain.Capture(string(name), cat.Get(name).Intersect(window)),
				}
			}
			rec.Add(ev)
		}
		// Group ratios on member-series unions (enum order, not map order).
		for g := GroupSender; int(g) < numGroups; g++ {
			rec.Add(explain.Evidence{
				Rule: "factors.group/" + g.String(), Outcome: explain.OutcomeScored,
				Score: rep.G[g],
				Inputs: []explain.KV{
					{K: "numerator_us", V: rep.G[g] * dur},
					{K: "period_us", V: dur},
				},
				Detail: "member-series union over the transfer period",
			})
		}
		// The major classification itself.
		major := explain.Evidence{
			Rule:       "factors.major",
			Thresholds: []explain.KV{{K: "major_threshold", V: threshold}},
		}
		if rep.Unknown() {
			major.Outcome = explain.OutcomeRejected
			major.Detail = "no group ratio above the major threshold"
		} else {
			major.Outcome = explain.OutcomeFired
			major.Score = rep.G[rep.MajorGroups[0]]
			var b strings.Builder
			for i, g := range rep.MajorGroups {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s(%.2f, dominant=%s)", g, rep.G[g], rep.DominantFactor[g])
			}
			major.Detail = "major groups: " + b.String()
		}
		rec.Add(major)
	}
	return rep
}
