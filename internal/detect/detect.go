// Package detect implements T-DAT's known-problem detectors (paper §IV-B):
// BGP pacing-timer gaps (knee-point inference on the idle-gap
// distribution), consecutive packet losses, pathological peer-group
// blocking (a cross-connection set intersection), and the ZeroAckBug
// conflict series.
package detect

import (
	"sort"

	"tdat/internal/explain"
	"tdat/internal/knee"
	"tdat/internal/series"
	"tdat/internal/timerange"
)

// Micros aliases the trace time unit.
type Micros = timerange.Micros

// TimerGapResult reports a detected BGP pacing timer.
type TimerGapResult struct {
	// TimerMicros is the inferred timer period.
	TimerMicros Micros
	// Gaps is how many idle gaps matched the timer plateau.
	Gaps int
	// InducedDelay is the total idle time attributable to the timer.
	InducedDelay Micros
}

// TimerGapsEv infers a repetitive pacing timer from the SendAppLimited gap
// length distribution (paper Fig 17) within window (empty = whole capture,
// but callers should clip to the table-transfer period so post-transfer
// keepalive silences do not masquerade as timers). minJump is the
// knee-detection sharpness guard (≤0 selects 3×). Each exit — no knee,
// sub-50 ms periodicity, too few repeats, or a detected timer — records the
// rule's inputs, thresholds, and (on detection) the matched idle gaps in
// rec; a nil Recorder keeps the uninstrumented fast path.
func TimerGapsEv(cat *series.Catalog, window timerange.Range, minJump float64, rec *explain.Recorder) (TimerGapResult, bool) {
	if minJump <= 0 {
		minJump = 3
	}
	app := clip(cat.Get(series.SendAppLimited), window)
	ranges := app.Ranges()
	// Each idle range ends when the pacing timer releases the next burst,
	// so the burst-to-burst period is the spacing of consecutive range
	// ends. (The range LENGTH under-estimates the timer by the ACK round
	// trip, because the idle charge starts at the completing ACK.)
	periods := make([]float64, 0, len(ranges))
	for i := 1; i < len(ranges); i++ {
		periods = append(periods, float64(ranges[i].End-ranges[i-1].End))
	}
	timer, ok := knee.GapKnee(periods, minJump)
	if !ok {
		// Degenerate plateau: when (nearly) every period sits at the same
		// value, the sorted curve has no knee, yet the pacing timer is
		// plainly there — e.g. one burst released per tick. Accept a
		// tightly concentrated distribution as the timer itself.
		timer, ok = flatPlateau(periods)
		if !ok {
			if rec.Enabled() {
				rec.Add(explain.Evidence{
					Rule: "detect.timer-gaps", Outcome: explain.OutcomeRejected,
					Inputs: []explain.KV{{K: "idle_periods", V: float64(len(periods))}},
					Detail: "no knee or flat plateau in the idle-gap period distribution",
				})
			}
			return TimerGapResult{}, false
		}
	}
	if timer < 50_000 {
		// Sub-50 ms periodicity is OS/scheduler granularity, not the
		// 80–400 ms BGP pacing timers the paper's Fig 17 hunts.
		if rec.Enabled() {
			rec.Add(explain.Evidence{
				Rule: "detect.timer-gaps", Outcome: explain.OutcomeRejected,
				Score:      timer,
				Inputs:     []explain.KV{{K: "knee_period_us", V: timer}},
				Thresholds: []explain.KV{{K: "min_timer_us", V: 50_000}},
				Detail:     "sub-50 ms periodicity is scheduler granularity, not a BGP pacing timer",
			})
		}
		return TimerGapResult{}, false
	}
	res := TimerGapResult{TimerMicros: Micros(timer)}
	// Count the idle gaps the timer explains and the delay they induced:
	// gap lengths run from the completing ACK to the next tick, so they
	// fall at or just below the timer period.
	lo, hi := timer*0.4, timer*1.1
	var matched *timerange.Set
	if rec.Enabled() {
		matched = timerange.NewSet()
	}
	for _, r := range ranges {
		if g := float64(r.Len()); g >= lo && g <= hi {
			res.Gaps++
			res.InducedDelay += Micros(g)
			if matched != nil {
				matched.Add(r)
			}
		}
	}
	if res.Gaps < 3 {
		if rec.Enabled() {
			rec.Add(explain.Evidence{
				Rule: "detect.timer-gaps", Outcome: explain.OutcomeRejected,
				Score:      timer,
				Inputs:     []explain.KV{{K: "knee_period_us", V: timer}, {K: "matched_gaps", V: float64(res.Gaps)}},
				Thresholds: []explain.KV{{K: "min_gaps", V: 3}},
				Detail:     "a real timer repeats; too few idle gaps match the period",
			})
		}
		return TimerGapResult{}, false // a real timer repeats
	}
	if rec.Enabled() {
		rec.Add(explain.Evidence{
			Rule: "detect.timer-gaps", Outcome: explain.OutcomeFired,
			Score: timer,
			Inputs: []explain.KV{
				{K: "matched_gaps", V: float64(res.Gaps)},
				{K: "induced_delay_us", V: float64(res.InducedDelay)},
			},
			Thresholds: []explain.KV{
				{K: "gap_lo_us", V: lo}, {K: "gap_hi_us", V: hi},
				{K: "min_timer_us", V: 50_000}, {K: "min_gaps", V: 3},
			},
			Intervals: []explain.IntervalSet{explain.Capture("matched-idle-gaps", matched)},
			Detail:    "repetitive pacing timer inferred from the idle-gap knee",
		})
	}
	return res, true
}

// flatPlateau accepts a gap distribution whose 10th and 90th percentiles
// agree within 15% — a pure single-valued pacing timer — and returns its
// median.
func flatPlateau(gaps []float64) (float64, bool) {
	if len(gaps) < 8 {
		return 0, false
	}
	s := append([]float64(nil), gaps...)
	sort.Float64s(s)
	p10 := s[len(s)/10]
	p90 := s[len(s)*9/10]
	if p10 <= 0 || p90 > 1.15*p10 {
		return 0, false
	}
	return s[len(s)/2], true
}

// ConsecutiveLossResult reports a burst-loss episode count.
type ConsecutiveLossResult struct {
	// Episodes is the number of runs of ≥ Threshold loss events.
	Episodes int
	// MaxRun is the longest run of consecutive loss events.
	MaxRun int
	// InducedDelay is the total recovery time of qualifying episodes.
	InducedDelay Micros
}

// DefaultConsecutiveLossThreshold is the paper's conservative 8: enough
// consecutive losses to collapse cwnd and ssthresh to the minimum.
const DefaultConsecutiveLossThreshold = 8

// ConsecutiveLossesEv unions all loss series and counts episodes of at
// least threshold (≤0 selects 8) loss events in close succession. Loss
// events within one merged recovery range — or in ranges chained at RTO
// scale (timeout-driven recovery repairs one hole per backoff, seconds
// apart) — belong to one episode. The qualifying episode time ranges, the
// run/chain thresholds, and the max run are recorded in rec; a nil
// Recorder keeps the uninstrumented fast path.
func ConsecutiveLossesEv(cat *series.Catalog, window timerange.Range, threshold int, rec *explain.Recorder) ConsecutiveLossResult {
	if threshold <= 0 {
		threshold = DefaultConsecutiveLossThreshold
	}
	all := clip(timerange.UnionAll(
		cat.Get(series.SendLocalLoss),
		cat.Get(series.RecvLocalLoss),
		cat.Get(series.NetworkLoss),
	), window)
	// Count loss events per merged range: retransmission + out-of-sequence
	// arrivals inside it.
	events := cat.Get(series.Retransmission).Union(cat.Get(series.OutOfSequence))
	rtt := cat.Conn().Profile.RTT
	if rtt <= 0 {
		rtt = 1_000
	}
	chainGap := maxMicros(3*rtt, 3_000_000)

	var episodes *timerange.Set
	if rec.Enabled() {
		episodes = timerange.NewSet()
	}
	var res ConsecutiveLossResult
	run := 0
	var runDelay Micros
	var prevEnd, runStart Micros = -1, -1
	flush := func() {
		if run > res.MaxRun {
			res.MaxRun = run
		}
		if run >= threshold {
			res.Episodes++
			res.InducedDelay += runDelay
			if episodes != nil && runStart >= 0 {
				episodes.Add(timerange.R(runStart, prevEnd))
			}
		}
		run, runDelay, runStart = 0, 0, -1
	}
	for _, r := range all.Ranges() {
		if prevEnd >= 0 && r.Start-prevEnd > chainGap {
			flush()
		}
		if runStart < 0 {
			runStart = r.Start
		}
		n := len(events.Query(r))
		if n == 0 {
			n = 1
		}
		run += n
		runDelay += r.Len()
		prevEnd = r.End
	}
	flush()
	if rec.Enabled() {
		outcome := explain.OutcomeFired
		detail := "burst-loss episodes with enough chained loss events to collapse cwnd"
		if res.Episodes == 0 {
			outcome = explain.OutcomeRejected
			detail = "no loss run reached the episode threshold"
		}
		rec.Add(explain.Evidence{
			Rule: "detect.consecutive-losses", Outcome: outcome,
			Score: float64(res.Episodes),
			Inputs: []explain.KV{
				{K: "loss_ranges", V: float64(all.Len())},
				{K: "max_run", V: float64(res.MaxRun)},
				{K: "induced_delay_us", V: float64(res.InducedDelay)},
			},
			Thresholds: []explain.KV{
				{K: "run_threshold", V: float64(threshold)},
				{K: "chain_gap_us", V: float64(chainGap)},
			},
			Intervals: []explain.IntervalSet{explain.Capture("loss-episodes", episodes)},
			Detail:    detail,
		})
	}
	return res
}

// PeerGroupResult reports a pathological peer-group blocking episode.
type PeerGroupResult struct {
	// Blocked is the intersection of the healthy session's idle time with
	// the faulty session's loss-recovery time.
	Blocked *timerange.Set
	// LongestPause is the longest single blocked period.
	LongestPause Micros
}

// PeerGroupBlocking checks whether the healthy connection's long
// application-limited pauses coincide with a sibling connection's
// loss/retransmission agony — the paper's cross-connection intersection
//
//	healthy.SendAppLimited ∩ faulty.Loss
//
// restricted to pauses of at least minPause (≤0 selects 10 s) during which
// the healthy connection exchanged at most keepalives.
func PeerGroupBlocking(healthy, faulty *series.Catalog, minPause Micros) (PeerGroupResult, bool) {
	if minPause <= 0 {
		minPause = 10 * 1_000_000
	}
	// Long pauses only.
	longIdle := timerange.NewSet()
	for _, r := range healthy.Get(series.SendAppLimited).Ranges() {
		if r.Len() >= minPause {
			longIdle.Add(r)
		}
	}
	if longIdle.Empty() {
		return PeerGroupResult{}, false
	}
	faultyAgony := timerange.UnionAll(
		faulty.Get(series.UpstreamLoss),
		faulty.Get(series.DownstreamLoss),
		faulty.Get(series.Outstanding), // unacked forever against a dead peer
	)
	blocked := longIdle.Intersect(faultyAgony)
	if blocked.Empty() {
		return PeerGroupResult{}, false
	}
	res := PeerGroupResult{Blocked: blocked}
	for _, r := range blocked.Ranges() {
		if r.Len() > res.LongestPause {
			res.LongestPause = r.Len()
		}
	}
	// A sliver of coincidental overlap (the sibling's healthy transfer
	// brushing the pause's edge) is not blocking: the sibling's agony must
	// explain a substantial share of a pause.
	if res.LongestPause < minPause/2 {
		return PeerGroupResult{}, false
	}
	return res, true
}

// PeerGroupBlockingAny checks healthy against every sibling in the group
// and returns the sibling index whose agony best explains the pauses — the
// paper notes groups range "from several to tens of members" and any one
// failure drags down the rest.
func PeerGroupBlockingAny(healthy *series.Catalog, siblings []*series.Catalog, minPause Micros) (PeerGroupResult, int, bool) {
	best := -1
	var bestRes PeerGroupResult
	for i, sib := range siblings {
		res, ok := PeerGroupBlocking(healthy, sib, minPause)
		if !ok {
			continue
		}
		if best < 0 || res.Blocked.Size() > bestRes.Blocked.Size() {
			best, bestRes = i, res
		}
	}
	if best < 0 {
		return PeerGroupResult{}, -1, false
	}
	return bestRes, best, true
}

// ZeroAckBugResult quantifies the zero-window probe-discard bug signature.
type ZeroAckBugResult struct {
	// Conflict is ZeroAdvBndOut ∩ UpstreamLoss: retransmission agony while
	// the receiver window is closed.
	Conflict *timerange.Set
}

// ZeroAckBugEv returns the conflict series (paper §IV-B) when non-empty.
// The conflict intervals (zero-window periods overlapping upstream-loss
// recovery) are recorded in rec whether or not the detector fires; a nil
// Recorder keeps the uninstrumented fast path.
func ZeroAckBugEv(cat *series.Catalog, rec *explain.Recorder) (ZeroAckBugResult, bool) {
	s := cat.Get(series.ZeroAckBug)
	if s.Empty() {
		if rec.Enabled() {
			rec.Add(explain.Evidence{
				Rule: "detect.zero-ack-bug", Outcome: explain.OutcomeRejected,
				Detail: "zero-window and upstream-loss recovery never overlap",
			})
		}
		return ZeroAckBugResult{}, false
	}
	if rec.Enabled() {
		rec.Add(explain.Evidence{
			Rule: "detect.zero-ack-bug", Outcome: explain.OutcomeFired,
			Score:     float64(s.Size()),
			Intervals: []explain.IntervalSet{explain.Capture("conflict", s)},
			Detail:    "retransmission agony while the receiver window is closed (probe-discard bug signature)",
		})
	}
	return ZeroAckBugResult{Conflict: s.Clone()}, true
}

func maxMicros(a, b Micros) Micros {
	if a > b {
		return a
	}
	return b
}

// clip restricts s to window; an empty window means no restriction.
func clip(s *timerange.Set, window timerange.Range) *timerange.Set {
	if window.Empty() {
		return s
	}
	return s.Intersect(timerange.NewSet(window))
}

// GapLengths returns the sorted SendAppLimited gap lengths within window —
// the Fig 17 evaluation curve input, exposed for plotting. An empty window
// means the whole capture.
func GapLengths(cat *series.Catalog, window timerange.Range) []float64 {
	app := clip(cat.Get(series.SendAppLimited), window)
	out := make([]float64, 0, app.Len())
	for _, r := range app.Ranges() {
		out = append(out, float64(r.Len()))
	}
	sort.Float64s(out)
	return out
}
