package core

import (
	"tdat/internal/factors"
	"tdat/internal/obs"
	"tdat/internal/series"
	"tdat/internal/timerange"
)

// Trace lane layout: every analyzed connection becomes one trace process
// with a fixed set of lanes, so transfers line up vertically in Perfetto.
const (
	laneTransfer   = 0 // the transfer window itself
	laneZeroWindow = 1 // receiver zero-window stalls
	laneAdvBnd     = 2 // advertised-window-bounded sending
	laneAppIdle    = 3 // sender-application idle
	laneLoss       = 4 // loss recovery + retransmit instants
	laneFactors    = 5 // factor attributions (async spans)
)

// maxLaneEvents caps the per-lane event count so a pathological capture
// (tens of thousands of loss waves) cannot render the trace unloadable.
const maxLaneEvents = 500

// traceEpoch returns the earliest transfer start across the report — the
// trace's time origin, so timestamps stay small and viewer-friendly.
func (r *Report) traceEpoch() timerange.Micros {
	var epoch timerange.Micros
	for i, t := range r.Transfers {
		if i == 0 || t.Transfer.Start < epoch {
			epoch = t.Transfer.Start
		}
	}
	return epoch
}

// TraceEvents renders the report's per-connection transfer timelines as
// Chrome trace_event records: one process per connection (pids starting at
// basePid), with lanes for the transfer window, the blocking-interval
// series, loss recovery (plus retransmit instants), and the factor
// attributions as async spans. Timestamps are µs since the earliest
// transfer start. The output depends only on the report, so it is
// byte-deterministic at any worker count.
func (r *Report) TraceEvents(basePid int64) []obs.TraceEvent {
	epoch := r.traceEpoch()
	var out []obs.TraceEvent
	for i, t := range r.Transfers {
		pid := basePid + int64(i)
		out = append(out, t.traceEvents(pid, epoch)...)
	}
	return out
}

// laneRanges renders a series' ranges (clipped to the transfer window) as
// complete events on one lane.
func laneRanges(out []obs.TraceEvent, s *timerange.Set, window timerange.Range,
	epoch timerange.Micros, name string, pid, tid int64) []obs.TraceEvent {
	n := 0
	for _, rg := range s.Query(window) {
		if n >= maxLaneEvents {
			break
		}
		n++
		rg = rg.Intersect(window)
		dur := int64(rg.Len())
		if dur < 1 {
			dur = 1
		}
		out = append(out, obs.TraceEvent{
			Name: name, Cat: "series", Ph: "X",
			Ts: int64(rg.Start - epoch), Dur: dur, Pid: pid, Tid: tid,
		})
	}
	return out
}

// traceEvents renders one transfer's timeline.
func (t *TransferReport) traceEvents(pid int64, epoch timerange.Micros) []obs.TraceEvent {
	window := t.Transfer
	conn := connLabel(t.Conn)
	lanes := []struct {
		tid  int64
		name string
	}{
		{laneTransfer, "transfer"},
		{laneZeroWindow, "zero-window"},
		{laneAdvBnd, "adv-blocked"},
		{laneAppIdle, "app-idle"},
		{laneLoss, "loss"},
		{laneFactors, "factors"},
	}
	out := make([]obs.TraceEvent, 0, 8+len(lanes))
	out = append(out, obs.MetaEvent("process_name", pid, 0, conn))
	for _, l := range lanes {
		out = append(out, obs.MetaEvent("thread_name", pid, l.tid, l.name))
	}

	// The transfer window itself, annotated with the classification.
	transferArgs := map[string]any{
		"conn":   conn,
		"groups": t.Factors.G.String(),
	}
	if !t.Factors.Unknown() {
		g := t.Factors.MajorGroups[0]
		transferArgs["dominant_group"] = g.String()
		transferArgs["dominant_factor"] = t.Factors.DominantFactor[g].String()
	}
	dur := int64(window.Len())
	if dur < 1 {
		dur = 1
	}
	out = append(out, obs.TraceEvent{
		Name: "transfer", Cat: "transfer", Ph: "X",
		Ts: int64(window.Start - epoch), Dur: dur, Pid: pid, Tid: laneTransfer,
		Args: transferArgs,
	})

	// Blocking-interval lanes.
	out = laneRanges(out, t.Catalog.Get(series.ZeroAdvWindow), window, epoch,
		"zero-window", pid, laneZeroWindow)
	out = laneRanges(out, t.Catalog.Get(series.AdvBndOut), window, epoch,
		"adv-blocked", pid, laneAdvBnd)
	out = laneRanges(out, t.Catalog.Get(series.SendAppLimited), window, epoch,
		"app-idle", pid, laneAppIdle)

	// Loss recovery as spans, retransmits as instant events on the same lane.
	out = laneRanges(out, t.Catalog.Get(series.LossRecovery), window, epoch,
		"loss-recovery", pid, laneLoss)
	n := 0
	for _, rg := range t.Catalog.Get(series.Retransmission).Query(window) {
		if n >= maxLaneEvents {
			break
		}
		n++
		out = append(out, obs.TraceEvent{
			Name: "retransmit", Cat: "loss", Ph: "i",
			Ts: int64(rg.Intersect(window).Start - epoch), Pid: pid, Tid: laneLoss,
		})
	}

	// Factor attributions as async spans: one b/e pair per contributing
	// interval, ID-spaced per factor so pairs never collide.
	for f := factors.SenderApp; f <= factors.NetLoss; f++ {
		if t.Factors.V.At(f) <= 0 {
			continue
		}
		name := f.String()
		set := t.Catalog.Get(factorSeries(f))
		ri := int64(0)
		for _, rg := range set.Query(window) {
			if ri >= maxLaneEvents {
				break
			}
			rg = rg.Intersect(window)
			id := int64(f)<<20 | ri
			ri++
			end := rg.End
			if end <= rg.Start {
				end = rg.Start + 1
			}
			out = append(out,
				obs.TraceEvent{
					Name: name, Cat: "attribution", Ph: "b",
					Ts: int64(rg.Start - epoch), Pid: pid, Tid: laneFactors, ID: id,
				},
				obs.TraceEvent{
					Name: name, Cat: "attribution", Ph: "e",
					Ts: int64(end - epoch), Pid: pid, Tid: laneFactors, ID: id,
				})
		}
	}
	return out
}

// factorSeries mirrors the factors package's factor→series mapping for
// timeline rendering.
func factorSeries(f factors.Factor) series.Name {
	switch f {
	case factors.SenderApp:
		return series.SendAppLimited
	case factors.SenderCwnd:
		return series.CwndBndOut
	case factors.SenderLocalLoss:
		return series.SendLocalLoss
	case factors.ReceiverApp:
		return series.SmallAdvBndOut
	case factors.ReceiverWindow:
		return series.LargeAdvBndOut
	case factors.ReceiverLocalLoss:
		return series.RecvLocalLoss
	case factors.NetBandwidth:
		return series.BandwidthLimited
	default:
		return series.NetworkLoss
	}
}
