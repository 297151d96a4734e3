package flows

import (
	"tdat/internal/obs"
	"tdat/internal/timerange"
)

// classifyLosses labels each data event and builds the upstream/downstream
// loss recovery sets (paper §II-B2):
//
//   - A packet whose bytes were already captured is a retransmission whose
//     original crossed the sniffer — the drop (or its ACK's drop) happened
//     downstream, i.e. receiver-local in the paper's deployment.
//   - A packet filling a sequence gap the sniffer never saw is the repair of
//     an upstream loss — unless reordering explains it (the packet's IP ID
//     shows it was emitted before packets that arrived earlier, or, when
//     its IP ID carries no order, it arrives within the reordering window
//     of the gap opening).
//
// Each loss contributes its whole recovery period: from the moment the
// sniffer could first know about the lost bytes (original capture time for
// downstream; gap appearance for upstream) to the repair arrival.
func classifyLosses(c *Connection, opts Options) {
	c.UpstreamLoss = timerange.NewSet()
	c.DownstreamLoss = timerange.NewSet()

	covered := timerange.NewSet() // sequence space captured so far
	firstSeen := make(map[int64]Micros, len(c.Data))

	// Receiver's cumulative acknowledgment, advanced alongside the data
	// walk: a retransmission of bytes the receiver has already acked is
	// spurious (go-back-N after a burst loss, or a needless timeout) — the
	// receiver provably has the data, so no downstream loss happened.
	ai := 0
	var maxAck int64
	var lastAckTime Micros

	// Time of the last gap repair: between a repair and the receiver's next
	// acknowledgment the sniffer's ack state is stale (the cumulative ack
	// that the repair unblocked is still in flight), so full-overlap copies
	// in that window cannot be judged.
	var lastRepair Micros

	type gap struct {
		r      timerange.Range // sequence range never captured
		opened Micros
	}
	var gaps []gap
	var maxEnd int64
	var maxIPID uint16
	haveIPID := false

	for i := range c.Data {
		d := &c.Data[i]
		for ai < len(c.Acks) && c.Acks[ai].Time <= d.Time {
			if c.Acks[ai].Ack > maxAck {
				maxAck = c.Acks[ai].Ack
			}
			lastAckTime = c.Acks[ai].Time
			ai++
		}
		segRange := timerange.R(d.Seq, d.SeqEnd)
		overlapLen := int64(covered.OverlapLen(segRange))

		switch {
		case overlapLen >= int64(d.Len):
			// Entire payload previously captured.
			d.Kind = DataRetransmit
			c.Profile.RetransmitCount++
			if d.SeqEnd <= maxAck {
				// Spurious: the sniffer saw the receiver ack these bytes
				// before the copy went by. Nothing was lost downstream —
				// count it, charge nothing.
				c.Profile.SpuriousRetxCount++
				break
			}
			gapBelow := false
			for _, g := range gaps {
				if g.r.Start < d.Seq {
					gapBelow = true
					break
				}
			}
			if gapBelow {
				// A sequence hole the sniffer never saw filled sits below
				// this copy: the cumulative ack is pinned under that hole,
				// so the retransmission proves nothing about these bytes'
				// own delivery — go-back-N rewinding over an upstream loss,
				// whose recovery is charged when the hole's repair arrives.
				break
			}
			if lastRepair > 0 && lastAckTime <= lastRepair {
				// The hole below was just repaired but the receiver has not
				// spoken since: the cumulative-ack jump the repair unblocked
				// is still crossing the path, and the go-back-N burst keeps
				// rewinding right behind the repair. These copies would look
				// spurious one ack later — charge nothing now.
				break
			}
			start := d.Time
			if t, ok := firstSeen[d.Seq]; ok {
				start = t
			}
			c.DownstreamLoss.Add(timerange.R(start, d.Time+1))
		case d.Seq >= maxEnd:
			// Advancing the stream; any skipped bytes open a gap.
			d.Kind = DataNew
			if d.Seq > maxEnd {
				gaps = append(gaps, gap{r: timerange.R(maxEnd, d.Seq), opened: d.Time})
			}
		default:
			// Filling sequence space below the frontier that was never
			// captured (possibly with partial overlap).
			opened := d.Time
			for gi := range gaps {
				if gaps[gi].r.Overlaps(segRange) {
					if gaps[gi].opened < opened {
						opened = gaps[gi].opened
					}
				}
			}
			reordered := false
			if !opts.DisableReorderFilter {
				if idDelta := int16(d.IPID - maxIPID); idDelta != 0 {
					// A lower IP ID than packets that already arrived means
					// this packet left the sender earlier: in-network
					// reordering, not a retransmitted copy.
					reordered = idDelta < 0
				} else {
					// An IP ID equal to the highest seen carries no order
					// (stacks that send every DF packet with ID 0), so fall
					// back to arrival lag: reordering shows up within
					// milliseconds, repairs take at least an RTO.
					reordered = d.Time-opened <= reorderWindow
				}
			}
			if reordered {
				d.Kind = DataReordered
				c.Profile.ReorderCount++
			} else {
				d.Kind = DataGapFill
				c.Profile.GapFillCount++
				c.UpstreamLoss.Add(timerange.R(opened, d.Time+1))
				lastRepair = d.Time
			}
			// Shrink gaps the segment fills.
			var remaining []gap
			for _, g := range gaps {
				if !g.r.Overlaps(segRange) {
					remaining = append(remaining, g)
					continue
				}
				if g.r.Start < segRange.Start {
					remaining = append(remaining, gap{r: timerange.R(g.r.Start, segRange.Start), opened: g.opened})
				}
				if g.r.End > segRange.End {
					remaining = append(remaining, gap{r: timerange.R(segRange.End, g.r.End), opened: g.opened})
				}
			}
			gaps = remaining
		}

		if _, ok := firstSeen[d.Seq]; !ok {
			firstSeen[d.Seq] = d.Time
		}
		covered.Add(segRange)
		if d.SeqEnd > maxEnd {
			maxEnd = d.SeqEnd
		}
		if !haveIPID || int16(d.IPID-maxIPID) > 0 {
			maxIPID = d.IPID
			haveIPID = true
		}
	}

	scanSilentLoss(c)
}

// Silence this long with missing IP IDs is attributed to upstream loss;
// shorter pauses can hide a single dropped keepalive or probe inside a
// genuine application pause, so the scan stays out of them.
const silentLossMinGap Micros = 500_000

// scanSilentLoss charges long sender silences whose bracketing IP IDs jump
// by more packets than the sniffer captured. The sender stamps a fresh IP
// ID on every emitted packet, dropped or not, so the jump counts emissions
// that died upstream of the sniffer — an RTO backoff whose every retry was
// swallowed (a tail-of-window drop repeated through the burst) leaves no
// other trace at all. Pure sender ACKs captured inside the gap are merged
// into the walk so an idle sender acknowledging the receiver's keepalives
// is not mistaken for one transmitting into a black hole.
func scanSilentLoss(c *Connection) {
	type emit struct {
		t  Micros
		id uint16
	}
	seq := make([]emit, 0, len(c.Data)+len(c.SenderPureAcks))
	di, pi := 0, 0
	for di < len(c.Data) || pi < len(c.SenderPureAcks) {
		takeData := pi >= len(c.SenderPureAcks)
		if !takeData && di < len(c.Data) {
			d, p := &c.Data[di], &c.SenderPureAcks[pi]
			// Equal capture timestamps (an ACK emitted back-to-back with a
			// data burst) lose their relative order when the trace splits
			// into the two event slices; the IP ID sequence restores the
			// emission order, keeping the walk's jumps honest.
			takeData = d.Time < p.Time ||
				(d.Time == p.Time && int16(d.IPID-p.IPID) < 0)
		}
		if takeData {
			seq = append(seq, emit{c.Data[di].Time, c.Data[di].IPID})
			di++
		} else {
			seq = append(seq, emit{c.SenderPureAcks[pi].Time, c.SenderPureAcks[pi].IPID})
			pi++
		}
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].t-seq[i-1].t <= silentLossMinGap {
			continue
		}
		// Unseen emissions between the bracketing packets. Consecutive IDs
		// give zero; two or more missing means repeated sends into the
		// silence (one alone could be a keepalive lost inside a real pause).
		unseen := int(int16(seq[i].id-seq[i-1].id)) - 1
		if unseen < 2 {
			continue
		}
		c.UpstreamLoss.Add(timerange.R(seq[i-1].t, seq[i].t+1))
		c.Profile.SilentLossRanges++
	}
}

// reorderWindow is the arrival slack within which a gap fill whose IP ID
// carries no order is attributed to in-network reordering rather than loss
// (Jaiswal et al. observe reordering lags of a few milliseconds; repairs
// take at least an RTO): 2 ms.
const reorderWindow Micros = 2_000

// Options tunes the classification heuristics; the zero value selects the
// defaults.
type Options struct {
	// DisableReorderFilter labels every gap fill as an upstream loss — the
	// ablation the benchmarks sweep.
	DisableReorderFilter bool
	// MaxTracked caps simultaneously tracked (un-emitted) connections in
	// the Demuxer; when full, the oldest open connection is force-completed
	// so adversarial captures (a SYN flood of distinct tuples) cannot grow
	// demux state without bound. 0 means unlimited — the default, which
	// keeps extraction on clean traces byte-identical.
	MaxTracked int
	// Obs receives demux metrics (connections opened, early emissions,
	// packets routed) and progress updates when non-nil. It never affects
	// extraction output.
	Obs *obs.Obs
}
