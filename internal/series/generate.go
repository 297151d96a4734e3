package series

import (
	"sort"

	"tdat/internal/explain"
	"tdat/internal/flows"
	"tdat/internal/timerange"
)

// rtt returns the connection RTT with a floor so thresholds stay sane on
// handshake-less captures.
func (c *Catalog) rtt() Micros {
	if r := c.conn.Profile.RTT; r > 0 {
		return r
	}
	return 1_000
}

func (c *Catalog) mss() int {
	if m := c.conn.Profile.MSS; m > 0 {
		return m
	}
	return 1460
}

// serUnit estimates per-packet serialization time from the tightest spacing
// of full-size back-to-back segments (the bottleneck clock).
func (c *Catalog) serUnit() Micros {
	mss := c.mss()
	best := Micros(0)
	data := c.conn.Data
	for i := 1; i < len(data); i++ {
		if data[i-1].Len != mss || data[i].Len != mss {
			continue
		}
		if d := data[i].Time - data[i-1].Time; d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	if best == 0 || best > c.rtt() {
		return 1
	}
	return best
}

// extract builds the base series straight from packet information
// (rule class 1, §III-C1).
func (c *Catalog) extract() {
	data := c.conn.Data
	acks := c.acks
	ser := c.serUnit()
	mss := c.mss()
	rtt := c.rtt()

	trans := timerange.NewSet()
	retx := timerange.NewSet()
	oos := timerange.NewSet()
	reord := timerange.NewSet()
	ackArr := timerange.NewSet()
	dup := timerange.NewSet()

	serFor := func(l int) Micros {
		s := ser * Micros(l) / Micros(mss)
		if s <= 0 {
			s = 1
		}
		return s
	}
	for _, d := range data {
		r := timerange.R(d.Time, d.Time+serFor(d.Len))
		trans.Add(r)
		switch d.Kind {
		case flows.DataRetransmit:
			retx.Add(r)
		case flows.DataGapFill:
			oos.Add(r)
		case flows.DataReordered:
			reord.Add(r)
		}
	}
	for _, a := range acks {
		ackArr.Add(timerange.R(a.Time, a.Time+1))
		if a.Dup {
			dup.Add(timerange.R(a.Time, a.Time+1))
		}
	}
	c.set(Transmission, trans)
	c.set(Retransmission, retx)
	c.set(OutOfSequence, oos)
	c.set(Reordering, reord)
	c.set(AckArrival, ackArr)
	c.set(DupAck, dup)
	c.set(UpstreamLoss, c.conn.UpstreamLoss.Clone())
	c.set(DownstreamLoss, c.conn.DownstreamLoss.Clone())

	// Active transfer window.
	active := timerange.NewSet()
	if len(data) > 0 {
		end := data[len(data)-1].Time
		if n := len(acks); n > 0 && acks[n-1].Time > end {
			end = acks[n-1].Time
		}
		active.Add(timerange.R(data[0].Time, end+1))
	}
	c.set(ActiveTransfer, active)

	// Handshake.
	hs := timerange.NewSet()
	if p := c.conn.Profile; p.SynTime > 0 && p.HandshakeAckTime > p.SynTime {
		hs.Add(timerange.R(p.SynTime, p.HandshakeAckTime))
	}
	c.set(SynHandshake, hs)

	// Advertised-window timeline, bucketed into zero/small/large/mid. The
	// window between two ACKs is the earlier ACK's advertisement.
	advAll := timerange.NewSet()
	zero := timerange.NewSet()
	small := timerange.NewSet()
	large := timerange.NewSet()
	mid := timerange.NewSet()
	smallCut := c.cfg.SmallWindowMSS * mss
	largeCut := c.conn.Profile.MaxAdvWindow - largeWindowMarginMSS*mss
	if largeCut < smallCut {
		largeCut = smallCut
	}
	horizon := Micros(0)
	if b, ok := active.Bounds(); ok {
		horizon = b.End
	}
	for i, a := range acks {
		end := horizon
		if i+1 < len(acks) {
			end = acks[i+1].Time
		}
		if end <= a.Time {
			continue
		}
		r := timerange.R(a.Time, end)
		advAll.Add(r)
		switch {
		case a.Window == 0:
			zero.Add(r)
		case a.Window < smallCut:
			small.Add(r)
		case a.Window >= largeCut:
			large.Add(r)
		default:
			mid.Add(r)
		}
	}
	// Zero windows are also "small" (the receiver app is the bottleneck in
	// both); keep the buckets unioned the way the factor mapping uses them.
	small = small.Union(zero)
	c.set(AdvWindow, advAll)
	c.set(ZeroAdvWindow, zero)
	c.set(SmallAdvWindow, small)
	c.set(LargeAdvWindow, large)
	c.set(MidAdvWindow, mid)

	// Outstanding periods: from the data packet that makes sequence space
	// unacknowledged until the (shifted) ACK that clears it. The per-packet
	// outstanding level feeds the bandwidth detector.
	out := timerange.NewSet()
	c.outLevels = make([]int, len(data))
	var maxEnd, lastAck int64
	var openStart Micros = -1
	di, ai := 0, 0
	for di < len(data) || ai < len(acks) {
		if ai >= len(acks) || (di < len(data) && data[di].Time <= acks[ai].Time) {
			d := data[di]
			if d.SeqEnd > maxEnd {
				maxEnd = d.SeqEnd
			}
			c.outLevels[di] = int(maxEnd - lastAck)
			di++
			if maxEnd > lastAck && openStart < 0 {
				openStart = d.Time
			}
		} else {
			a := acks[ai]
			ai++
			if a.Ack > lastAck {
				lastAck = a.Ack
			}
			if lastAck >= maxEnd && openStart >= 0 {
				out.Add(timerange.R(openStart, a.Time))
				openStart = -1
			}
		}
	}
	if openStart >= 0 && horizon > openStart {
		out.Add(timerange.R(openStart, horizon))
	}
	c.set(Outstanding, out)

	// Idle: transmission gaps longer than the RTT. Quiet: gaps with no
	// packets in either direction.
	idle := timerange.NewSet()
	for _, g := range trans.Gaps() {
		if g.Len() > rtt {
			idle.Add(g)
		}
	}
	c.set(Idle, idle)
	quiet := timerange.NewSet()
	everything := trans.Union(ackArr)
	for _, g := range everything.Gaps() {
		if g.Len() > rtt {
			quiet.Add(g)
		}
	}
	c.set(Quiet, quiet)

	// KeepaliveOnly: maximal runs of small-payload data packets.
	ka := timerange.NewSet()
	runStart := -1
	for i := range data {
		if data[i].Len <= keepalivePayloadMax {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 && i-runStart >= 2 {
			ka.Add(timerange.R(data[runStart].Time, data[i-1].Time+1))
		}
		runStart = -1
	}
	if runStart >= 0 && len(data)-runStart >= 2 {
		ka.Add(timerange.R(data[runStart].Time, data[len(data)-1].Time+1))
	}
	c.set(KeepaliveOnly, ka)

	c.buildFlights()
	c.set(BandwidthLimited, c.detectBandwidth())
}

// detectBandwidth finds periods where arrivals are clocked by the
// bottleneck link. The signature that separates a saturated wire from an
// application pacing itself at a fixed period is that inter-arrival gaps
// track each packet's wire size: draining a bottleneck queue at R bytes/sec
// spaces a packet wirelen/R behind its predecessor, small packets close
// behind big ones — an application timer releases on the clock regardless
// of size. Runs of ≥ bandwidthRunLen packets matching that proportionality
// and spanning at least one RTT are bandwidth-limited. The proportionality
// anchor is local (each gap against the drain rate the previous gap
// implied), so a bottleneck whose rate varies over the transfer — a policer
// stepping through a schedule — still reads as one drain; runs slower than
// the tightest spacing the wire ever demonstrated additionally need a
// size-tracking small packet as evidence they are not a timer.
func (c *Catalog) detectBandwidth() *timerange.Set {
	data := c.conn.Data
	mss := c.mss()
	rtt := c.rtt()
	bw := timerange.NewSet()
	// Serialization time of one full segment, from the tightest MSS-MSS
	// spacing observed (the bottleneck clock).
	serMSS := Micros(0)
	for i := 1; i < len(data); i++ {
		if data[i].Len != mss || data[i-1].Len != mss {
			continue
		}
		if g := data[i].Time - data[i-1].Time; g > 0 && (serMSS == 0 || g < serMSS) {
			serMSS = g
		}
	}
	rec := c.cfg.Explain
	bwInputs := func() []explain.KV {
		return []explain.KV{
			{K: "ser_mss_us", V: float64(serMSS)},
			{K: "rtt_us", V: float64(rtt)},
			{K: "mss", V: float64(mss)},
		}
	}
	if serMSS < 100 {
		// The wire moves a full segment in under 100 µs: whatever limits
		// this connection, it is not the bottleneck bandwidth.
		if rec.Enabled() {
			rec.Add(explain.Evidence{
				Rule: "series.bandwidth-limited", Outcome: explain.OutcomeRejected,
				Inputs:     bwInputs(),
				Thresholds: []explain.KV{{K: "min_ser_mss_us", V: 100}},
				Detail:     "fast-wire rejection: a full segment serializes in under 100 µs, so bandwidth is not the bottleneck",
			})
		}
		return bw
	}
	if serMSS > 4*rtt {
		// The tightest observed spacing already exceeds several RTTs per
		// segment. A wire that slow is indistinguishable from application
		// pacing (the same cutoff the run filter applies below) — and when
		// an application emits one segment per timer tick, the pacing
		// period itself masquerades as the serialization time. Bail before
		// it anchors the slow-run guard below.
		if rec.Enabled() {
			rec.Add(explain.Evidence{
				Rule: "series.bandwidth-limited", Outcome: explain.OutcomeVetoed,
				Inputs:     bwInputs(),
				Thresholds: []explain.KV{{K: "max_ser_mss_rtts", V: 4}},
				Detail:     "pacing veto: tightest full-segment spacing exceeds 4×RTT, indistinguishable from application pacing",
			})
		}
		return bw
	}
	const hdrLen = 54 // Ethernet + IP + TCP
	wireMSS := Micros(mss + hdrLen)

	runStart := -1
	runSmall := false    // run carries a sub-half-MSS packet on a tracking gap
	runWire := Micros(0) // wire bytes carried across the run's gaps
	runDry := 0          // packets with nothing outstanding beyond themselves
	flush := func(end int) {
		defer func() { runStart = -1; runSmall = false; runWire = 0; runDry = 0 }()
		if runStart < 0 || end-runStart+1 < bandwidthRunLen {
			return
		}
		r := timerange.R(data[runStart].Time, data[end].Time+1)
		if r.Len() < rtt {
			return
		}
		// A saturated bottleneck keeps a standing queue: every packet in
		// the drain leaves earlier bytes still unacknowledged behind it. An
		// application timer runs the pipe dry between ticks — each release
		// is the only thing outstanding — even when its cadence happens to
		// be size-consistent (all ticks near-MSS). Reject runs that are dry
		// more often than not.
		if runDry*2 > end-runStart {
			return
		}
		// The run's own implied full-segment serialization. A "run" whose
		// bytes move faster than 100 µs per segment is a line-rate burst
		// (self-consistent, but not a drain), mirroring the global
		// fast-wire rejection at run granularity.
		if runWire > 0 && (r.Len()-1)*wireMSS/runWire < 100 {
			return
		}
		// Uniform gaps alone are ambiguous. Two cadences are excluded:
		// ≈RTT (one-window-per-round ACK clocking) and anything beyond a
		// few RTTs (a wire that slow is indistinguishable from — and in
		// BGP practice almost always is — application pacing).
		//
		// The ≈RTT exclusion has a counter-signal: a queue draining at R
		// bytes/sec releases a small packet a few ms behind a full one,
		// while ACK clocking spaces packets a whole RTT apart regardless
		// of size. A sub-half-MSS packet closing well inside the RTT is
		// evidence the cadence is serialization, not the ACK clock, even
		// when the full-segment spacing happens to coincide with the RTT.
		avgGap := r.Len() / Micros(end-runStart)
		if avgGap >= rtt*3/5 && avgGap <= rtt*8/5 {
			sized := false
			for i := runStart + 1; i <= end; i++ {
				if data[i].Len <= mss/2 && data[i].Time-data[i-1].Time <= rtt/3 {
					sized = true
					break
				}
			}
			if !sized {
				return
			}
		}
		if avgGap > 4*rtt {
			return
		}
		// A run draining slower than the tightest spacing the wire has
		// demonstrated claims the bottleneck itself slowed down. That is
		// real on a time-varying link, but it is also exactly what an
		// application timer looks like — so demand the one signature a
		// timer cannot fake: a small packet whose gap shrank with it.
		// (Equal-size packets pass the relative proportionality test for
		// free; only a size change makes it informative.)
		if avgGap > serMSS*17/10 && !runSmall {
			return
		}
		bw.Add(r)
	}
	// The proportionality test is anchored locally — each gap is compared
	// to the per-byte drain time the previous gap implied — so the run
	// survives a bottleneck whose rate drifts (a policer stepping through
	// a schedule moves the clock slowly; an application burst jumps it).
	for i := 2; i < len(data); i++ {
		gap := data[i].Time - data[i-1].Time
		wl := Micros(data[i].Len + hdrLen)
		pgap := data[i-1].Time - data[i-2].Time
		pwl := Micros(data[i-1].Len + hdrLen)
		ok := gap > 0 && pgap > 0 &&
			gap*pwl*5 >= pgap*wl*3 && gap*pwl*10 <= pgap*wl*17
		if ok {
			if runStart < 0 {
				runStart = i - 2
				runWire += pwl
				if data[i-1].Len <= mss/2 {
					runSmall = true
				}
				if c.outLevels[i-1] <= data[i-1].Len {
					runDry++
				}
			}
			if data[i].Len <= mss/2 {
				runSmall = true
			}
			if c.outLevels[i] <= data[i].Len {
				runDry++
			}
			runWire += wl
			continue
		}
		flush(i - 1)
	}
	flush(len(data) - 1)
	if rec.Enabled() {
		outcome := explain.OutcomeFired
		detail := "inter-arrival gaps track wire size at the bottleneck clock"
		if bw.Empty() {
			outcome = explain.OutcomeRejected
			detail = "no size-proportional run long enough to qualify"
		}
		rec.Add(explain.Evidence{
			Rule: "series.bandwidth-limited", Outcome: outcome,
			Score:  float64(bw.Size()),
			Inputs: bwInputs(),
			Thresholds: []explain.KV{
				{K: "min_run_packets", V: bandwidthRunLen},
				{K: "min_run_rtts", V: 1},
			},
			Intervals: []explain.IntervalSet{explain.Capture("BandwidthLimited", bw)},
			Detail:    detail,
		})
	}
	return bw
}

// interpret applies the deployment mapping (rule class 2, §III-C2).
func (c *Catalog) interpret() {
	up := c.Get(UpstreamLoss)
	down := c.Get(DownstreamLoss)
	switch c.cfg.Sniffer {
	case AtReceiver:
		c.set(RecvLocalLoss, down.Clone())
		c.set(SendLocalLoss, timerange.NewSet())
		c.set(NetworkLoss, up.Clone())
	case AtSender:
		c.set(SendLocalLoss, up.Clone())
		c.set(RecvLocalLoss, timerange.NewSet())
		c.set(NetworkLoss, down.Clone())
	}
}

// windowBound reports whether flight f was limited by the receiver's
// advertised window. Two signatures qualify. The direct one: peak
// outstanding bytes came within slack of the tightest advertised window.
// The rate one, for long-delay paths: outstanding bytes are measured where
// the sniffer sits, and with the compensation shift only covering ACKs
// that release data, a window-filling sender half a second away shows only
// part of its true flight size — but its throughput cannot exceed the
// advertised window per round trip. A sustained flight (several packets
// spanning at least two round trips) whose average rate reaches that
// ceiling is window-clocked regardless of what the outstanding counter
// caught.
func windowBound(f *Flight, slackB int, rtt Micros) bool {
	if f.MaxOut > 0 && f.WinMin-f.MaxOut < slackB {
		return true
	}
	span := f.Last - f.First
	if f.Packets < 5 || span < 2*rtt || f.WinMin <= slackB {
		return false
	}
	if f.WinMin+slackB < f.WindowAtStart {
		// The tightest window was a transient dip, not the prevailing
		// ceiling — a flight average against it says nothing.
		return false
	}
	return int64(f.Bytes)*int64(rtt) >= int64(f.WinMin-slackB)*int64(span)
}

// operate derives the behavioural series (rule class 3, §III-C3).
func (c *Catalog) operate() {
	data := c.conn.Data
	mss := c.mss()
	immediate := maxMicros(immediateACKFloor, c.rtt()/immediateACKRTTDiv)

	// Send-application-limited (paper: "the idle period between the moment
	// the sender receives the ACKs and sends the following data packets").
	// Evaluated per flight pair (f, g): the inter-flight gap is the app's
	// fault unless f filled the receiver window (window-bound wait), g
	// followed f's completion ACK immediately (ACK clocking), or the gap is
	// loss recovery.
	appLim := timerange.NewSet()
	slackB := windowSlackMSS * mss
	if len(data) > 0 {
		// Pre-first-data idle: OPEN/route-generation processing after the
		// TCP handshake is sender-application time.
		pre := c.conn.Profile.HandshakeAckTime
		if pre == 0 {
			pre = c.conn.Profile.Start
		}
		if data[0].Time-pre > appIdleThreshold {
			appLim.Add(timerange.R(pre, data[0].Time))
		}
	}
	// ACK arrival times, sorted: flight shifting can leave the shifted
	// stream slightly out of order, and the launched-by-an-ACK exclusion
	// below needs binary search.
	ackTimes := make([]Micros, len(c.acks))
	for i, a := range c.acks {
		ackTimes[i] = a.Time
	}
	sort.Slice(ackTimes, func(i, j int) bool { return ackTimes[i] < ackTimes[j] })
	ackJustBefore := func(t Micros) bool {
		// Any ACK inside (t-immediate, t]: the sender moved the moment the
		// transport let it, so the preceding silence was not the app's.
		i := sort.Search(len(ackTimes), func(i int) bool { return ackTimes[i] > t })
		return i > 0 && t-ackTimes[i-1] < immediate
	}
	// Cursors for the recovery-stall exclusion: visEnd is the highest
	// sequence the sniffer has seen by each gap's start, ackMax the highest
	// cumulative acknowledgment to cross by the gap's end. ACKs are read at
	// their original arrival times — the receiver's state is measured next
	// to the receiver, so no sender-viewpoint shift applies.
	origAcks := c.conn.Acks
	vi, oi := 0, 0
	var visEnd, ackMax int64
	for i := 1; i < len(c.Flights); i++ {
		f, g := &c.Flights[i-1], &c.Flights[i]
		for vi < len(data) && data[vi].Time <= f.Last {
			if data[vi].SeqEnd > visEnd {
				visEnd = data[vi].SeqEnd
			}
			vi++
		}
		for oi < len(origAcks) && origAcks[oi].Time <= g.First {
			if origAcks[oi].Ack > ackMax {
				ackMax = origAcks[oi].Ack
			}
			oi++
		}
		if g.First-f.Last <= appIdleThreshold {
			continue
		}
		if windowBound(f, slackB, c.rtt()) {
			continue // the sender was blocked on the receiver window
		}
		if visEnd-ackMax >= int64(2*mss) {
			// Two or more full segments the sniffer saw before the gap were
			// still unacknowledged when sending resumed: the transport spent
			// the silence in loss recovery (an RTO backoff whose
			// retransmissions were dropped before the sniffer leaves no
			// other trace). An idle application has nothing comparable
			// outstanding — a delayed ACK withholds at most one full
			// segment, never two.
			continue
		}
		if f.AckTime > 0 && g.First >= f.AckTime && g.First-f.AckTime <= immediate {
			continue // ACK-clocked: congestion-window bound, not the app
		}
		if g.FirstKind == flows.DataGapFill || g.FirstKind == flows.DataRetransmit {
			// The flight opens with a repair: the silence before it was the
			// transport waiting out loss detection (dup-ACK count or RTO),
			// not the application. The recovery sets only start where the
			// sniffer could first see the loss, so at long RTTs they do not
			// reach back across this wait — exclude it here.
			continue
		}
		if ackJustBefore(g.First) {
			// The flight launched right behind an ACK arrival (in shifted,
			// sender-viewpoint time): partial-ACK-clocked recovery or
			// window-release clocking. f's completion ACK — checked above —
			// is the wrong anchor whenever f itself is still unacknowledged.
			continue
		}
		start := f.Last + 1
		// The paper charges idle "from the moment the sender receives the
		// ACKs" — but only a window-constrained sender was actually waiting
		// for them. A flight that left room for another full segment could
		// have kept sending at once, so its idle starts at its last packet
		// (otherwise a delayed ACK on an odd-sized tail would eat the
		// application's idle time).
		if f.MaxOut+mss > f.WinMin && f.AckTime > start && f.AckTime < g.First {
			start = f.AckTime
		}
		if g.First-start > appIdleThreshold {
			appLim.Add(timerange.R(start, g.First))
		}
	}
	// Loss-recovery periods are the transport's fault, zero-window periods
	// the receiver's, and bottleneck-drain periods the wire's — none counts
	// as application idle.
	loss := c.Get(UpstreamLoss).Union(c.Get(DownstreamLoss))
	c.set(LossRecovery, loss)
	appFinal := appLim.
		Subtract(loss).
		Subtract(c.Get(ZeroAdvWindow)).
		Subtract(c.Get(BandwidthLimited))
	c.set(SendAppLimited, appFinal)
	if rec := c.cfg.Explain; rec.Enabled() {
		// Record the exclusion chain: how much raw idle was charged away to
		// loss recovery, closed windows, and the bottleneck drain before the
		// remainder became the sender application's fault.
		rec.Add(explain.Evidence{
			Rule: "series.send-app-limited", Outcome: explain.OutcomeScored,
			Score: float64(appFinal.Size()),
			Inputs: []explain.KV{
				{K: "raw_idle_us", V: float64(appLim.Size())},
				{K: "excluded_loss_us", V: float64(appLim.Intersect(loss).Size())},
				{K: "excluded_zero_window_us", V: float64(appLim.Intersect(c.Get(ZeroAdvWindow)).Size())},
				{K: "excluded_bandwidth_us", V: float64(appLim.Intersect(c.Get(BandwidthLimited)).Size())},
			},
			Thresholds: []explain.KV{{K: "app_idle_threshold_us", V: float64(appIdleThreshold)}},
			Intervals:  []explain.IntervalSet{explain.Capture("SendAppLimited", appFinal)},
			Detail:     "inter-flight idle minus loss-recovery, zero-window, and bandwidth-drain exclusions",
		})
	}

	// Flight-level window boundedness. Only flights that contain at least
	// one full segment qualify: a window-bound sender stops at full
	// segments, while an application-limited one flushes a sub-MSS tail.
	adv := timerange.NewSet()
	cwnd := timerange.NewSet()
	slack := windowSlackMSS * mss
	rtt := c.rtt()
	// Loss-depressed congestion windows are the loss's cost, not the
	// sender's choice: after a drop Reno halves (or, on RTO, restarts) the
	// window and crawls back one segment per round trip, so on long-delay
	// lossy paths most wall-clock time is ACK-clocked at a window the loss
	// set — blaming the sender for it inverts the paper's causality. A
	// cwnd-bounded flight is charged to the epoch of its most recent loss
	// while its peak outstanding sits below ¾ of the pre-loss peak and the
	// loss is recent enough for regrowth to still be underway (32 round
	// trips covers slow-start restart plus the linear climb back to ¾).
	upR := c.Get(UpstreamLoss).Ranges()
	downR := c.Get(DownstreamLoss).Ranges()
	epochUp := timerange.NewSet()
	epochDown := timerange.NewSet()
	const regrowRTTs = 32
	var peakOut int
	ui, di := 0, 0
	var lastUp, lastDown Micros
	for i := range c.Flights {
		f := &c.Flights[i]
		for ui < len(upR) && upR[ui].Start <= f.First {
			lastUp = upR[ui].Start
			ui++
		}
		for di < len(downR) && downR[di].Start <= f.First {
			lastDown = downR[di].Start
			di++
		}
		if f.MaxOut > peakOut {
			peakOut = f.MaxOut
		}
		end := f.AckTime
		if end == 0 {
			end = f.Last + 2*rtt
		}
		if windowBound(f, slack, rtt) {
			// A window-filling flight is receiver-bound for its whole wait:
			// until the receiver's next release lets the following flight
			// go, however long that takes. This applies to sub-MSS flights
			// too — a receiver dribbling sub-segment window updates is
			// silly-window territory, squarely the receiver's fault.
			f.AdvBounded = true
			if i+1 < len(c.Flights) && c.Flights[i+1].First > end {
				end = c.Flights[i+1].First
			}
			adv.Add(timerange.R(f.First, end))
			continue
		}
		// Only flights with at least one full segment can be congestion-
		// window clocked: an application-limited sender flushes a sub-MSS
		// Nagle tail instead.
		if f.MaxLen < mss {
			continue
		}
		// For congestion-window clocking the completion ACK is due within
		// about an RTT; waiting longer (a delayed ACK on an odd segment) is
		// not the congestion window's doing — cap the charged period.
		if end > f.Last+2*rtt {
			end = f.Last + 2*rtt
		}
		r := timerange.R(f.First, end)
		// Cwnd-bounded: the flight followed its predecessor's completion
		// immediately (ACK clocking) without being receiver-window bound.
		// Flights launched before that completion (delayed ACKs in flight)
		// are not ACK-clocked.
		if i > 0 {
			prev := c.Flights[i-1]
			if prev.AckTime > 0 && f.First >= prev.AckTime && f.First-prev.AckTime <= immediate {
				f.CwndBounded = true
				lastLoss, epoch := lastUp, epochUp
				if lastDown > lastLoss {
					lastLoss, epoch = lastDown, epochDown
				}
				if lastLoss > 0 && f.First-lastLoss <= regrowRTTs*rtt &&
					4*f.MaxOut < 3*peakOut {
					epoch.Add(r)
				} else {
					cwnd.Add(r)
				}
			}
		}
	}
	c.set(AdvBndOut, adv)
	// A bottleneck queue clocks ACKs at the drain rate, so every flight
	// follows its predecessor's completion "immediately" and the cwnd rule
	// fires across the whole drain — but there the congestion window merely
	// tracks the bandwidth-delay product. The wire is the binding
	// constraint; charge it, not the window (same precedence SendAppLimited
	// applies above).
	cwndFinal := cwnd.Subtract(c.Get(BandwidthLimited))
	c.set(CwndBndOut, cwndFinal)
	// Loss-depressed ACK clocking joins the interpreted series of the loss
	// that depressed it (same sniffer-location mapping interpret applies to
	// the recovery periods themselves); the bandwidth drain keeps precedence
	// here exactly as it does over CwndBndOut.
	epochUpF := epochUp.Subtract(c.Get(BandwidthLimited))
	epochDownF := epochDown.Subtract(c.Get(BandwidthLimited))
	switch c.cfg.Sniffer {
	case AtReceiver:
		c.set(NetworkLoss, c.Get(NetworkLoss).Union(epochUpF))
		c.set(RecvLocalLoss, c.Get(RecvLocalLoss).Union(epochDownF))
	case AtSender:
		c.set(SendLocalLoss, c.Get(SendLocalLoss).Union(epochUpF))
		c.set(NetworkLoss, c.Get(NetworkLoss).Union(epochDownF))
	}
	if rec := c.cfg.Explain; rec.Enabled() {
		rec.Add(explain.Evidence{
			Rule: "series.cwnd-bnd-out", Outcome: explain.OutcomeScored,
			Score: float64(cwndFinal.Size()),
			Inputs: []explain.KV{
				{K: "raw_ack_clocked_us", V: float64(cwnd.Size())},
				{K: "excluded_bandwidth_us", V: float64(cwnd.Intersect(c.Get(BandwidthLimited)).Size())},
				{K: "loss_depressed_us", V: float64(epochUpF.Size() + epochDownF.Size())},
			},
			Intervals: []explain.IntervalSet{explain.Capture("CwndBndOut", cwndFinal)},
			Detail:    "ACK-clocked flights minus bandwidth-drain precedence; loss-depressed windows charged to their loss epoch",
		})
	}

	// Set algebra (rule 4).
	active := c.Get(ActiveTransfer)
	zeroBnd := c.Get(ZeroAdvWindow).Intersect(active)
	c.set(ZeroAdvBndOut, zeroBnd)
	// Bounding at the fully open (maximum) window is the TCP parameter's
	// doing; bounding at anything less — small or mid — means the receiver
	// application is not draining its buffer (paper Table IV's "BGP
	// receiver app" vs "TCP advertised window" split).
	largeBnd := c.Get(AdvBndOut).Intersect(c.Get(LargeAdvWindow))
	c.set(LargeAdvBndOut, largeBnd)
	smallBnd := c.Get(AdvBndOut).Subtract(largeBnd).Union(zeroBnd)
	c.set(SmallAdvBndOut, smallBnd)
	// The probe-discard bug's loss recovery begins moments after the zero
	// window reopens (the race happens at the reopening), so the conflict
	// check dilates each zero-window range by a couple of RTTs before
	// intersecting with the upstream-loss recovery periods.
	guard := 2 * c.rtt()
	dilated := timerange.NewSet()
	for _, r := range zeroBnd.Ranges() {
		dilated.Add(timerange.R(r.Start, r.End+guard))
	}
	c.set(ZeroAckBug, dilated.Intersect(c.Get(UpstreamLoss)))

	// Factor-group unions (§III-D).
	c.set(SenderLimited, timerange.UnionAll(
		c.Get(SendAppLimited), c.Get(CwndBndOut), c.Get(SendLocalLoss)))
	c.set(ReceiverLimited, timerange.UnionAll(
		c.Get(SmallAdvBndOut), c.Get(LargeAdvBndOut), c.Get(RecvLocalLoss)))
	c.set(NetworkLimited, timerange.UnionAll(
		c.Get(BandwidthLimited), c.Get(NetworkLoss)))
}

// buildFlights groups data packets into flights and records their window
// context and acknowledgment completion. A flight ends where the next
// packet follows the previous one by more than the gap; the flights are
// counted first, by that rule, so their slice is allocated once.
func (c *Catalog) buildFlights() {
	data := c.conn.Data
	acks := c.acks
	if len(data) == 0 {
		return
	}
	gap := maxMicros(c.rtt()/2, 1_000)

	n := 1
	for i := 1; i < len(data); i++ {
		if data[i].Time-data[i-1].Time > gap {
			n++
		}
	}
	flights := make([]Flight, 0, n)
	var cur *Flight
	var maxEnd, lastAck int64
	ai := 0
	for _, d := range data {
		// Advance ack state to this packet's time.
		for ai < len(acks) && acks[ai].Time <= d.Time {
			if acks[ai].Ack > lastAck {
				lastAck = acks[ai].Ack
			}
			ai++
		}
		window := c.conn.Profile.MaxAdvWindow
		if ai > 0 {
			window = acks[ai-1].Window
		}
		if cur == nil || d.Time-cur.Last > gap {
			flights = append(flights, Flight{
				First:         d.Time,
				Last:          d.Time,
				WindowAtStart: window,
				WinMin:        window,
				FirstKind:     d.Kind,
			})
			cur = &flights[len(flights)-1]
		}
		cur.Last = d.Time
		cur.Packets++
		cur.Bytes += d.Len
		if d.Len > cur.MaxLen {
			cur.MaxLen = d.Len
		}
		if d.SeqEnd > maxEnd {
			maxEnd = d.SeqEnd
		}
		cur.MaxEnd = maxEnd
		if out := int(maxEnd - lastAck); out > cur.MaxOut {
			cur.MaxOut = out
		}
	}
	// Completion ACK per flight.
	ai = 0
	for i := range flights {
		f := &flights[i]
		for ai < len(acks) && (acks[ai].Time < f.Last || acks[ai].Ack < f.MaxEnd) {
			ai++
		}
		if ai < len(acks) {
			f.AckTime = acks[ai].Time
		}
	}
	// Tightest window seen while each flight ran (until the next flight
	// starts): a receiver that briefly advertises a small window is the
	// real bound even if a later update reopened it.
	ai = 0
	for i := range flights {
		f := &flights[i]
		horizon := timerange.MaxTime
		if i+1 < len(flights) {
			horizon = flights[i+1].First
		}
		for ai < len(acks) && acks[ai].Time < horizon {
			if acks[ai].Time >= f.First && acks[ai].Window < f.WinMin {
				f.WinMin = acks[ai].Window
			}
			ai++
		}
	}
	c.Flights = flights
}

func maxMicros(a, b Micros) Micros {
	if a > b {
		return a
	}
	return b
}
