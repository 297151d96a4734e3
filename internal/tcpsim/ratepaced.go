package tcpsim

// ratePacedCC is a BBR-flavored sender: it estimates the bottleneck
// bandwidth as the windowed maximum of per-ACK delivery-rate samples and
// the propagation delay as the running minimum SRTT, sets the congestion
// window to twice the bandwidth-delay product, and — unlike every
// window-clocked stack — spreads transmissions along the pacing interval
// through PacingGate, driven by the endpoint's pace timer. Loss barely
// moves it: duplicate-ACK retransmission still happens, but the window is
// model-driven rather than halved, which is exactly the behavior that
// undermines loss-centric delay inference.
type ratePacedCC struct {
	cwnd float64

	bw       [8]float64 // delivery-rate samples, bytes/second
	bwIdx    int
	haveRate bool
	rtProp   float64 // minimum SRTT seen, microseconds
	lastAck  Micros
	nextSend Micros
}

// rpGain is the pacing-rate multiplier over the bandwidth estimate: pacing
// slightly above the measured rate probes for more bandwidth while the
// 2×BDP window bounds the queue it can build.
const rpGain = 1.25

// Name implements CongestionControl.
func (p *ratePacedCC) Name() string { return "rate-paced" }

// Init implements CongestionControl.
func (p *ratePacedCC) Init(cfg Config) {
	p.cwnd = float64(initialCwnd * cfg.MSS)
}

// Cwnd implements CongestionControl.
func (p *ratePacedCC) Cwnd() float64 { return p.cwnd }

// InRecovery implements CongestionControl: the model has no recovery state.
func (p *ratePacedCC) InRecovery() bool { return false }

// btlBw returns the max-filtered bandwidth estimate in bytes/second.
func (p *ratePacedCC) btlBw() float64 {
	best := 0.0
	for _, s := range p.bw {
		if s > best {
			best = s
		}
	}
	return best
}

// OnAck implements CongestionControl.
func (p *ratePacedCC) OnAck(ev AckInfo) {
	if p.lastAck > 0 && ev.Now > p.lastAck && ev.Acked > 0 {
		rate := float64(ev.Acked) * 1e6 / float64(ev.Now-p.lastAck)
		p.bw[p.bwIdx] = rate
		p.bwIdx = (p.bwIdx + 1) % len(p.bw)
		p.haveRate = true
	}
	p.lastAck = ev.Now
	if ev.SRTT > 0 && (p.rtProp == 0 || ev.SRTT < p.rtProp) {
		p.rtProp = ev.SRTT
	}
	mss := float64(ev.MSS)
	if p.haveRate && p.rtProp > 0 {
		bdp := p.btlBw() * p.rtProp / 1e6
		p.cwnd = maxf(2*bdp, 4*mss)
	} else {
		p.cwnd += float64(ev.Acked) // startup: double per RTT like slow start
	}
}

// OnDupAck implements CongestionControl: retransmit on the third duplicate
// but apply only a mild window trim — the model, not loss, sets the rate.
func (p *ratePacedCC) OnDupAck(ev AckInfo) Reaction {
	if ev.DupAcks == 3 {
		p.cwnd = maxf(p.cwnd*0.85, 4*float64(ev.MSS))
		return ReactFastRetransmit
	}
	return ReactNone
}

// OnRTO implements CongestionControl.
func (p *ratePacedCC) OnRTO(ev AckInfo) RepairMode {
	p.cwnd = maxf(4*float64(ev.MSS), float64(ev.MSS))
	return RepairGoBackN
}

// OnRecoveryExit implements CongestionControl.
func (p *ratePacedCC) OnRecoveryExit(Micros) {}

// PacingGate implements CongestionControl: admit a segment when the pacing
// clock has caught up, else report how long until it does. The clock runs
// at rpGain times the bandwidth estimate; before any estimate exists the
// gate stays open (window-limited startup).
func (p *ratePacedCC) PacingGate(now Micros, segBytes int) Micros {
	if !p.haveRate {
		return 0
	}
	rate := rpGain * p.btlBw()
	if rate <= 0 {
		return 0
	}
	if now < p.nextSend {
		return p.nextSend - now
	}
	gap := Micros(float64(segBytes) * 1e6 / rate)
	if gap > 100_000 {
		gap = 100_000 // never pace below ten segments per second
	}
	p.nextSend = now + gap
	return 0
}
