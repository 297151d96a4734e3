package tcpsim

import "math"

// cubicCC grows the congestion window along the RFC 8312 cubic curve
// W(t) = C·(t−K)³ + W_max: concave recovery toward the window where loss
// last occurred, a plateau around it, then convex probing beyond. A
// Reno-rate estimate (the TCP-friendly region) floors growth so the stack
// converges to Reno behavior when the RTT is tiny. Loss response is the
// gentler β = 0.7 multiplicative decrease instead of Reno's halving.
type cubicCC struct {
	cwnd, ssthresh float64
	inRecovery     bool

	wMax       float64 // window before the last reduction
	epochStart Micros  // 0 = no growth epoch in progress
	k          float64 // seconds from epoch start to reach wMax
	wEst       float64 // Reno-friendly window estimate
}

// RFC 8312 constants: C scales the cubic term (segments/s³), beta is the
// multiplicative decrease, and alpha makes the TCP-friendly region match
// long-run Reno throughput under the same loss rate.
const (
	cubicC     = 0.4
	cubicBeta  = 0.7
	cubicAlpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
)

// Name implements CongestionControl.
func (c *cubicCC) Name() string { return "cubic" }

// Init implements CongestionControl.
func (c *cubicCC) Init(cfg Config) {
	c.cwnd = float64(initialCwnd * cfg.MSS)
	c.ssthresh = initialSsthresh
}

// Cwnd implements CongestionControl.
func (c *cubicCC) Cwnd() float64 { return c.cwnd }

// InRecovery implements CongestionControl.
func (c *cubicCC) InRecovery() bool { return c.inRecovery }

// OnAck implements CongestionControl.
func (c *cubicCC) OnAck(ev AckInfo) {
	if c.inRecovery {
		c.inRecovery = false
		c.cwnd = c.ssthresh
		return
	}
	mss := float64(ev.MSS)
	credit := float64(ev.Acked)
	if credit > mss {
		credit = mss
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += credit // slow start, same as Reno
		return
	}
	if c.epochStart == 0 {
		c.epochStart = ev.Now
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd // first epoch: plateau at the current window
		}
		c.k = math.Cbrt((c.wMax - c.cwnd) / mss / cubicC)
		c.wEst = c.cwnd
	}
	t := float64(ev.Now-c.epochStart) / 1e6
	d := t - c.k
	target := c.wMax + cubicC*d*d*d*mss
	if target > c.cwnd {
		// Spread the climb to target over roughly a window of ACKs.
		c.cwnd += (target - c.cwnd) * credit / c.cwnd
	} else {
		c.cwnd += credit * mss / (100 * c.cwnd) // plateau: near-flat probing
	}
	// TCP-friendly region (RFC 8312 §4.2): never grow slower than a Reno
	// flow scaled by alpha under the same ACK stream.
	c.wEst += cubicAlpha * credit * mss / c.wEst
	if c.wEst > c.cwnd {
		c.cwnd = c.wEst
	}
}

// OnDupAck implements CongestionControl.
func (c *cubicCC) OnDupAck(ev AckInfo) Reaction {
	mss := float64(ev.MSS)
	switch {
	case ev.DupAcks == 3:
		c.wMax = c.cwnd
		c.ssthresh = maxf(c.cwnd*cubicBeta, 2*mss)
		c.cwnd = c.ssthresh
		c.inRecovery = true
		c.epochStart = 0
		return ReactFastRetransmit
	case ev.DupAcks > 3 && c.inRecovery:
		c.cwnd += mss
	}
	return ReactNone
}

// OnRTO implements CongestionControl.
func (c *cubicCC) OnRTO(ev AckInfo) RepairMode {
	mss := float64(ev.MSS)
	c.wMax = c.cwnd
	c.ssthresh = maxf(c.cwnd*cubicBeta, 2*mss)
	c.cwnd = mss
	c.inRecovery = false
	c.epochStart = 0
	return RepairGoBackN
}

// OnRecoveryExit implements CongestionControl: growth restarts from a fresh
// epoch measured at the post-recovery window.
func (c *cubicCC) OnRecoveryExit(Micros) { c.epochStart = 0 }

// PacingGate implements CongestionControl: CUBIC is window-clocked.
func (c *cubicCC) PacingGate(Micros, int) Micros { return 0 }
