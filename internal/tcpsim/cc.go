package tcpsim

// This file defines the pluggable congestion-control strategy layer. The
// Endpoint owns transport mechanics — buffers, sequence bookkeeping, timers,
// duplicate-ACK counting, retransmission emission — and delegates every
// window decision to a CongestionControl implementation: how fast to grow,
// how hard to back off, whether a retransmission timeout collapses into a
// go-back-N repair or a scoreboard-guided one, and whether transmissions are
// rate-paced off the event loop. The Reno implementation below is a verbatim
// extraction of the arithmetic that used to be interleaved through send.go;
// tracegen's golden trace hashes pin its wire schedule byte-for-byte.

// AckInfo is the context handed to a CongestionControl hook: the event time,
// how many bytes the ACK newly covered (0 for duplicates and timeouts), the
// flight size, the consecutive duplicate-ACK count, the effective MSS, and
// the current smoothed RTT estimate (µs, 0 before the first sample).
type AckInfo struct {
	Now     Micros
	Acked   int64
	Flight  int64
	DupAcks int
	MSS     int
	SRTT    float64
}

// Reaction tells the endpoint what transmission action a duplicate-ACK hook
// wants.
type Reaction int

// Duplicate-ACK reactions.
const (
	// ReactNone requests no retransmission.
	ReactNone Reaction = iota
	// ReactFastRetransmit requests an immediate retransmission of the first
	// unacknowledged segment (the classic third-dup-ACK response).
	ReactFastRetransmit
)

// RepairMode selects how the endpoint walks a timeout-wiped flight back out
// as ACKs reopen the congestion window.
type RepairMode int

// Timeout-repair modes.
const (
	// RepairGoBackN retransmits every outstanding byte below the recovery
	// point (everything is presumed lost).
	RepairGoBackN RepairMode = iota
	// RepairSkipSACKed walks the same range but skips byte ranges the
	// receiver has selectively acknowledged.
	RepairSkipSACKed
)

// CongestionControl is a pluggable sender strategy. Implementations own the
// congestion window and the recovery-state machine; the endpoint reports
// events into the hooks and reads Cwnd back before each transmission
// decision. Hooks run synchronously inside the discrete-event engine and
// must be deterministic.
type CongestionControl interface {
	// Name identifies the strategy ("reno", "cubic", ...).
	Name() string
	// Init seeds the window state from the endpoint configuration.
	Init(cfg Config)
	// Cwnd returns the congestion window in bytes.
	Cwnd() float64
	// InRecovery reports whether the strategy is in loss recovery.
	InRecovery() bool
	// OnAck processes a new cumulative ACK (ev.Acked > 0). Flight is the
	// bytes still outstanding after the ACK advanced sndUna.
	OnAck(ev AckInfo)
	// OnDupAck processes a duplicate ACK (ev.DupAcks is the consecutive
	// count) and returns the retransmission action the endpoint should take.
	OnDupAck(ev AckInfo) Reaction
	// OnRTO processes a retransmission timeout (ev.Flight is the wiped
	// flight) and returns how the endpoint should repair it.
	OnRTO(ev AckInfo) RepairMode
	// OnRecoveryExit fires after an OnAck ended recovery (the endpoint
	// detects the InRecovery true→false edge), for epoch resets and the
	// like.
	OnRecoveryExit(now Micros)
	// PacingGate is consulted before each segment transmission: 0 admits
	// the segment now (and accounts for it), a positive value is the delay
	// after which the endpoint should retry. Window-based strategies
	// return 0 unconditionally.
	PacingGate(now Micros, segBytes int) Micros
}

// newCongestionControl builds the strategy selected by cfg.Stack.
func newCongestionControl(cfg Config) CongestionControl {
	var cc CongestionControl
	switch cfg.Stack {
	case StackCubic:
		cc = &cubicCC{}
	case StackRatePaced:
		cc = &ratePacedCC{}
	case StackSACK:
		cc = &sackCC{}
	default:
		cc = &renoCC{}
	}
	cc.Init(cfg)
	return cc
}

// renoCC is classic Reno: slow start, congestion avoidance with appropriate
// byte counting (RFC 3465), fast retransmit at the third duplicate ACK with
// window inflation, recovery exit on the first new ACK, and a collapse to
// one MSS on timeout. The arithmetic is the exact float64 sequence the
// pre-extraction send.go ran, so simulator output is byte-identical.
type renoCC struct {
	cwnd, ssthresh float64
	inRecovery     bool
}

// Name implements CongestionControl.
func (r *renoCC) Name() string { return "reno" }

// Init implements CongestionControl.
func (r *renoCC) Init(cfg Config) {
	r.cwnd = float64(initialCwnd * cfg.MSS)
	r.ssthresh = initialSsthresh
}

// Cwnd implements CongestionControl.
func (r *renoCC) Cwnd() float64 { return r.cwnd }

// InRecovery implements CongestionControl.
func (r *renoCC) InRecovery() bool { return r.inRecovery }

// OnAck implements CongestionControl.
func (r *renoCC) OnAck(ev AckInfo) {
	if r.inRecovery {
		// Classic Reno: leave recovery on the first new ACK.
		r.inRecovery = false
		r.cwnd = r.ssthresh
		return
	}
	// Appropriate byte counting (RFC 3465): growth is bounded by the bytes
	// this ACK actually covered, so streams of tinygram ACKs cannot inflate
	// the window MSS-per-ACK.
	credit := float64(ev.Acked)
	if credit > float64(ev.MSS) {
		credit = float64(ev.MSS)
	}
	if r.cwnd < r.ssthresh {
		r.cwnd += credit // slow start
	} else {
		r.cwnd += credit * float64(ev.MSS) / r.cwnd // congestion avoidance
	}
}

// OnDupAck implements CongestionControl.
func (r *renoCC) OnDupAck(ev AckInfo) Reaction {
	switch {
	case ev.DupAcks == 3:
		flight := float64(ev.Flight)
		r.ssthresh = maxf(flight/2, float64(2*ev.MSS))
		r.cwnd = r.ssthresh + float64(3*ev.MSS)
		r.inRecovery = true
		return ReactFastRetransmit
	case ev.DupAcks > 3 && r.inRecovery:
		r.cwnd += float64(ev.MSS) // window inflation per extra dup ACK
	}
	return ReactNone
}

// OnRTO implements CongestionControl.
func (r *renoCC) OnRTO(ev AckInfo) RepairMode {
	flight := float64(ev.Flight)
	r.ssthresh = maxf(flight/2, float64(2*ev.MSS))
	r.cwnd = float64(ev.MSS)
	r.inRecovery = false
	return RepairGoBackN
}

// OnRecoveryExit implements CongestionControl (Reno's window restore happens
// in OnAck).
func (r *renoCC) OnRecoveryExit(Micros) {}

// PacingGate implements CongestionControl: Reno is purely window-clocked.
func (r *renoCC) PacingGate(Micros, int) Micros { return 0 }

// sackCC is Reno arithmetic with SACK-aware repair: the endpoint keeps a
// scoreboard of selectively acknowledged ranges, fast recovery clocks out
// un-SACKed holes instead of blind first-segment retransmissions, and the
// post-timeout repair walk skips ranges the receiver already holds.
type sackCC struct {
	renoCC
}

// Name implements CongestionControl.
func (s *sackCC) Name() string { return "sack" }

// OnRTO implements CongestionControl: the wiped flight is repaired
// scoreboard-aware.
func (s *sackCC) OnRTO(ev AckInfo) RepairMode {
	s.renoCC.OnRTO(ev)
	return RepairSkipSACKed
}
