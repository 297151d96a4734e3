// Package tcpsim implements a discrete-event TCP endpoint with pluggable
// congestion control (see CongestionControl in cc.go). The default stack is
// Reno — slow start, congestion avoidance, fast retransmit/recovery,
// RFC 6298 retransmission timeouts with exponential backoff — and CUBIC,
// rate-paced (BBR-like), and SACK-recovery stacks plus buggy receiver
// variants (stretch ACKs, broken window scaling) are selectable through
// Config.Stack / ApplyStack. All stacks share the receiver flow-control
// machinery: delayed ACKs, zero-window probing, and the zero-window
// probe-discard bug the paper found in operational routers (§IV-B
// "ZeroAckBug").
//
// The default model is the one T-DAT assumes: window-based congestion
// control in the Tahoe/Reno/NewReno family; the other stacks exist to
// measure which of the analyzer's inferences are Reno-specific. Endpoints
// exchange packet.Packet values through netem links under a sim.Engine, and
// applications drive them through Write/Read plus callbacks, which is how
// bgpsim layers BGP speakers on top.
package tcpsim

import (
	"net/netip"

	"tdat/internal/sim"
)

// Micros aliases the simulator time unit.
type Micros = sim.Micros

// TCP parameters every endpoint shares: the initial congestion window (in
// segments) and slow-start threshold (in bytes), the clamp on the
// retransmission timeout (1 s per RFC 6298 — anything below the 200 ms
// delayed-ACK timer provokes spurious retransmissions — and 60 s), and the
// delayed-ACK timer.
const (
	initialCwnd              = 2
	initialSsthresh          = 65535
	minRTO            Micros = 1_000_000
	maxRTO            Micros = 60_000_000
	delayedAckTimeout Micros = 200_000
)

// Config holds per-endpoint TCP parameters. NewEndpoint applies defaults for
// zero fields.
type Config struct {
	// Addr and Port identify the local end.
	Addr netip.Addr
	Port uint16

	// MSS is the maximum segment size in bytes (default 1460).
	MSS int
	// RecvBuf is the receive buffer size, i.e. the maximum advertised
	// window (default 65535). The paper contrasts ISP_A's 65 KB with
	// RouteViews' 16 KB.
	RecvBuf int
	// SendBuf is the send socket buffer capacity (default 65536). A full
	// send buffer back-pressures the application, which is what couples
	// peer-group members together in bgpsim.
	SendBuf int

	// RTOBackoff is the timeout multiplier applied per consecutive
	// retransmission (default 2.0). RouteViews-style aggressive backoff is
	// modeled with larger values.
	RTOBackoff float64

	// ZeroWindowProbeBug enables the router bug from paper §IV-B: when an
	// ACK reopens the window before a pending zero-window probe is
	// transmitted, the endpoint discards the outgoing segment, forcing an
	// RTO-driven retransmission (observed as upstream loss during
	// zero-window periods).
	ZeroWindowProbeBug bool

	// Stack selects the congestion-control strategy (see stack.go). The
	// zero value is Reno; ApplyStack is the usual way to set it together
	// with the matching receiver quirks.
	Stack Stack
	// SACK offers selective acknowledgments on the SYN and, when the peer
	// offers too, generates SACK blocks (receiver) and repairs from a
	// scoreboard (sender, with Stack == StackSACK).
	SACK bool
	// StretchAcks, when ≥ 2, makes the receiver acknowledge only every Nth
	// full segment instead of every second one — the buggy stretch-ACK
	// behavior that starves a window-based sender's ACK clock. 0 keeps the
	// standard delayed-ACK rule.
	StretchAcks int
	// WindowScaleBug right-shifts the advertised receive window by this
	// many bits, modeling a broken window-scaling implementation that
	// advertises the post-scale value to a peer that never scales it back
	// up. 0 disables the bug.
	WindowScaleBug uint8
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.RecvBuf == 0 {
		c.RecvBuf = 65535
	}
	if c.SendBuf == 0 {
		c.SendBuf = 65536
	}
	if c.RTOBackoff == 0 {
		c.RTOBackoff = 2.0
	}
	return c
}

// State is the connection state (simplified TCP state machine).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait
	StateCloseWait
	StateDead // endpoint crashed: drops all input, emits nothing
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateListen:
		return "listen"
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateCloseWait:
		return "close-wait"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Stats counts endpoint-level events for assertions and scenario debugging.
type Stats struct {
	SegmentsSent     int
	SegmentsReceived int
	BytesSent        int64
	BytesReceived    int64
	Retransmits      int
	FastRetransmits  int
	Timeouts         int
	DupAcksSent      int
	ZeroWindowAcks   int
	ProbesSent       int
	BugDrops         int
}
