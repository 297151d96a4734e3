package tcpsim

import (
	"net/netip"

	"tdat/internal/packet"
	"tdat/internal/sim"
)

// Handler is the transmit function an endpoint uses to inject packets into
// the network (typically a netem link or path input).
type Handler func(p *packet.Packet)

// Endpoint is one end of a simulated TCP connection. All sequence
// bookkeeping is done in absolute stream offsets (int64) and converted to
// 32-bit wire sequence numbers at the edges, so multi-megabyte transfers
// never hit wrap-around corner cases internally.
type Endpoint struct {
	eng *sim.Engine
	cfg Config
	out Handler

	state      State
	remoteAddr netip.Addr
	remotePort uint16

	// Send side.
	iss     uint32 // initial send sequence (SYN consumes iss)
	sndUna  int64  // lowest unacknowledged payload offset
	sndNxt  int64  // next payload offset to transmit
	sndBuf  []byte // payload from offset sndUna onward (unacked + unsent)
	cc      CongestionControl
	dupAcks int
	// Post-timeout repair: rtoRecover marks how far data was outstanding
	// when the timeout fired (0 = no repair in progress), rexmitNxt is the
	// next byte the repair walk will retransmit, and repairMode is how the
	// strategy asked for the walk to run (go-back-N or SACK-aware).
	rtoRecover int64
	rexmitNxt  int64
	repairMode RepairMode
	peerWnd    int

	// SACK state (active only when both sides offered OptSACKPermitted).
	sackOK        bool
	peerSACK      bool       // peer offered SACK on its SYN
	sb            scoreboard // sender: peer-SACKed ranges in stream offsets
	sackRexmitNxt int64      // sender: next hole candidate in fast recovery
	lastOOO       int64      // receiver: most recent out-of-order arrival

	// RTT estimation (RFC 6298), all in microseconds.
	srtt, rttvar float64
	rtoBase      Micros
	rtoShift     int // consecutive backoffs
	timing       bool
	timedEnd     int64
	timedAt      Micros
	synSentAt    Micros
	synRetx      bool // Karn: a retransmitted SYN invalidates the handshake RTT sample

	rtoTimer       *sim.Timer
	persistTimer   *sim.Timer
	paceTimer      *sim.Timer // rate-paced stacks: next admitted transmission
	persistBackoff Micros
	bugDropArmed   bool

	// Receive side.
	irs        uint32
	rcvNxt     int64
	ooo        map[int64][]byte
	oooBytes   int
	readable   []byte
	lastAdvWnd int
	delack     *sim.Timer
	pendingAck int
	finRcvd    bool
	finOffset  int64

	ipID uint16

	// Ground-truth probe state (see probe.go).
	probe             *Probe
	probeZeroState    bool
	probeBlockedState bool

	// Close handshake state.
	appClosed bool
	finSentAt int64 // stream offset our FIN occupies (-1 until sent)

	// OnEstablished fires when the three-way handshake completes.
	OnEstablished func()
	// OnReadable fires when new in-order data becomes available to Read.
	OnReadable func()
	// OnSendSpace fires when acknowledged data frees send-buffer space.
	OnSendSpace func()
	// OnReset fires when the connection is torn down by a received RST.
	OnReset func()

	stats Stats
}

// NewEndpoint creates an endpoint bound to cfg that transmits through out.
func NewEndpoint(eng *sim.Engine, cfg Config, out Handler) *Endpoint {
	cfg = cfg.withDefaults()
	e := &Endpoint{
		eng:     eng,
		cfg:     cfg,
		out:     out,
		state:   StateClosed,
		cc:      newCongestionControl(cfg),
		peerWnd: cfg.MSS, // until the peer's first window advertisement
		ooo:     map[int64][]byte{},
	}
	e.lastAdvWnd = cfg.RecvBuf
	e.finSentAt = -1
	return e
}

// State returns the connection state.
func (e *Endpoint) State() State { return e.state }

// RemoteAddr returns the peer's address (valid once connected or a SYN has
// been accepted).
func (e *Endpoint) RemoteAddr() netip.Addr { return e.remoteAddr }

// RemotePort returns the peer's port.
func (e *Endpoint) RemotePort() uint16 { return e.remotePort }

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Config returns the endpoint's effective configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// SRTT returns the smoothed RTT estimate in microseconds (0 before the
// first sample).
func (e *Endpoint) SRTT() Micros { return Micros(e.srtt) }

// Cwnd returns the congestion window in bytes.
func (e *Endpoint) Cwnd() int { return int(e.cc.Cwnd()) }

// StackName returns the name of the congestion-control strategy in use.
func (e *Endpoint) StackName() string { return e.cc.Name() }

// SACKEnabled reports whether selective acknowledgments were negotiated.
func (e *Endpoint) SACKEnabled() bool { return e.sackOK }

// PeerWindow returns the peer's last advertised receive window.
func (e *Endpoint) PeerWindow() int { return e.peerWnd }

// Listen puts a closed endpoint into passive-open mode.
func (e *Endpoint) Listen() { e.state = StateListen }

// Connect actively opens a connection to the remote address.
func (e *Endpoint) Connect(addr netip.Addr, port uint16) {
	e.remoteAddr = addr
	e.remotePort = port
	e.iss = uint32(e.eng.Rand().Intn(1 << 30))
	e.state = StateSynSent
	e.synSentAt = e.eng.Now()
	e.rtoBase = 5 * minRTO // conservative pre-estimate for SYN
	e.sendSyn(false)
	e.armRTO()
}

// Kill crashes the endpoint: it stops emitting and ignores all input, like
// the failed collector in the paper's Figure 9 that never acknowledges
// again.
func (e *Endpoint) Kill() {
	e.state = StateDead
	e.stopTimers()
}

// Abort sends a RST and closes.
func (e *Endpoint) Abort() {
	if e.state == StateEstablished || e.state == StateSynReceived || e.state == StateCloseWait {
		e.emit(packet.FlagRST|packet.FlagACK, e.wireSeq(e.sndNxt), e.wireAck(), nil, false)
	}
	e.state = StateClosed
	e.stopTimers()
}

func (e *Endpoint) stopTimers() {
	e.rtoTimer.Stop()
	e.persistTimer.Stop()
	e.paceTimer.Stop()
	e.delack.Stop()
}

// Close marks the application side done: once every buffered byte is sent
// and acknowledged, a FIN goes out and the connection winds down through
// FIN-WAIT (active close) or completes a passive close from CLOSE-WAIT.
func (e *Endpoint) Close() {
	if e.appClosed || e.state == StateDead || e.state == StateClosed {
		return
	}
	e.appClosed = true
	e.maybeSendFIN()
}

// maybeSendFIN emits the FIN when the send buffer has drained.
func (e *Endpoint) maybeSendFIN() {
	if !e.appClosed || e.finSentAt >= 0 {
		return
	}
	if e.state != StateEstablished && e.state != StateCloseWait {
		return
	}
	if len(e.sndBuf) != 0 || e.sndNxt != e.sndUna {
		return
	}
	e.finSentAt = e.sndNxt
	e.emit(packet.FlagFIN|packet.FlagACK, e.wireSeq(e.sndNxt), e.wireAck(), nil, false)
	if e.state == StateEstablished {
		e.state = StateFinWait
	} else {
		e.state = StateClosed // passive close completes
		e.stopTimers()
	}
}

// Write appends application data to the send buffer, returning how many
// bytes were accepted (bounded by the free send-buffer space), and starts
// transmission.
func (e *Endpoint) Write(data []byte) int {
	if e.state == StateDead || e.state == StateClosed || e.appClosed {
		return 0
	}
	free := e.cfg.SendBuf - len(e.sndBuf)
	if free <= 0 {
		return 0
	}
	n := min(free, len(data))
	e.sndBuf = append(e.sndBuf, data[:n]...)
	e.trySend()
	return n
}

// SendBufAvailable returns the free space in the send socket buffer.
func (e *Endpoint) SendBufAvailable() int { return e.cfg.SendBuf - len(e.sndBuf) }

// SendBufLen returns the bytes buffered (unacked plus unsent).
func (e *Endpoint) SendBufLen() int { return len(e.sndBuf) }

// Unacked returns the bytes sent but not yet acknowledged.
func (e *Endpoint) Unacked() int { return int(e.sndNxt - e.sndUna) }

// Unsent returns the buffered bytes not yet transmitted.
func (e *Endpoint) Unsent() int { return len(e.sndBuf) - int(e.sndNxt-e.sndUna) }

// ReadableLen returns the in-order bytes available to the application.
func (e *Endpoint) ReadableLen() int { return len(e.readable) }

// Read consumes up to n bytes of in-order received data, sending a window
// update if the read reopens a meaningful share of the receive buffer.
func (e *Endpoint) Read(n int) []byte {
	if n > len(e.readable) {
		n = len(e.readable)
	}
	if n <= 0 {
		return nil
	}
	out := e.readable[:n:n]
	e.readable = e.readable[n:]
	newAdv := e.advWindow()
	// Silly-window avoidance: advertise growth only in chunks of at least
	// 2·MSS or half the buffer, and always announce a reopening from zero.
	thresh := min(2*e.cfg.MSS, e.cfg.RecvBuf/2)
	if (e.lastAdvWnd == 0 && newAdv > 0) || newAdv-e.lastAdvWnd >= thresh {
		e.sendAck()
	}
	return out
}

// AdvertisedWindow returns the receive window the endpoint would advertise
// now.
func (e *Endpoint) AdvertisedWindow() int { return e.advWindow() }

func (e *Endpoint) advWindow() int {
	// RCV.WND covers [RCV.NXT, RCV.NXT+WND): out-of-order segments occupy
	// already-advertised space inside the window and do not shrink it.
	w := e.cfg.RecvBuf - len(e.readable)
	if w < 0 {
		w = 0
	}
	if w > 65535 {
		w = 65535 // no window scaling, as in the paper's traces
	}
	// Broken window scaling: the buggy receiver advertises the post-scale
	// value (buffer >> shift) to a peer that never scales it back up, so
	// the sender sees only a fraction of the real buffer.
	w >>= int(e.cfg.WindowScaleBug)
	return w
}

// wireSeq converts a payload offset to a 32-bit wire sequence number.
func (e *Endpoint) wireSeq(off int64) uint32 { return e.iss + 1 + uint32(off) }

// wireAck returns the acknowledgment number covering everything received.
func (e *Endpoint) wireAck() uint32 {
	ack := e.irs + 1 + uint32(e.rcvNxt)
	if e.finRcvd && e.rcvNxt == e.finOffset {
		ack++ // acknowledge the FIN
	}
	return ack
}

// seqToOff converts a wire sequence number to a payload offset relative to
// the peer's ISS.
func (e *Endpoint) seqToOff(seq uint32) int64 { return int64(int32(seq - (e.irs + 1))) }

// ackToOff converts a wire ack number to an offset in our send stream.
func (e *Endpoint) ackToOff(ack uint32) int64 { return int64(int32(ack - (e.iss + 1))) }

func (e *Endpoint) sendSyn(withAck bool) {
	flags := uint8(packet.FlagSYN)
	ack := uint32(0)
	if withAck {
		flags |= packet.FlagACK
		ack = e.irs + 1
	}
	p := e.newPacket(flags, e.iss, ack, nil)
	p.TCP.SetMSS(uint16(e.cfg.MSS))
	if e.cfg.SACK {
		p.TCP.Options = append(p.TCP.Options, packet.TCPOption{Kind: packet.OptSACKPermitted})
	}
	e.transmit(p)
}

func (e *Endpoint) newPacket(flags uint8, seq, ack uint32, payload []byte) *packet.Packet {
	e.ipID++
	adv := e.advWindow()
	e.lastAdvWnd = adv
	if adv == 0 {
		e.stats.ZeroWindowAcks++
	}
	e.probeZeroWindow(adv)
	p := &packet.Packet{
		IP: packet.IPv4{
			ID:  e.ipID,
			TTL: 64,
			Src: e.cfg.Addr,
			Dst: e.remoteAddr,
		},
		TCP: packet.TCP{
			SrcPort: e.cfg.Port,
			DstPort: e.remotePort,
			Seq:     seq,
			Ack:     ack,
			Flags:   flags,
			Window:  uint16(adv),
		},
		Payload: payload,
	}
	// A SACK-negotiated receiver reports its out-of-order holdings on every
	// non-SYN segment while any exist (RFC 2018 §4).
	if e.sackOK && len(e.ooo) > 0 && flags&(packet.FlagSYN|packet.FlagRST) == 0 {
		p.TCP.SetSACKBlocks(e.sackBlocks())
	}
	return p
}

func (e *Endpoint) emit(flags uint8, seq, ack uint32, payload []byte, isRetx bool) {
	p := e.newPacket(flags, seq, ack, payload)
	if isRetx {
		e.stats.Retransmits++
	}
	e.transmit(p)
}

func (e *Endpoint) transmit(p *packet.Packet) {
	if e.state == StateDead {
		return
	}
	e.stats.SegmentsSent++
	e.stats.BytesSent += int64(len(p.Payload))
	e.out(p)
}

// sendAck emits a pure ACK reflecting the current receive state.
func (e *Endpoint) sendAck() {
	e.pendingAck = 0
	e.delack.Stop()
	e.emit(packet.FlagACK, e.wireSeq(e.sndNxt), e.wireAck(), nil, false)
}

// Deliver injects a packet arriving from the network. It is the Handler to
// wire into the receive side of a netem path.
func (e *Endpoint) Deliver(p *packet.Packet) {
	if e.state == StateDead || e.state == StateClosed {
		return
	}
	e.stats.SegmentsReceived++
	tcp := &p.TCP

	if tcp.HasFlag(packet.FlagRST) {
		e.state = StateClosed
		e.stopTimers()
		if e.OnReset != nil {
			e.OnReset()
		}
		return
	}

	switch e.state {
	case StateListen:
		if tcp.HasFlag(packet.FlagSYN) && !tcp.HasFlag(packet.FlagACK) {
			e.remoteAddr = p.IP.Src
			e.remotePort = tcp.SrcPort
			e.irs = tcp.Seq
			e.iss = uint32(e.eng.Rand().Intn(1 << 30))
			if mss, ok := tcp.MSS(); ok && int(mss) < e.cfg.MSS {
				e.cfg.MSS = int(mss)
			}
			e.peerSACK = tcp.HasOption(packet.OptSACKPermitted)
			e.sackOK = e.cfg.SACK && e.peerSACK
			e.peerWnd = int(tcp.Window)
			e.state = StateSynReceived
			e.synSentAt = e.eng.Now()
			e.sendSyn(true)
		}
		return
	case StateSynSent:
		if tcp.HasFlag(packet.FlagSYN | packet.FlagACK) {
			e.irs = tcp.Seq
			if mss, ok := tcp.MSS(); ok && int(mss) < e.cfg.MSS {
				e.cfg.MSS = int(mss)
			}
			e.peerSACK = tcp.HasOption(packet.OptSACKPermitted)
			e.sackOK = e.cfg.SACK && e.peerSACK
			e.peerWnd = int(tcp.Window)
			if !e.synRetx {
				e.rttSampleRaw(e.eng.Now() - e.synSentAt)
			}
			e.rtoTimer.Stop()
			e.rtoShift = 0
			e.state = StateEstablished
			e.sendAck()
			if e.OnEstablished != nil {
				e.OnEstablished()
			}
		}
		return
	case StateSynReceived:
		if tcp.HasFlag(packet.FlagACK) && e.ackToOff(tcp.Ack) >= 0 {
			if !e.synRetx {
				e.rttSampleRaw(e.eng.Now() - e.synSentAt)
			}
			e.rtoTimer.Stop()
			e.rtoShift = 0
			e.peerWnd = int(tcp.Window)
			e.state = StateEstablished
			if e.OnEstablished != nil {
				e.OnEstablished()
			}
			// Fall through: the handshake ACK may carry data.
		} else {
			return
		}
	}

	if tcp.HasFlag(packet.FlagACK) {
		e.processAck(tcp)
	}
	if len(p.Payload) > 0 || tcp.HasFlag(packet.FlagFIN) {
		e.processData(p)
	}
}
