package tcpsim

import (
	"tdat/internal/packet"
)

// This file holds the sender half: segment transmission under the
// congestion and advertised windows (with an optional pacing gate), RFC 6298
// retransmission timeouts, zero-window persist probing, and the
// probe-discard bug. Window arithmetic itself lives behind the
// CongestionControl strategy (cc.go).

// trySend transmits as much buffered data as both windows (and the
// strategy's pacing gate, if any) allow.
func (e *Endpoint) trySend() {
	if e.state != StateEstablished && e.state != StateCloseWait {
		return
	}
	wnd := int64(e.cc.Cwnd())
	if pw := int64(e.peerWnd); pw < wnd {
		wnd = pw
	}
	dataEnd := e.sndUna + int64(len(e.sndBuf))
	for e.sndNxt < dataEnd && e.sndNxt-e.sndUna < wnd {
		seg := int64(e.cfg.MSS)
		if rem := dataEnd - e.sndNxt; rem < seg {
			seg = rem
		}
		if room := wnd - (e.sndNxt - e.sndUna); room < seg {
			seg = room
		}
		if seg <= 0 {
			break
		}
		// Nagle's algorithm: while data is outstanding, hold back sub-MSS
		// segments caused by the application dribbling small writes (BGP
		// updates are ~60–130 bytes); they coalesce into full segments on
		// the next ACK or write.
		if int(seg) < e.cfg.MSS && rem(dataEnd, e.sndNxt) < int64(e.cfg.MSS) &&
			e.sndNxt > e.sndUna {
			break
		}
		// Rate-paced stacks spread transmissions along the pacing interval
		// instead of bursting the whole window; the strategy accounts for
		// admitted segments, and a denied segment schedules a retry when
		// the gate reopens.
		if wait := e.cc.PacingGate(e.eng.Now(), int(seg)); wait > 0 {
			if !e.paceTimer.Active() {
				e.paceTimer = e.eng.After(wait, e.trySend)
			}
			break
		}
		e.sendSegment(e.sndNxt, int(seg))
		e.sndNxt += seg
	}
	if e.sndNxt > e.sndUna {
		if !e.rtoTimer.Active() {
			e.armRTO()
		}
	}
	// Zero-window deadlock: data pending, nothing in flight, window closed.
	if e.peerWnd == 0 && e.sndNxt == e.sndUna && e.sndNxt < dataEnd {
		e.armPersist()
	}
	// Ground truth: the sender is advertised-window blocked when the peer
	// window (not cwnd) is the binding constraint and the sender has more
	// to move — either buffered data remains unsent, or the send buffer is
	// packed with unacked bytes that only a window release can retire (the
	// application is stalled behind the full buffer). "Binding" means the
	// window, net of in-flight data, has less than a few segments of room:
	// below that the sender either cannot emit a full segment or ends up in
	// the Nagle/silly-window interlock where its sub-MSS tail waits on a
	// window update the receiver is withholding until its buffer drains.
	// Three segments of slack matches the analyzer's window-fill test (the
	// series package's windowSlackMSS) — shared as the *definition* of a
	// filled window, while the states compared remain independent (endpoint
	// internals here, flight structure inferred from the wire there).
	if e.probe != nil {
		inflight := e.sndNxt - e.sndUna
		pw := int64(e.peerWnd)
		wantsMore := e.sndNxt < dataEnd || e.SendBufAvailable() < e.cfg.MSS
		slack := int64(3 * e.cfg.MSS)
		blocked := wantsMore && pw <= int64(e.cc.Cwnd()) && pw-inflight < slack
		e.probeSendBlocked(blocked)
	}
}

// sendSegment emits payload [off, off+n) from the send buffer. The
// probe-discard bug, when armed, consumes the transmission silently: the
// stream position advances but no packet reaches the network, so the
// segment can only be repaired by a retransmission timeout — exactly the
// repetitive-retransmission signature of paper §IV-B.
func (e *Endpoint) sendSegment(off int64, n int) {
	start := off - e.sndUna
	payload := e.sndBuf[start : start+int64(n)]
	if e.bugDropArmed {
		e.bugDropArmed = false
		e.stats.BugDrops++
		e.probeBugDrop()
		return
	}
	if !e.timing {
		e.timing = true
		e.timedEnd = off + int64(n)
		e.timedAt = e.eng.Now()
	}
	flags := uint8(packet.FlagACK)
	if off+int64(n) == e.sndUna+int64(len(e.sndBuf)) {
		flags |= packet.FlagPSH
	}
	e.emit(flags, e.wireSeq(off), e.wireAck(), payload, false)
}

// retransmitFirst resends one MSS starting at sndUna, returning the bytes
// retransmitted.
func (e *Endpoint) retransmitFirst() int64 {
	if e.sndNxt == e.sndUna || len(e.sndBuf) == 0 {
		return 0
	}
	n := int64(e.cfg.MSS)
	if fl := e.sndNxt - e.sndUna; fl < n {
		n = fl
	}
	e.timing = false // Karn's algorithm: never time retransmitted data
	e.emit(packet.FlagACK|packet.FlagPSH, e.wireSeq(e.sndUna), e.wireAck(), e.sndBuf[:n], true)
	return n
}

// processAck handles the acknowledgment and window fields of an incoming
// segment.
func (e *Endpoint) processAck(tcp *packet.TCP) {
	ackOff := e.ackToOff(tcp.Ack)
	oldWnd := e.peerWnd
	e.peerWnd = int(tcp.Window)

	// Fold any SACK blocks into the scoreboard before acting on the ACK, so
	// fast-recovery hole selection sees what the receiver already holds.
	if e.sackOK {
		for _, b := range tcp.SACKBlocks() {
			l, r := e.ackToOff(b[0]), e.ackToOff(b[1])
			if l < r && r <= e.sndNxt {
				e.sb.add(l, r)
			}
		}
	}

	// A window reopening cancels the persist probe; under the router bug
	// the race corrupts the next outgoing segment (paper §IV-B).
	if oldWnd == 0 && e.peerWnd > 0 {
		if e.persistTimer.Active() {
			e.persistTimer.Stop()
			if e.cfg.ZeroWindowProbeBug {
				e.bugDropArmed = true
			}
		}
	}

	if e.finSentAt >= 0 && e.state == StateFinWait && ackOff > e.finSentAt {
		// Our FIN is acknowledged: the active close completes (TIME-WAIT is
		// not modeled; captures end with the connection).
		e.state = StateClosed
		e.stopTimers()
		return
	}
	switch {
	case ackOff > e.sndUna && ackOff <= e.sndNxt:
		e.onNewAck(ackOff)
	case ackOff == e.sndUna && e.sndNxt > e.sndUna:
		// Potential duplicate ACK: no data, no window change.
		if e.peerWnd == oldWnd {
			e.onDupAck()
		}
	}
	e.trySend()
}

func (e *Endpoint) onNewAck(ackOff int64) {
	acked := ackOff - e.sndUna
	e.sndBuf = e.sndBuf[acked:]
	e.sndUna = ackOff
	if e.sndNxt < e.sndUna {
		e.sndNxt = e.sndUna
	}
	e.dupAcks = 0
	e.rtoShift = 0
	e.sb.advance(e.sndUna)

	if e.timing && ackOff >= e.timedEnd {
		e.rttSampleRaw(e.eng.Now() - e.timedAt)
		e.timing = false
	}

	wasRecovering := e.cc.InRecovery()
	e.cc.OnAck(AckInfo{
		Now:    e.eng.Now(),
		Acked:  acked,
		Flight: e.sndNxt - e.sndUna,
		MSS:    e.cfg.MSS,
		SRTT:   e.srtt,
	})
	if wasRecovering && !e.cc.InRecovery() {
		e.cc.OnRecoveryExit(e.eng.Now())
		e.sackRexmitNxt = 0
	}

	if e.rtoRecover > 0 {
		if e.sndUna >= e.rtoRecover {
			e.rtoRecover = 0 // hole repaired
		} else {
			e.retransmitHole()
		}
	}

	if e.sndNxt > e.sndUna {
		e.armRTO()
	} else {
		e.rtoTimer.Stop()
	}
	if e.OnSendSpace != nil && acked > 0 {
		e.OnSendSpace()
	}
	e.maybeSendFIN()
}

// retransmitHole continues the post-timeout repair walk: each new ACK below
// the recovery point retransmits the next congestion window's worth of the
// presumed-lost flight, so a flight wiped out by a loss episode is repaired
// at slow-start pace once connectivity returns instead of one segment per
// backed-off timeout. Under RepairSkipSACKed the walk steps over byte
// ranges the receiver has selectively acknowledged.
func (e *Endpoint) retransmitHole() {
	if e.rexmitNxt < e.sndUna {
		e.rexmitNxt = e.sndUna
	}
	for e.rexmitNxt < e.rtoRecover {
		if e.repairMode == RepairSkipSACKed {
			if end, ok := e.sb.coveringEnd(e.rexmitNxt); ok {
				e.rexmitNxt = end // already at the receiver
				continue
			}
		}
		n := int64(e.cfg.MSS)
		if rem := e.rtoRecover - e.rexmitNxt; rem < n {
			n = rem
		}
		if e.repairMode == RepairSkipSACKed {
			// Stop a segment short of the next SACKed range.
			if next, ok := e.sb.nextSackedStart(e.rexmitNxt); ok && next-e.rexmitNxt < n {
				n = next - e.rexmitNxt
			}
		}
		if room := int64(e.cc.Cwnd()) - (e.rexmitNxt - e.sndUna); room < n {
			n = room
		}
		if n <= 0 {
			return
		}
		start := e.rexmitNxt - e.sndUna
		e.timing = false // Karn's algorithm: never time retransmitted data
		e.emit(packet.FlagACK|packet.FlagPSH, e.wireSeq(e.rexmitNxt), e.wireAck(),
			e.sndBuf[start:start+n], true)
		e.rexmitNxt += n
	}
}

func (e *Endpoint) onDupAck() {
	e.dupAcks++
	reaction := e.cc.OnDupAck(AckInfo{
		Now:     e.eng.Now(),
		Flight:  e.sndNxt - e.sndUna,
		DupAcks: e.dupAcks,
		MSS:     e.cfg.MSS,
		SRTT:    e.srtt,
	})
	switch {
	case reaction == ReactFastRetransmit:
		e.stats.FastRetransmits++
		n := e.retransmitFirst()
		if e.sackOK {
			e.sackRexmitNxt = e.sndUna + n
		}
		e.armRTO()
	case e.sackOK && e.cc.InRecovery() && e.dupAcks > 3:
		// SACK fast recovery: each further duplicate ACK clocks out the
		// next un-SACKed hole instead of waiting for the cumulative ACK.
		e.sackRetransmitHole()
	}
}

// currentRTO returns the timeout with backoff applied.
func (e *Endpoint) currentRTO() Micros {
	rto := e.rtoBase
	if rto == 0 {
		rto = 3_000_000 // RFC 6298 initial RTO before any sample
	}
	for i := 0; i < e.rtoShift; i++ {
		rto = Micros(float64(rto) * e.cfg.RTOBackoff)
		if rto >= maxRTO {
			return maxRTO
		}
	}
	return clampMicros(rto, minRTO, maxRTO)
}

func (e *Endpoint) armRTO() {
	e.rtoTimer.Stop()
	e.rtoTimer = e.eng.After(e.currentRTO(), e.onRTO)
}

func (e *Endpoint) onRTO() {
	switch e.state {
	case StateSynSent, StateSynReceived:
		e.rtoShift++
		e.stats.Timeouts++
		e.probeTimeout()
		e.synRetx = true
		e.sendSyn(e.state == StateSynReceived)
		e.armRTO()
		return
	case StateEstablished, StateCloseWait:
	default:
		return
	}
	if e.sndNxt == e.sndUna {
		return // everything acked in the meantime
	}
	e.stats.Timeouts++
	e.probeTimeout()
	e.repairMode = e.cc.OnRTO(AckInfo{
		Now:    e.eng.Now(),
		Flight: e.sndNxt - e.sndUna,
		MSS:    e.cfg.MSS,
		SRTT:   e.srtt,
	})
	e.dupAcks = 0
	// Everything outstanding is presumed lost: retransmit the first segment
	// now and walk the rest forward as ACKs reopen the congestion window
	// (slow-start repair in the mode the strategy chose), rather than one
	// segment per backed-off timeout.
	e.rtoRecover = e.sndNxt
	e.rexmitNxt = e.sndUna
	e.retransmitFirst()
	e.rtoShift++
	e.armRTO()
}

// armPersist schedules a zero-window probe.
func (e *Endpoint) armPersist() {
	if e.persistTimer.Active() {
		return
	}
	if e.persistBackoff == 0 {
		e.persistBackoff = e.currentRTO()
	}
	e.persistTimer = e.eng.After(e.persistBackoff, e.onPersist)
}

func (e *Endpoint) onPersist() {
	if e.peerWnd > 0 || e.sndNxt > e.sndUna || e.Unsent() == 0 {
		e.persistBackoff = 0
		return
	}
	// Probe with one byte of new data; the receiver cannot accept it while
	// its buffer is full but will answer with its current window.
	e.stats.ProbesSent++
	start := e.sndNxt - e.sndUna
	e.emit(packet.FlagACK, e.wireSeq(e.sndNxt), e.wireAck(), e.sndBuf[start:start+1], false)
	e.persistBackoff = clampMicros(e.persistBackoff*2, minRTO, maxRTO)
	e.persistTimer = e.eng.After(e.persistBackoff, e.onPersist)
}

// rttSampleRaw folds a measured round-trip sample into SRTT/RTTVAR and the
// base RTO (RFC 6298 §2).
func (e *Endpoint) rttSampleRaw(sample Micros) {
	if sample < 0 {
		return
	}
	r := float64(sample)
	if e.srtt == 0 {
		e.srtt = r
		e.rttvar = r / 2
	} else {
		diff := e.srtt - r
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = 0.75*e.rttvar + 0.25*diff
		e.srtt = 0.875*e.srtt + 0.125*r
	}
	e.rtoBase = clampMicros(Micros(e.srtt+maxf(1000, 4*e.rttvar)), minRTO, maxRTO)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clampMicros(v, lo, hi Micros) Micros {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// rem returns the bytes remaining after position pos.
func rem(dataEnd, pos int64) int64 { return dataEnd - pos }
