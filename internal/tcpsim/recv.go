package tcpsim

import "tdat/internal/packet"

// This file holds the receiver half: in-order delivery, out-of-order
// buffering with duplicate ACKs, delayed acknowledgments, and window
// management.

// processData handles the payload (and FIN) of an incoming segment.
func (e *Endpoint) processData(p *packet.Packet) {
	off := e.seqToOff(p.TCP.Seq)
	payload := p.Payload

	if p.TCP.HasFlag(packet.FlagFIN) {
		e.finRcvd = true
		e.finOffset = off + int64(len(payload))
	}

	// Trim any prefix we already have.
	if off < e.rcvNxt {
		cut := e.rcvNxt - off
		if cut >= int64(len(payload)) {
			// Entirely old data (a retransmission of delivered bytes, or a
			// zero-window probe we cannot accept): re-acknowledge.
			e.stats.DupAcksSent++
			e.sendAck()
			return
		}
		payload = payload[cut:]
		off = e.rcvNxt
	}

	switch {
	case off == e.rcvNxt && len(payload) > 0:
		space := e.cfg.RecvBuf - len(e.readable)
		accept := len(payload)
		partial := false
		if accept > space {
			accept, partial = space, true
		}
		filledGap := false
		if accept > 0 {
			e.readable = append(e.readable, payload[:accept]...)
			e.stats.BytesReceived += int64(accept)
			e.rcvNxt += int64(accept)
			filledGap = len(e.ooo) > 0
			e.integrateOOO()
		}
		if partial || filledGap {
			// Beyond-buffer data (e.g. a persist probe at zero window) or a
			// filled sequence gap (RFC 5681 §4.2) is acknowledged
			// immediately.
			e.sendAck()
		} else {
			e.scheduleAck()
		}
		if accept > 0 && e.OnReadable != nil {
			e.OnReadable()
		}
	case off > e.rcvNxt && len(payload) > 0:
		// Out-of-order: hold the segment if it fits in the advertised
		// window, and send an immediate duplicate ACK (fast-retransmit
		// signal).
		if off+int64(len(payload)) <= e.rcvNxt+int64(e.advWindow()) {
			if _, dup := e.ooo[off]; !dup {
				seg := append([]byte(nil), payload...)
				e.ooo[off] = seg
				e.oooBytes += len(seg)
			}
			e.lastOOO = off // most recent arrival leads the SACK blocks
		}
		e.stats.DupAcksSent++
		e.sendAck()
	default:
		// Pure FIN or empty segment.
		e.sendAck()
	}

	if e.finRcvd && e.rcvNxt == e.finOffset {
		switch e.state {
		case StateEstablished:
			e.state = StateCloseWait
			e.sendAck()
			e.maybeSendFIN() // if the app already closed, finish immediately
		case StateFinWait:
			// Simultaneous/answering FIN: acknowledge and close.
			e.sendAck()
			e.state = StateClosed
			e.stopTimers()
		}
	}
}

// integrateOOO merges buffered out-of-order segments that have become
// contiguous with rcvNxt.
func (e *Endpoint) integrateOOO() {
	for {
		seg, ok := e.ooo[e.rcvNxt]
		if !ok {
			// Also handle segments overlapping rcvNxt from below (stored at
			// an earlier offset before trimming was possible).
			found := false
			for off, s := range e.ooo {
				if off < e.rcvNxt && off+int64(len(s)) > e.rcvNxt {
					delete(e.ooo, off)
					e.oooBytes -= len(s)
					s = s[e.rcvNxt-off:]
					e.ooo[e.rcvNxt] = s
					e.oooBytes += len(s)
					found = true
					break
				}
				if off+int64(len(s)) <= e.rcvNxt {
					delete(e.ooo, off)
					e.oooBytes -= len(s)
					found = true
					break
				}
			}
			if !found {
				return
			}
			continue
		}
		delete(e.ooo, e.rcvNxt)
		e.oooBytes -= len(seg)
		space := e.cfg.RecvBuf - len(e.readable)
		if len(seg) > space {
			seg = seg[:space]
		}
		e.readable = append(e.readable, seg...)
		e.stats.BytesReceived += int64(len(seg))
		e.rcvNxt += int64(len(seg))
	}
}

// scheduleAck implements delayed acknowledgments: every second full segment
// (or the delayed-ACK timer, whichever first) triggers an ACK. A buggy
// stretch-ACK receiver (Config.StretchAcks ≥ 2) raises the segment count,
// acknowledging only every Nth segment and starving the sender's ACK clock
// between the delayed-ACK timer firings.
func (e *Endpoint) scheduleAck() {
	ackEvery := 2
	if e.cfg.StretchAcks >= 2 {
		ackEvery = e.cfg.StretchAcks
	}
	e.pendingAck++
	if e.pendingAck >= ackEvery || len(e.ooo) > 0 {
		e.sendAck()
		return
	}
	if !e.delack.Active() {
		e.delack = e.eng.After(delayedAckTimeout, func() {
			if e.pendingAck > 0 {
				e.sendAck()
			}
		})
	}
}
