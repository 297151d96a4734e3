package reassembly

import (
	"errors"
	"fmt"

	"tdat/internal/bgp"
	"tdat/internal/packet"
	"tdat/internal/timerange"
)

// ErrBufferLimit reports that a stream buffered too much out-of-order or
// undecoded data (a capture hole that never fills).
var ErrBufferLimit = errors.New("reassembly: buffer limit exceeded")

// DefaultStreamLimit bounds per-stream buffering (out-of-order plus
// undecoded contiguous bytes).
const DefaultStreamLimit = 4 << 20

// Stream is the online (single-pass) reassembler behind pcap2bgp's live
// mode: feed it one direction's packets in capture order and it emits each
// BGP message as soon as the bytes completing it arrive, tolerating
// out-of-order delivery and retransmissions.
type Stream struct {
	emit  func(Message)
	limit int // buffered bytes allowed: DefaultStreamLimit, lowered by tests

	haveISN bool
	isn     uint32
	next    int64            // next expected payload offset
	ooo     map[int64][]byte // out-of-order segments by offset
	oooLen  int
	buf     []byte // contiguous bytes not yet framed
}

// NewStream creates a Stream delivering completed messages to emit.
func NewStream(emit func(Message)) *Stream {
	return &Stream{emit: emit, limit: DefaultStreamLimit, ooo: map[int64][]byte{}}
}

// Packet feeds one sender-direction packet captured at time t. A SYN pins
// the initial sequence number; without one, the first payload packet
// anchors the stream (mid-capture start).
func (s *Stream) Packet(t timerange.Micros, p *packet.Packet) error {
	if p.TCP.HasFlag(packet.FlagSYN) {
		s.haveISN = true
		s.isn = p.TCP.Seq
		return nil
	}
	if len(p.Payload) == 0 {
		return nil
	}
	if !s.haveISN {
		s.haveISN = true
		s.isn = p.TCP.Seq - 1
	}
	off := int64(int32(p.TCP.Seq - s.isn - 1))
	return s.segment(t, off, p.Payload)
}

// segment integrates payload at stream offset off.
func (s *Stream) segment(t timerange.Micros, off int64, payload []byte) error {
	end := off + int64(len(payload))
	if end <= s.next {
		return nil // pure retransmission of delivered bytes
	}
	if off > s.next {
		// Hold out of order. The first copy's bytes win; a longer copy at
		// the same offset adds only its tail.
		held := s.ooo[off]
		if len(payload) <= len(held) {
			return nil
		}
		s.ooo[off] = append(held, payload[len(held):]...)
		s.oooLen += len(payload) - len(held)
		if s.oooLen+len(s.buf) > s.limit {
			return fmt.Errorf("%w: %d bytes held at a hole before offset %d",
				ErrBufferLimit, s.oooLen, s.next)
		}
		return nil
	}
	// Overlapping or contiguous: append the new part.
	s.buf = append(s.buf, payload[s.next-off:]...)
	s.next = end
	s.drain()
	return s.frame(t)
}

// drain splices any held segments the contiguous frontier has reached.
// Candidates are consumed in ascending offset order — not map order — so
// that when an adversarial trace retransmits overlapping segments with
// inconsistent payloads, the reassembled bytes (and therefore the report)
// are still deterministic.
func (s *Stream) drain() {
	for {
		best := int64(-1)
		for o := range s.ooo {
			if o <= s.next && (best < 0 || o < best) {
				best = o
			}
		}
		if best < 0 {
			return
		}
		seg := s.ooo[best]
		if segEnd := best + int64(len(seg)); segEnd > s.next {
			s.buf = append(s.buf, seg[s.next-best:]...)
			s.next = segEnd
		}
		delete(s.ooo, best)
		s.oooLen -= len(seg)
	}
}

// frame splits completed BGP messages out of the contiguous buffer.
func (s *Stream) frame(t timerange.Micros) error {
	msgs, consumed, err := bgp.SplitStream(s.buf)
	off := 0
	for _, m := range msgs {
		length := int(uint16(s.buf[off+16])<<8 | uint16(s.buf[off+17]))
		raw := append([]byte(nil), s.buf[off:off+length]...)
		off += length
		s.emit(Message{Time: t, Msg: m, Raw: raw})
	}
	s.buf = append(s.buf[:0], s.buf[consumed:]...)
	if err != nil {
		return fmt.Errorf("reassembly: online framing: %w", err)
	}
	if len(s.buf)+s.oooLen > s.limit {
		return fmt.Errorf("%w: %d undecodable bytes buffered", ErrBufferLimit, len(s.buf))
	}
	return nil
}
