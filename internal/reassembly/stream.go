package reassembly

import (
	"bytes"
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
	emit func(Message)
	// Limit bounds buffered bytes (0 selects DefaultStreamLimit).
	Limit int
	// Evict selects the lenient over-limit policy: instead of failing with
	// ErrBufferLimit, the stream abandons its oldest hole — the partial
	// message stalled in front of it and the skipped sequence range are
	// discarded, decoding resynchronizes at the next BGP marker, and the
	// damage is tallied in Evicted. Framing errors (a message header lying
	// about its length) resynchronize the same way. Off by default, so
	// existing fail-fast callers are unchanged.
	Evict bool

	haveISN bool
	isn     uint32
	next    int64            // next expected payload offset
	ooo     map[int64][]byte // out-of-order segments by offset
	oooLen  int
	buf     []byte // contiguous bytes not yet framed

	evictions    int
	evictedBytes int64
}

// Evicted reports the lenient-mode damage tally: how many times the stream
// abandoned a hole or resynchronized past corrupt framing, and how many
// stream bytes were discarded doing so. Both stay zero unless Evict is set.
func (s *Stream) Evicted() (events int, streamBytes int64) {
	return s.evictions, s.evictedBytes
}

// NewStream creates a Stream delivering completed messages to emit.
func NewStream(emit func(Message)) *Stream {
	return &Stream{emit: emit, ooo: map[int64][]byte{}}
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
		if s.oooLen+len(s.buf) > s.limit() {
			if !s.Evict {
				return fmt.Errorf("%w: %d bytes held at a hole before offset %d",
					ErrBufferLimit, s.oooLen, s.next)
			}
			// Abandon holes oldest-first until buffering fits again; each
			// round frees the skipped range plus whatever frames out of
			// the segments the skip made contiguous.
			for s.oooLen+len(s.buf) > s.limit() && s.oooLen > 0 {
				s.evictOldestHole()
				s.drain()
				if err := s.frame(t); err != nil {
					return err
				}
			}
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

// evictOldestHole abandons the stream in front of the oldest held segment:
// the un-framed partial message in buf can never complete (its missing
// bytes are exactly the hole being given up on), so it is discarded along
// with the skipped sequence range, and the stream resumes at the earliest
// held offset.
func (s *Stream) evictOldestHole() {
	min := int64(-1)
	for o := range s.ooo {
		if min < 0 || o < min {
			min = o
		}
	}
	if min < s.next {
		return
	}
	s.evictions++
	s.evictedBytes += (min - s.next) + int64(len(s.buf))
	s.buf = s.buf[:0]
	s.next = min
}

// bgpMarker is the all-ones synchronization marker opening every BGP
// message header — the resync point lenient framing hunts for.
var bgpMarker = bytes.Repeat([]byte{0xFF}, 16)

// frame splits completed BGP messages out of the contiguous buffer. With
// Evict set, corrupt framing (a header lying about its length, or a buffer
// that resumed mid-message after a hole eviction) resynchronizes at the
// next marker instead of failing.
func (s *Stream) frame(t timerange.Micros) error {
	for {
		msgs, consumed, err := bgp.SplitStream(s.buf)
		off := 0
		for _, m := range msgs {
			length := int(uint16(s.buf[off+16])<<8 | uint16(s.buf[off+17]))
			raw := append([]byte(nil), s.buf[off:off+length]...)
			off += length
			s.emit(Message{Time: t, Msg: m, Raw: raw})
		}
		s.buf = append(s.buf[:0], s.buf[consumed:]...)
		if err == nil {
			break
		}
		if !s.Evict {
			return fmt.Errorf("reassembly: online framing: %w", err)
		}
		s.resync()
	}
	if !s.Evict && len(s.buf)+s.oooLen > s.limit() {
		return fmt.Errorf("%w: %d undecodable bytes buffered", ErrBufferLimit, len(s.buf))
	}
	return nil
}

// resync discards buffered bytes up to the next plausible message boundary,
// counting them as evicted: the message they belonged to can no longer be
// trusted. The damaged message's own (valid) marker is skipped before
// hunting, and a trailing partial run of marker bytes is kept in case the
// next boundary is split across packets.
func (s *Stream) resync() {
	s.evictions++
	search := s.buf
	if len(search) >= len(bgpMarker) && bytes.Equal(search[:len(bgpMarker)], bgpMarker) {
		search = search[len(bgpMarker):]
	}
	drop := len(s.buf)
	if i := bytes.Index(search, bgpMarker); i >= 0 {
		drop = len(s.buf) - len(search) + i
	} else {
		run := 0
		for run < len(bgpMarker)-1 && run < len(s.buf) && s.buf[len(s.buf)-1-run] == 0xFF {
			run++
		}
		drop = len(s.buf) - run
	}
	s.evictedBytes += int64(drop)
	s.buf = append(s.buf[:0], s.buf[drop:]...)
}

// PendingHole reports whether the stream is stalled behind a sequence hole
// and how many bytes wait beyond it.
func (s *Stream) PendingHole() (bool, int) { return s.oooLen > 0, s.oooLen }

func (s *Stream) limit() int {
	if s.Limit > 0 {
		return s.Limit
	}
	return DefaultStreamLimit
}
