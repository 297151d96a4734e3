// Package ackshift compensates for the sniffer's location (paper §III-B1).
//
// The sniffer sits next to the receiver, so ACKs are captured almost when
// they are generated, while the sender perceives them roughly one upstream
// delay (d2) later — and the data packets those ACKs release appear at the
// sniffer a further d2 after that. To make the trace approximate the
// sender's viewpoint, ACKs are shifted forward in time: they are grouped
// into back-to-back flights, each ACK's release delay d2 is estimated from
// the first data packet its window release explains, and the whole flight
// is shifted by the flight's minimum (most precise) d2.
package ackshift

import (
	"tdat/internal/flows"
	"tdat/internal/timerange"
)

// Micros aliases the trace time unit.
type Micros = timerange.Micros

// flightGapDiv separates ACK flights: a new flight starts when the
// inter-ACK spacing exceeds this fraction of the RTT (1/2). Expressed as a
// divisor to stay integral: gap > RTT/flightGapDiv.
const flightGapDiv = 2

// maxShiftRTTMillis caps a flight's shift at this multiple of RTT ×1000 —
// i.e. the cap of 1.5×RTT is 1500. Shifts beyond it mean the association
// was spurious (sender idle), so the flight stays put.
//
// The legitimate release delay is one upstream delay to reach the sender
// plus one upstream delay for the released data to come back — exactly the
// handshake RTT. The cap of 1.5×RTT leaves half an RTT of
// sender-processing slack; anything slower is the application (or a timer)
// deciding to send, not this ACK releasing held data. A looser cap directly
// raises the smallest detectable sender pacing timer: a timer tick T is
// attributed to ACK clocking whenever T minus one ACK-passage time fits
// under the cap.
const maxShiftRTTMillis = 1500

// Shift returns a copy of c's ACK events with flight-granular forward time
// shifts applied. The data events are untouched; series generation runs on
// (original data, shifted ACKs), which approximates the sender-side
// interleaving. Connections whose RTT estimate is missing are returned
// unshifted.
func Shift(c *flows.Connection) []flows.AckEvent {
	acks := append([]flows.AckEvent(nil), c.Acks...)
	rtt := c.Profile.RTT
	if rtt <= 0 || len(acks) == 0 || len(c.Data) == 0 {
		return acks
	}
	flightGap := rtt / flightGapDiv
	if flightGap <= 0 {
		flightGap = 1
	}
	maxShift := rtt * maxShiftRTTMillis / 1000

	// Group ACKs into flights by inter-arrival spacing.
	type flight struct{ lo, hi int } // index range [lo,hi]
	var flights []flight
	cur := flight{lo: 0, hi: 0}
	for i := 1; i < len(acks); i++ {
		if acks[i].Time-acks[i-1].Time > flightGap {
			flights = append(flights, cur)
			cur = flight{lo: i, hi: i}
			continue
		}
		cur.hi = i
	}
	flights = append(flights, cur)

	// For each ACK, estimate d2 as the delay to the first NEW data packet
	// whose sequence extends beyond what was permitted before this ACK —
	// i.e. data this ACK's window release explains — then shift the flight
	// by the minimum d2 among its ACKs. Only ACKs that actually release
	// something qualify: the cumulative ack must advance or the advertised
	// window edge must open. A segment that repeats the current ack with an
	// unchanged window frees no sender state — the receiver's own
	// keepalives are the common case, and associating one with whatever
	// data happens to follow would time-shift it across a genuine sender
	// pause (both ends arm their keepalive timers at session start, so the
	// reverse keepalive lands almost exactly one release delay before the
	// forward one).
	di := 0
	var maxAck, maxEdge int64
	ei := 0
	advanceEdge := func(t Micros) {
		for ei < len(c.Acks) && c.Acks[ei].Time <= t {
			a := c.Acks[ei]
			if a.Ack > maxAck {
				maxAck = a.Ack
			}
			if edge := a.Ack + int64(a.Window); edge > maxEdge {
				maxEdge = edge
			}
			ei++
		}
	}
	for _, fl := range flights {
		minD2 := Micros(-1)
		for i := fl.lo; i <= fl.hi; i++ {
			a := acks[i]
			if a.Dup {
				continue // dup ACKs trigger retransmissions, not releases
			}
			// Compare against the state just before this ACK (original,
			// unshifted times — acks[] is mutated flight by flight).
			advanceEdge(a.Time - 1)
			if a.Ack <= maxAck && a.Ack+int64(a.Window) <= maxEdge {
				continue // releases nothing (keepalive or stale ACK)
			}
			// Advance the data cursor to the first data packet after the ACK.
			for di < len(c.Data) && c.Data[di].Time <= a.Time {
				di++
			}
			for j := di; j < len(c.Data); j++ {
				d := c.Data[j]
				if d.Time-a.Time > maxShift {
					break
				}
				if d.Kind == flows.DataNew && d.SeqEnd > a.Ack {
					d2 := d.Time - a.Time
					if minD2 < 0 || d2 < minD2 {
						minD2 = d2
					}
					break
				}
			}
		}
		if minD2 <= 0 {
			continue // nothing released (sender idle or trailing flight)
		}
		// Keep the shifted ACK strictly before the data it released.
		shift := minD2 - 1
		for i := fl.lo; i <= fl.hi; i++ {
			acks[i].Time += shift
		}
	}
	return acks
}
