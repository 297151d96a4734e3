// Package netem models the network path between a BGP sender and a
// collector: unidirectional links with finite bandwidth, propagation delay,
// drop-tail queues, and configurable loss (i.i.d. or scripted episodes),
// plus a passive Sniffer tap that records pass-through traffic exactly like
// the tcpdump box in the paper's Figure 2.
package netem

import (
	"tdat/internal/packet"
	"tdat/internal/sim"
	"tdat/internal/timerange"
)

// Handler consumes packets at the far end of a link or tap.
type Handler func(p *packet.Packet)

// LossFunc decides whether to drop a packet offered at time t. It allows
// scripting loss episodes (e.g. a faulty interface between t1 and t2) on
// top of the link's i.i.d. LossRate.
type LossFunc func(t sim.Micros, p *packet.Packet) bool

// LinkStats counts what happened on a link.
type LinkStats struct {
	Offered     int // packets offered to the link
	Delivered   int // packets handed to the far end
	DroppedTail int // drop-tail queue overflows
	DroppedLoss int // random or scripted losses
	BytesOut    int64
}

// Link is a unidirectional link: serialization at Rate bytes/sec, a
// drop-tail queue of QueueCap packets awaiting transmission, Delay of
// propagation, and optional loss. A zero Rate means infinite bandwidth.
type Link struct {
	eng *sim.Engine
	dst Handler

	// Rate is the bandwidth in bytes per second (0 = infinite).
	Rate int64
	// Schedule, if set, overrides Rate with a time-varying capacity
	// profile: each packet's serialization time is integrated across the
	// rate segments its transmission spans. FIFO ordering is preserved
	// across rate changes because transmissions still start at
	// max(now, busyUntil) and busyUntil only moves forward.
	Schedule *RateSchedule
	// Delay is the one-way propagation delay.
	Delay sim.Micros
	// QueueCap bounds packets waiting behind the one in transmission
	// (0 = unlimited). This is the "interface buffer" whose overflow causes
	// the paper's receiver-local losses.
	QueueCap int
	// LossRate drops packets i.i.d. with this probability.
	LossRate float64
	// LossHook, if set, is consulted first and can drop deterministically.
	LossHook LossFunc
	// DropHook, if set, observes every packet the link drops — scripted,
	// random, and tail drops alike — at the drop instant. tail reports a
	// queue overflow. This is the simulator's authoritative loss record (the
	// ground truth a passive analyzer must infer); it never affects link
	// behavior.
	DropHook func(t sim.Micros, p *packet.Packet, tail bool)

	stats     LinkStats
	busyUntil sim.Micros
	waiting   int
}

// NewLink builds a link delivering to dst.
func NewLink(eng *sim.Engine, dst Handler) *Link {
	return &Link{eng: eng, dst: dst}
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the packets currently waiting behind the transmitter.
func (l *Link) QueueLen() int { return l.waiting }

// Send offers a packet to the link at the current virtual time.
func (l *Link) Send(p *packet.Packet) {
	l.stats.Offered++
	now := l.eng.Now()
	if l.LossHook != nil && l.LossHook(now, p) {
		l.stats.DroppedLoss++
		l.recordDrop(now, p, false)
		return
	}
	if l.LossRate > 0 && l.eng.Rand().Float64() < l.LossRate {
		l.stats.DroppedLoss++
		l.recordDrop(now, p, false)
		return
	}
	transmitting := l.busyUntil > now
	if transmitting && l.QueueCap > 0 && l.waiting >= l.QueueCap {
		l.stats.DroppedTail++
		l.recordDrop(now, p, true)
		return
	}

	start := now
	if transmitting {
		start = l.busyUntil
		l.waiting++
	}
	var ser sim.Micros
	switch {
	case l.Schedule != nil:
		ser = l.Schedule.serTime(start, p.WireLen())
	case l.Rate > 0:
		ser = sim.Micros(int64(p.WireLen()) * 1_000_000 / l.Rate)
		if ser == 0 {
			ser = 1
		}
	}
	done := start + ser
	l.busyUntil = done
	l.eng.At(done, func() {
		if start > now {
			l.waiting--
		}
		l.stats.Delivered++
		l.stats.BytesOut += int64(p.WireLen())
	})
	l.eng.At(done+l.Delay, func() { l.dst(p) })
}

// recordDrop reports a dropped packet to the ground-truth hook.
func (l *Link) recordDrop(t sim.Micros, p *packet.Packet, tail bool) {
	if l.DropHook != nil {
		l.DropHook(t, p, tail)
	}
}

// Direction labels which way a captured packet was heading relative to the
// BGP data flow (paper §II-A: Sender→Receiver is "data", the reverse "ACK").
type Direction int

// Directions of captured traffic.
const (
	DirData Direction = iota // Sender → Receiver
	DirAck                   // Receiver → Sender
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == DirData {
		return "data"
	}
	return "ack"
}

// Capture is one sniffed packet.
type Capture struct {
	Time sim.Micros
	Dir  Direction
	Pkt  *packet.Packet
}

// Sniffer passively records pass-through traffic in both directions and
// forwards it unchanged, like the paper's tcpdump box in front of the
// collector.
type Sniffer struct {
	eng      *sim.Engine
	captures []Capture
	// DropRate simulates tcpdump losing packets (void periods); dropped
	// packets are still forwarded (the sniffer is passive) but not recorded.
	DropRate float64
}

// NewSniffer creates an empty sniffer.
func NewSniffer(eng *sim.Engine) *Sniffer { return &Sniffer{eng: eng} }

// Tap returns a Handler that records packets traveling in dir and forwards
// them to next.
func (s *Sniffer) Tap(dir Direction, next Handler) Handler {
	return func(p *packet.Packet) {
		if s.DropRate == 0 || s.eng.Rand().Float64() >= s.DropRate {
			s.captures = append(s.captures, Capture{Time: s.eng.Now(), Dir: dir, Pkt: p})
		}
		next(p)
	}
}

// Captures returns the recorded packets in capture order.
func (s *Sniffer) Captures() []Capture { return s.captures }

// Reset discards recorded captures.
func (s *Sniffer) Reset() { s.captures = nil }

// Span returns the time range covered by the capture.
func (s *Sniffer) Span() (timerange.Range, bool) {
	if len(s.captures) == 0 {
		return timerange.Range{}, false
	}
	return timerange.Range{
		Start: s.captures[0].Time,
		End:   s.captures[len(s.captures)-1].Time + 1,
	}, true
}

// LossEpisodes builds a LossFunc that drops every packet inside any of the
// given windows — the scripted "consecutive loss" and interface-failure
// scenarios of paper §II-B.
func LossEpisodes(windows ...timerange.Range) LossFunc {
	set := timerange.NewSet(windows...)
	return func(t sim.Micros, _ *packet.Packet) bool { return set.Contains(t) }
}

// PathConfig describes one direction of a sender→sniffer→receiver path.
type PathConfig struct {
	// Upstream is the Sender→Sniffer segment (most of the network path),
	// with an unlimited queue.
	UpstreamRate  int64
	UpstreamDelay sim.Micros
	UpstreamLoss  float64
	UpstreamHook  LossFunc
	// UpstreamSchedule overrides UpstreamRate with a time-varying
	// capacity profile (see RateSchedule).
	UpstreamSchedule *RateSchedule
	// Downstream is the Sniffer→Receiver segment (local link / receiver
	// interface), with unlimited rate and queue.
	DownstreamDelay sim.Micros
	DownstreamLoss  float64
	DownstreamHook  LossFunc
}

// Path wires a bidirectional sender↔receiver path with a sniffer co-located
// at the receiver side, per the paper's collection setup: data packets cross
// upstream (sender→sniffer) then downstream (sniffer→receiver); ACKs travel
// the reverse without being re-recorded twice.
type Path struct {
	// DataIn accepts packets from the sender toward the receiver.
	DataIn Handler
	// AckIn accepts packets from the receiver toward the sender.
	AckIn Handler
	// Sniffer records both directions between the path segments.
	Sniffer *Sniffer

	// UpstreamData and DownstreamData expose the data-direction links for
	// stats and scenario tweaks; AckPath likewise for the reverse direction.
	UpstreamData   *Link
	DownstreamData *Link
	AckPath        *Link
}

// NewPath constructs a path delivering data packets to recvIn and ACKs to
// sendIn. The ACK direction shares the upstream characteristics (reverse
// path) with no downstream segment of its own: the sniffer sits on the
// receiver's LAN, so receiver→sniffer delay is negligible by construction.
// It loses nothing, whatever the data direction drops: ACKs are small and
// in practice survive congestion that drops data packets.
func NewPath(eng *sim.Engine, cfg PathConfig, recvIn, sendIn Handler) *Path {
	sn := NewSniffer(eng)
	down := NewLink(eng, recvIn)
	down.Delay = cfg.DownstreamDelay
	down.LossRate = cfg.DownstreamLoss
	down.LossHook = cfg.DownstreamHook

	up := NewLink(eng, sn.Tap(DirData, down.Send))
	up.Rate = cfg.UpstreamRate
	up.Schedule = cfg.UpstreamSchedule
	up.Delay = cfg.UpstreamDelay
	up.LossRate = cfg.UpstreamLoss
	up.LossHook = cfg.UpstreamHook

	ack := NewLink(eng, sendIn)
	ack.Rate = cfg.UpstreamRate
	ack.Delay = cfg.UpstreamDelay + cfg.DownstreamDelay

	return &Path{
		DataIn:         up.Send,
		AckIn:          sn.Tap(DirAck, ack.Send),
		Sniffer:        sn,
		UpstreamData:   up,
		DownstreamData: down,
		AckPath:        ack,
	}
}
