package reassembly

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/packet"
)

// feedStream pushes sender's packets through a Stream in slice order and
// returns the emitted messages. The stream buffers without limit, so only
// a framing error fails it.
func feedStream(t *testing.T, sender flows.Endpoint, pkts []flows.TimedPacket) ([]Message, error) {
	t.Helper()
	var msgs []Message
	s := NewStream(func(m Message) { msgs = append(msgs, m) })
	s.limit = math.MaxInt
	for _, tp := range pkts {
		if tp.Pkt.IP.Src != sender.Addr || tp.Pkt.TCP.SrcPort != sender.Port {
			continue
		}
		if err := s.Packet(tp.Time, tp.Pkt); err != nil {
			return msgs, err
		}
	}
	return msgs, nil
}

func TestStreamInOrderEmitsIncrementally(t *testing.T) {
	stream := bgpStream(t, 20)
	pkts := packetsFor(stream, 300, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	var msgs []Message
	s := NewStream(func(m Message) { msgs = append(msgs, m) })
	emittedAfterHalf := 0
	for i, tp := range pkts {
		if err := s.Packet(tp.Time, tp.Pkt); err != nil {
			t.Fatal(err)
		}
		if i == len(pkts)/2 {
			emittedAfterHalf = len(msgs)
		}
	}
	if len(msgs) != 22 {
		t.Fatalf("messages = %d, want 22", len(msgs))
	}
	if emittedAfterHalf == 0 || emittedAfterHalf == len(msgs) {
		t.Errorf("no incremental emission: %d after half, %d total", emittedAfterHalf, len(msgs))
	}
	// Message completion times must be non-decreasing.
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Time < msgs[i-1].Time {
			t.Fatal("emission times regressed")
		}
	}
}

func TestStreamOutOfOrderAndRetransmission(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Swap two packets and duplicate another.
	pkts[2], pkts[3] = pkts[3], pkts[2]
	dup := *pkts[5].Pkt
	var reordered []flows.TimedPacket
	reordered = append(reordered, pkts...)
	reordered = append(reordered, flows.TimedPacket{Time: 999_000, Pkt: &dup})

	msgs, err := feedStream(t, sndEP, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 32 {
		t.Errorf("messages = %d, want 32", len(msgs))
	}
	updates := 0
	for _, m := range msgs {
		if _, ok := m.Msg.(*bgp.Update); ok {
			updates++
		}
	}
	if updates != 30 {
		t.Errorf("updates = %d", updates)
	}
}

func TestStreamReportsPendingHole(t *testing.T) {
	stream := bgpStream(t, 10)
	pkts := packetsFor(stream, 100, func(i int) flows.Micros { return flows.Micros(i) })
	s := NewStream(func(Message) {})
	// Skip packet 1: a permanent hole.
	for i, tp := range pkts {
		if i == 1 {
			continue
		}
		if err := s.Packet(tp.Time, tp.Pkt); err != nil {
			t.Fatal(err)
		}
	}
	if s.oooLen == 0 {
		t.Error("no bytes held behind the hole")
	}
}

func TestStreamBufferLimit(t *testing.T) {
	stream := bgpStream(t, 60)
	pkts := packetsFor(stream, 100, func(i int) flows.Micros { return flows.Micros(i) })
	s := NewStream(func(Message) {})
	s.limit = 512
	// Pin the ISN with a SYN so the skipped first segment leaves a real
	// hole that everything else queues behind.
	syn := &packet.Packet{
		IP:  packet.IPv4{Src: sndEP.Addr, Dst: rcvEP.Addr},
		TCP: packet.TCP{SrcPort: sndEP.Port, DstPort: rcvEP.Port, Seq: 1000, Flags: packet.FlagSYN},
	}
	if err := s.Packet(0, syn); err != nil {
		t.Fatal(err)
	}
	var err error
	for i, tp := range pkts {
		if i == 0 {
			continue // hole at the very front: everything buffers
		}
		if err = s.Packet(tp.Time, tp.Pkt); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBufferLimit) {
		t.Errorf("err = %v, want ErrBufferLimit", err)
	}
}

func TestStreamMidCaptureAnchor(t *testing.T) {
	// No SYN: the first data packet anchors the stream.
	stream := bgpStream(t, 5)
	var msgs []Message
	s := NewStream(func(m Message) { msgs = append(msgs, m) })
	p := &packet.Packet{
		IP:      packet.IPv4{Src: sndEP.Addr, Dst: rcvEP.Addr},
		TCP:     packet.TCP{SrcPort: sndEP.Port, DstPort: rcvEP.Port, Seq: 5001, Flags: packet.FlagACK},
		Payload: stream,
	}
	if err := s.Packet(10, p); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 7 {
		t.Errorf("messages = %d, want 7", len(msgs))
	}
}

func TestStreamGarbageReportsFramingError(t *testing.T) {
	s := NewStream(func(Message) {})
	p := &packet.Packet{
		IP:      packet.IPv4{Src: sndEP.Addr, Dst: rcvEP.Addr},
		TCP:     packet.TCP{Seq: 1001, Flags: packet.FlagACK},
		Payload: make([]byte, 64),
	}
	if err := s.Packet(1, p); err == nil {
		t.Error("garbage stream framed without error")
	}
}

// layoutCase is one capture of a stream: its pieces in capture order,
// whether a SYN opens it, and how many messages it yields.
type layoutCase struct {
	name string
	syn  bool
	pcs  []piece
	want int
}

// layouts are captures of one 32-message stream in 200-byte segments that
// batch and online reassembly must agree on, byte for byte and time for
// time.
func layouts(stream []byte) []layoutCase {
	all := func() []piece { return pieces(0, len(stream), 200) }
	swapped := all()
	swapped[2], swapped[3] = swapped[3], swapped[2]
	reversed := all()
	slices.Reverse(reversed)
	holed := func(from, to int) []piece {
		return append(pieces(0, from, 200), pieces(to, len(stream), 200)...)
	}
	return []layoutCase{
		{"in-order", true, all(), 32},
		{"disorder", true, swapped, 32},
		{"reversed", true, reversed, 32},
		{"late-gap-fill", true, append(holed(400, 600), piece{400, 200}), 32},
		{"overlap", true, append(holed(400, 600), piece{300, 400}), 32},
		{"same-offset-longer", true, longerCopy(stream), 32},
		{"same-offset-shorter", true, append([]piece{{0, 200}, {600, 400}, {600, 200}, {200, 200}, {400, 200}},
			pieces(1000, len(stream), 200)...), 32},
		{"retransmit", true, append(all(), piece{600, 200}), 32},
		{"hole", true, holed(600, 800), 14},
		{"pre-anchor", false, midStream(stream), 30},
		{"straddles-anchor", false, append(midStream(stream), piece{29, 219}), 30},
	}
}

// TestStreamMatchesOfflineReassembly holds batch reassembly to Stream, fed
// in capture order, on every layout: the same messages, each with the same
// wire bytes and time.
func TestStreamMatchesOfflineReassembly(t *testing.T) {
	stream := bgpStream(t, 30)
	for _, l := range layouts(stream) {
		t.Run(l.name, func(t *testing.T) {
			if n := matchesStream(t, capture(stream, l.syn, l.pcs)); n != l.want {
				t.Errorf("%d messages, want %d", n, l.want)
			}
		})
	}
}

// FuzzLinearize holds batch reassembly to Stream on arbitrary captures of
// one true BGP stream, opened by a SYN. The first input byte sets the
// number of UPDATEs. Each following four bytes capture one segment, up to
// 64 in input order: a big-endian offset taken mod the stream length, and
// a length taken mod 512 plus one, cut at the end of the stream. Every
// copy of a byte is the same byte, as in an honest retransmission.
func FuzzLinearize(f *testing.F) {
	encode := func(n byte, pcs []piece) []byte {
		in := []byte{n}
		for _, p := range pcs {
			in = binary.BigEndian.AppendUint16(in, uint16(p.off))
			in = binary.BigEndian.AppendUint16(in, uint16(p.n-1))
		}
		return in
	}
	stream := bgpStream(f, 30)
	for _, l := range layouts(stream) {
		f.Add(encode(30, l.pcs))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		stream := bgpStream(t, int(in[0]%64))
		var pcs []piece
		for in = in[1:]; len(in) >= 4 && len(pcs) < 64; in = in[4:] {
			off := int(binary.BigEndian.Uint16(in)) % len(stream)
			n := min(int(binary.BigEndian.Uint16(in[2:])%512)+1, len(stream)-off)
			pcs = append(pcs, piece{off, n})
		}
		matchesStream(t, capture(stream, true, pcs))
	})
}
