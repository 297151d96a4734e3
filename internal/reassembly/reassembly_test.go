package reassembly

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/packet"
	"tdat/internal/tracegen"
)

var (
	sndEP = flows.Endpoint{Addr: netip.MustParseAddr("10.0.0.1"), Port: 179}
	rcvEP = flows.Endpoint{Addr: netip.MustParseAddr("10.0.0.2"), Port: 41000}
)

// bgpStream builds a serialized stream of n updates plus a leading OPEN and
// KEEPALIVE, returning the bytes and the message count.
func bgpStream(t testing.TB, n int) []byte {
	t.Helper()
	var stream []byte
	open := &bgp.Open{AS: 7018, HoldTime: 180, Identifier: netip.MustParseAddr("10.0.0.1")}
	raw, err := open.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, raw...)
	raw, _ = (&bgp.Keepalive{}).Marshal()
	stream = append(stream, raw...)
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{7018}, NextHop: netip.MustParseAddr("10.0.0.9")}
	for i := 0; i < n; i++ {
		u := &bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{
			netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24),
		}}
		raw, err := u.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, raw...)
	}
	return stream
}

// segment turns stream bytes into TimedPackets of fixed size, returning
// them in the given order permutation.
func packetsFor(stream []byte, segSize int, times func(i int) flows.Micros) []flows.TimedPacket {
	var pkts []flows.TimedPacket
	isn := uint32(1000)
	for i, off := 0, 0; off < len(stream); i, off = i+1, off+segSize {
		end := off + segSize
		if end > len(stream) {
			end = len(stream)
		}
		p := &packet.Packet{
			IP: packet.IPv4{ID: uint16(i + 1), Src: sndEP.Addr, Dst: rcvEP.Addr},
			TCP: packet.TCP{
				SrcPort: sndEP.Port, DstPort: rcvEP.Port,
				Seq: isn + 1 + uint32(off), Ack: 1, Flags: packet.FlagACK, Window: 65535,
			},
			Payload: append([]byte(nil), stream[off:end]...),
		}
		pkts = append(pkts, flows.TimedPacket{Time: times(i), Pkt: p})
	}
	return pkts
}

// piece is one captured segment: stream bytes [off, off+n).
type piece struct{ off, n int }

// pieces splits stream bytes [from, to) into size-byte pieces, in order.
func pieces(from, to, size int) []piece {
	var out []piece
	for off := from; off < to; off += size {
		out = append(out, piece{off, min(size, to-off)})
	}
	return out
}

// capture lays stream out as one sender packet per piece, in capture order,
// one every millisecond. With syn set, the sender's SYN and the receiver's
// SYN-ACK open the capture and pin both ISNs; without them the capture
// starts mid-stream, and the first piece anchors the stream. The sender's
// sequence numbers wrap 1 KiB into the stream.
func capture(stream []byte, syn bool, layout []piece) []flows.TimedPacket {
	const isn, rcvISN = 0xFFFF_FC00, 5000
	var pkts []flows.TimedPacket
	add := func(t flows.Micros, src, dst flows.Endpoint, seq, ack uint32, flags uint8, payload []byte) {
		pkts = append(pkts, flows.TimedPacket{Time: t, Pkt: &packet.Packet{
			IP: packet.IPv4{ID: uint16(len(pkts) + 1), Src: src.Addr, Dst: dst.Addr},
			TCP: packet.TCP{
				SrcPort: src.Port, DstPort: dst.Port,
				Seq: seq, Ack: ack, Flags: flags, Window: 65535,
			},
			Payload: payload,
		}})
	}
	if syn {
		add(0, sndEP, rcvEP, isn, 0, packet.FlagSYN, nil)
		add(1, rcvEP, sndEP, rcvISN, isn+1, packet.FlagSYN|packet.FlagACK, nil)
	}
	for i, p := range layout {
		add(flows.Micros(i+1)*1000, sndEP, rcvEP, isn+1+uint32(p.off), rcvISN+1, packet.FlagACK,
			append([]byte(nil), stream[p.off:p.off+p.n]...))
	}
	return pkts
}

// matchesStream holds ReassembleOpts and ScanKeys to Stream, the online
// reassembler fed the connection's sender packets in capture order: the
// same messages, each with the same wire bytes and the same time. It
// returns the message count.
func matchesStream(t *testing.T, pkts []flows.TimedPacket) int {
	t.Helper()
	c := extractOne(t, pkts)
	want, err := feedStream(t, c.Sender, pkts)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	got, err := ReassembleOpts(c, Options{KeepRaw: true})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(got.Messages) != len(want) {
		t.Fatalf("batch recovered %d messages, stream %d", len(got.Messages), len(want))
	}
	for i, w := range want {
		if g := got.Messages[i]; !bytes.Equal(g.Raw, w.Raw) || g.Time != w.Time {
			t.Fatalf("message %d: batch has %d bytes at %d µs, stream %d bytes at %d µs",
				i, len(g.Raw), g.Time, len(w.Raw), w.Time)
		}
	}
	var s Scanner
	if _, msgs, err := s.ScanKeys(c, 0); err != nil || msgs != len(want) {
		t.Fatalf("scan: %d messages, error %v; stream: %d messages", msgs, err, len(want))
	}
	if wantKS := keysOf(want); !sameKeys(&s.Keys, wantKS) {
		t.Fatalf("scanned key stream %+v, want the stream's %+v", s.Keys, wantKS)
	}
	return len(want)
}

func extractOne(t *testing.T, pkts []flows.TimedPacket) *flows.Connection {
	t.Helper()
	conns := flows.Extract(pkts)
	if len(conns) != 1 {
		t.Fatalf("extracted %d connections", len(conns))
	}
	return conns[0]
}

func TestReassembleInOrder(t *testing.T) {
	stream := bgpStream(t, 20)
	pkts := packetsFor(stream, 700, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) {
		t.Errorf("stream bytes = %d, want %d", res.StreamBytes, len(stream))
	}
	if len(res.Messages) != 22 { // OPEN + KEEPALIVE + 20 updates
		t.Fatalf("messages = %d, want 22", len(res.Messages))
	}
	if _, ok := res.Messages[0].Msg.(*bgp.Open); !ok {
		t.Errorf("first message = %T", res.Messages[0].Msg)
	}
	updates := 0
	for _, m := range res.Messages {
		if _, ok := m.Msg.(*bgp.Update); ok {
			updates++
		}
	}
	if updates != 20 {
		t.Errorf("updates = %d", updates)
	}
	if len(res.MissingRanges) != 0 {
		t.Errorf("missing ranges = %v", res.MissingRanges)
	}
	// Timestamps non-decreasing for in-order arrival.
	for i := 1; i < len(res.Messages); i++ {
		if res.Messages[i].Time < res.Messages[i-1].Time {
			t.Fatalf("message %d time regressed", i)
		}
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Swap two adjacent packets' arrival order (times swapped too).
	if len(pkts) < 4 {
		t.Fatal("not enough packets for the swap")
	}
	pkts[1].Time, pkts[2].Time = pkts[2].Time, pkts[1].Time
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) {
		t.Errorf("stream bytes = %d, want %d", res.StreamBytes, len(stream))
	}
	if len(res.Messages) != 32 {
		t.Errorf("messages = %d, want 32", len(res.Messages))
	}
}

func TestReassembleWithRetransmissions(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Duplicate packet 3 later in time (a retransmission the receiver also
	// saw).
	dup := *pkts[3].Pkt
	pkts = append(pkts, flows.TimedPacket{Time: 900_000, Pkt: &dup})
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) {
		t.Errorf("stream bytes = %d", res.StreamBytes)
	}
	if len(res.Messages) != 32 {
		t.Errorf("messages = %d, want 32", len(res.Messages))
	}
}

func TestReassembleReportsHoles(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Remove a middle packet entirely (sniffer drop, never retransmitted in
	// the capture).
	missingStart := int64(2 * 200)
	pkts = append(pkts[:2], pkts[3:]...)
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != missingStart {
		t.Errorf("contiguous bytes = %d, want %d", res.StreamBytes, missingStart)
	}
	if len(res.MissingRanges) != 1 || res.MissingRanges[0].Start != missingStart {
		t.Errorf("missing = %v", res.MissingRanges)
	}
	// Only messages wholly inside the contiguous prefix decode.
	for _, m := range res.Messages {
		if m.Raw == nil {
			t.Error("nil raw message")
		}
	}
}

func TestReassembleEmptyConnection(t *testing.T) {
	c := &flows.Connection{}
	res, err := Reassemble(c)
	if err != nil || len(res.Messages) != 0 || res.StreamBytes != 0 {
		t.Errorf("empty reassembly: %+v err=%v", res, err)
	}
}

func TestReassembleGarbageStream(t *testing.T) {
	// Payload bytes that are not BGP: framing error reported, no panic.
	junk := make([]byte, 100)
	for i := range junk {
		junk[i] = byte(i)
	}
	pkts := packetsFor(junk, 50, func(i int) flows.Micros { return flows.Micros(i) })
	_, err := Reassemble(extractOne(t, pkts))
	if err == nil {
		t.Error("garbage stream reassembled without error")
	}
}

func TestReassembleLimitedTruncates(t *testing.T) {
	// A byte cap below the stream size: decoding covers only the capped
	// prefix and the excess is reported, not silently dropped.
	stream := bgpStream(t, 20)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) })
	c := extractOne(t, pkts)
	full, err := Reassemble(c)
	if err != nil {
		t.Fatal(err)
	}
	cap := full.StreamBytes / 2
	res, err := ReassembleOpts(c, Options{MaxBytes: cap, KeepRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncatedBytes != full.StreamBytes-cap {
		t.Errorf("TruncatedBytes = %d, want %d", res.TruncatedBytes, full.StreamBytes-cap)
	}
	if len(res.Messages) == 0 || len(res.Messages) >= len(full.Messages) {
		t.Errorf("capped decode recovered %d of %d messages", len(res.Messages), len(full.Messages))
	}
	if !res.LooksLikeBGP {
		t.Error("BGP stream not recognized as BGP")
	}
}

func TestReassembleNonBGPNotFlagged(t *testing.T) {
	// A connection carrying something other than BGP: the framing error is
	// expected, and LooksLikeBGP must stay false so callers can tell
	// "damaged BGP" from "not BGP at all".
	payload := make([]byte, 64) // zeros: no marker, framing fails
	pkts := packetsFor(payload, 64, func(i int) flows.Micros { return flows.Micros(i) })
	res, err := ReassembleOpts(extractOne(t, pkts), Options{KeepRaw: true})
	if err == nil {
		t.Fatal("zero-filled stream framed as BGP")
	}
	if res.LooksLikeBGP {
		t.Error("zero-filled stream flagged as BGP")
	}
}

// longerCopy captures a stream in 200-byte segments, except that the
// segment at 800 never arrives on its own: a 400-byte retransmission at
// 600, captured while the first copy at 600 waits behind the hole at 400,
// is the only carrier of [800, 1000).
func longerCopy(stream []byte) []piece {
	layout := []piece{{0, 200}, {200, 200}, {600, 200}, {600, 400}, {400, 200}}
	return append(layout, pieces(1000, len(stream), 200)...)
}

// midStream captures a bgpStream from its first UPDATE on, in 200-byte
// segments: the OPEN and KEEPALIVE segments predate the capture, and the
// KEEPALIVE's late retransmission carries only bytes from before the
// anchor.
func midStream(stream []byte) []piece {
	const open, keepalive = 29, 19
	return append(pieces(open+keepalive, len(stream), 200), piece{open, keepalive})
}

// upstreamLoss512010 is a simulated session whose sender retransmits
// [5898,7329) as [5898,7358) after an upstream loss, with no other segment
// carrying [7329,7358).
var upstreamLoss512010 = tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Routes: 1500, Seed: 512010}

// TestLinearizeMatchesStreamOnTracegen holds batch reassembly to Stream on
// simulated sessions whose captures retransmit, reorder and leave holes,
// and requires every message of each.
func TestLinearizeMatchesStreamOnTracegen(t *testing.T) {
	scenarios := []tracegen.Scenario{upstreamLoss512010}
	for _, kind := range []tracegen.Kind{
		tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss, tracegen.KindZeroAckBug,
		tracegen.KindSmallWindow, tracegen.KindSlowReceiver,
	} {
		for seed := int64(7000); seed < 7040; seed++ {
			scenarios = append(scenarios, tracegen.Scenario{Kind: kind, Routes: 1500, Seed: seed})
		}
	}
	for _, sc := range scenarios {
		t.Run(fmt.Sprintf("%v/%d", sc.Kind, sc.Seed), func(t *testing.T) {
			if n := matchesStream(t, tracegen.Run(sc).Packets()); n != 377 {
				t.Errorf("%d messages, want 377", n)
			}
		})
	}
}

// TestScanKeysMatchesReassemble holds ScanKeys to ReassembleOpts on clean,
// reordered, retransmitted, holed, capped and non-BGP streams, on a longer
// retransmission at a held offset and on bytes from before a mid-stream
// anchor: the same coverage report, message count and error, and exactly
// the timed NLRI of the parsed UPDATEs. One Scanner serves every case, the
// long ones first, so nothing of an earlier stream may show in a later
// one's result.
func TestScanKeysMatchesReassemble(t *testing.T) {
	stream := bgpStream(t, 30)
	at := func(i int) flows.Micros { return flows.Micros(i) * 1000 }
	swapped := packetsFor(stream, 200, at)
	swapped[1].Time, swapped[2].Time = swapped[2].Time, swapped[1].Time
	retx := packetsFor(stream, 200, at)
	dup := *retx[3].Pkt
	retx = append(retx, flows.TimedPacket{Time: 900_000, Pkt: &dup})
	holed := packetsFor(stream, 200, at)
	holed = append(holed[:2], holed[3:]...)
	junk := make([]byte, 100)
	for i := range junk {
		junk[i] = byte(i)
	}
	cases := []struct {
		name     string
		pkts     []flows.TimedPacket
		maxBytes int64
	}{
		{"upstream-loss-512010", tracegen.Run(upstreamLoss512010).Packets(), 0},
		{"in-order", packetsFor(stream, 700, at), 0},
		{"reordered", swapped, 0},
		{"retransmit", retx, 0},
		{"hole", holed, 0},
		{"capped", packetsFor(stream, 200, at), int64(len(stream) / 2)},
		{"garbage", packetsFor(junk, 50, at), 0},
		{"longer-copy", capture(stream, true, longerCopy(stream)), 0},
		{"pre-anchor", capture(stream, false, midStream(stream)), 0},
	}
	var s Scanner
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := extractOne(t, tc.pkts)
			want, wantErr := ReassembleOpts(c, Options{MaxBytes: tc.maxBytes})
			got, msgs, err := s.ScanKeys(c, tc.maxBytes)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("error %v, want %v", err, wantErr)
			}
			if err == nil && msgs != len(want.Messages) {
				t.Errorf("messages = %d, want %d", msgs, len(want.Messages))
			}
			wantKS := keysOf(want.Messages)
			want.Messages = nil
			if !reflect.DeepEqual(&got, want) {
				t.Errorf("result %+v, want %+v", got, *want)
			}
			if err != nil {
				return
			}
			if !sameKeys(&s.Keys, wantKS) {
				t.Errorf("key stream %+v, want %+v", s.Keys, wantKS)
			}
		})
	}
}

// keysOf is the key stream ScanKeys builds from msgs: each UPDATE that
// announces prefixes, with its time and key range.
func keysOf(msgs []Message) *mct.KeyStream {
	ks := &mct.KeyStream{}
	for _, m := range msgs {
		if u, ok := m.Msg.(*bgp.Update); ok && len(u.NLRI) > 0 {
			start := len(ks.Keys)
			for _, p := range u.NLRI {
				ks.Keys = append(ks.Keys, bgp.PrefixKey(p))
			}
			ks.Updates = append(ks.Updates, mct.KeyUpdate{Time: m.Time, Start: start, End: len(ks.Keys)})
		}
	}
	return ks
}

// sameKeys reports whether two key streams hold the same keys and updates.
func sameKeys(a, b *mct.KeyStream) bool {
	return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Updates, b.Updates)
}
