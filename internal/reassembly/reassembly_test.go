package reassembly

import (
	"net/netip"
	"reflect"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/packet"
)

var (
	sndEP = flows.Endpoint{Addr: netip.MustParseAddr("10.0.0.1"), Port: 179}
	rcvEP = flows.Endpoint{Addr: netip.MustParseAddr("10.0.0.2"), Port: 41000}
)

// bgpStream builds a serialized stream of n updates plus a leading OPEN and
// KEEPALIVE, returning the bytes and the message count.
func bgpStream(t *testing.T, n int) []byte {
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
	res, err := ReassembleLimited(c, cap)
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
	res, err := ReassembleLimited(extractOne(t, pkts), 0)
	if err == nil {
		t.Fatal("zero-filled stream framed as BGP")
	}
	if res.LooksLikeBGP {
		t.Error("zero-filled stream flagged as BGP")
	}
}

// TestScanKeysMatchesReassemble holds ScanKeys to ReassembleOpts on clean,
// reordered, retransmitted, holed, capped and non-BGP streams: the same
// coverage report, message count and error, and exactly the timed NLRI of
// the parsed UPDATEs. The key stream starts non-empty, so the key ranges
// must index the whole buffer, not just what this call appended.
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
		{"in-order", packetsFor(stream, 700, at), 0},
		{"reordered", swapped, 0},
		{"retransmit", retx, 0},
		{"hole", holed, 0},
		{"capped", packetsFor(stream, 200, at), int64(len(stream) / 2)},
		{"garbage", packetsFor(junk, 50, at), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := extractOne(t, tc.pkts)
			want, wantErr := ReassembleOpts(c, Options{MaxBytes: tc.maxBytes})
			ks := &mct.KeyStream{Keys: []uint64{42}}
			got, msgs, err := ScanKeys(c, tc.maxBytes, ks)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("error %v, want %v", err, wantErr)
			}
			if err == nil && msgs != len(want.Messages) {
				t.Errorf("messages = %d, want %d", msgs, len(want.Messages))
			}
			want.Messages = nil
			if !reflect.DeepEqual(&got, want) {
				t.Errorf("result %+v, want %+v", got, *want)
			}
			if err != nil {
				return
			}
			wantKS := &mct.KeyStream{Keys: []uint64{42}}
			for _, m := range reassembledUpdates(t, c, tc.maxBytes) {
				start := len(wantKS.Keys)
				for _, p := range m.NLRI {
					wantKS.Keys = append(wantKS.Keys, bgp.PrefixKey(p))
				}
				wantKS.Updates = append(wantKS.Updates, mct.KeyUpdate{Time: m.Time, Start: start, End: len(wantKS.Keys)})
			}
			if !reflect.DeepEqual(ks, wantKS) {
				t.Errorf("key stream %+v, want %+v", ks, wantKS)
			}
		})
	}
}

// timedUpdate is a parsed UPDATE that announced prefixes, with its time.
type timedUpdate struct {
	Time flows.Micros
	NLRI []bgp.Prefix
}

// reassembledUpdates returns the announcing UPDATEs ReassembleOpts recovers.
func reassembledUpdates(t *testing.T, c *flows.Connection, maxBytes int64) []timedUpdate {
	t.Helper()
	res, err := ReassembleOpts(c, Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	var out []timedUpdate
	for _, m := range res.Messages {
		if u, ok := m.Msg.(*bgp.Update); ok && len(u.NLRI) > 0 {
			out = append(out, timedUpdate{m.Time, u.NLRI})
		}
	}
	return out
}
