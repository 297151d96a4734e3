package flows

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"unsafe"

	"tdat/internal/bytepack"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
)

var (
	senderEP   = Endpoint{Addr: netip.MustParseAddr("10.0.0.1"), Port: 179}
	receiverEP = Endpoint{Addr: netip.MustParseAddr("10.0.0.2"), Port: 41000}
)

// builder assembles a synthetic capture of one connection.
type builder struct {
	pkts []TimedPacket
	ipid uint16
}

func (b *builder) add(t Micros, from, to Endpoint, seq, ack uint32, flags uint8, win uint16, payload int) *packet.Packet {
	b.ipid++
	p := &packet.Packet{
		IP: packet.IPv4{ID: b.ipid, Src: from.Addr, Dst: to.Addr},
		TCP: packet.TCP{
			SrcPort: from.Port, DstPort: to.Port,
			Seq: seq, Ack: ack, Flags: flags, Window: win,
		},
		Payload: make([]byte, payload),
	}
	b.pkts = append(b.pkts, TimedPacket{Time: t, Pkt: p})
	return p
}

// handshake emits SYN / SYNACK / ACK with the given ISNs and RTT pattern for
// a receiver-side sniffer: SYN at t, SYNACK at t+d1, final ACK at
// t+d1+rtt.
func (b *builder) handshake(t Micros, rtt Micros, sISN, rISN uint32, mss uint16) {
	syn := b.add(t, senderEP, receiverEP, sISN, 0, packet.FlagSYN, 65535, 0)
	syn.TCP.SetMSS(mss)
	synack := b.add(t+100, receiverEP, senderEP, rISN, sISN+1, packet.FlagSYN|packet.FlagACK, 65535, 0)
	synack.TCP.SetMSS(mss)
	b.add(t+100+rtt, senderEP, receiverEP, sISN+1, rISN+1, packet.FlagACK, 65535, 0)
}

// extractOpts is Extract with explicit options, also returning the
// demuxer's statistics: the packets are demuxed in time order and the
// connections come back as the demuxer emits them.
func extractOpts(pkts []TimedPacket, opts Options) ([]*Connection, DemuxStats) {
	pkts = slices.Clone(pkts)
	slices.SortStableFunc(pkts, byTime)
	var conns []*Connection
	d := NewDemuxer(opts, func(_ int, c *Connection) { conns = append(conns, c) })
	for _, tp := range pkts {
		d.Add(tp)
	}
	d.Finish()
	return conns, d.Stats()
}

func TestExtractSingleConnectionProfile(t *testing.T) {
	b := &builder{}
	b.handshake(1000, 10_000, 5000, 9000, 1460)
	// Two data segments, acked.
	b.add(20_000, senderEP, receiverEP, 5001, 9001, packet.FlagACK, 65535, 1460)
	b.add(20_100, senderEP, receiverEP, 6461, 9001, packet.FlagACK, 65535, 1000)
	b.add(20_500, receiverEP, senderEP, 9001, 7461, packet.FlagACK, 60000, 0)

	conns := Extract(b.pkts)
	if len(conns) != 1 {
		t.Fatalf("extracted %d connections", len(conns))
	}
	c := conns[0]
	if c.Sender != senderEP || c.Receiver != receiverEP {
		t.Errorf("orientation: sender=%v receiver=%v", c.Sender, c.Receiver)
	}
	if c.Profile.RTT != 10_000 {
		t.Errorf("RTT = %d, want 10000", c.Profile.RTT)
	}
	if c.Profile.MSS != 1460 {
		t.Errorf("MSS = %d", c.Profile.MSS)
	}
	if c.Profile.MaxAdvWindow != 65535 {
		t.Errorf("MaxAdvWindow = %d", c.Profile.MaxAdvWindow)
	}
	if !c.Profile.InitiatorIsSender {
		t.Error("initiator should be the sender")
	}
	if len(c.Data) != 2 {
		t.Fatalf("data events = %d", len(c.Data))
	}
	if c.Data[0].Seq != 0 || c.Data[0].SeqEnd != 1460 {
		t.Errorf("first data offsets = [%d,%d)", c.Data[0].Seq, c.Data[0].SeqEnd)
	}
	if c.Data[1].Seq != 1460 || c.Data[1].SeqEnd != 2460 {
		t.Errorf("second data offsets = [%d,%d)", c.Data[1].Seq, c.Data[1].SeqEnd)
	}
	if len(c.Acks) != 2 { // SYNACK + the data ack (sender-side packets are not ack events)
		t.Fatalf("ack events = %d: %+v", len(c.Acks), c.Acks)
	}
	last := c.Acks[len(c.Acks)-1]
	if last.Ack != 2460 || last.Window != 60000 {
		t.Errorf("last ack = %+v", last)
	}
	if c.Profile.TotalDataBytes != 2460 || c.Profile.TotalDataPackets != 2 {
		t.Errorf("profile totals = %+v", c.Profile)
	}
}

func TestExtractSeparatesConnections(t *testing.T) {
	b := &builder{}
	b.handshake(0, 5_000, 100, 200, 1460)
	other := Endpoint{Addr: netip.MustParseAddr("10.0.0.3"), Port: 179}
	b.add(50, other, receiverEP, 1, 0, packet.FlagSYN, 65535, 0)
	b.add(60, receiverEP, other, 1, 2, packet.FlagSYN|packet.FlagACK, 65535, 0)
	conns := Extract(b.pkts)
	if len(conns) != 2 {
		t.Fatalf("extracted %d connections, want 2", len(conns))
	}
}

func TestRetransmissionDownstreamLoss(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	// Original captured at 20ms, retransmission of same bytes at 250ms.
	b.add(20_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	b.add(250_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	c := Extract(b.pkts)[0]
	if c.Data[0].Kind != DataNew || c.Data[1].Kind != DataRetransmit {
		t.Errorf("kinds = %v, %v", c.Data[0].Kind, c.Data[1].Kind)
	}
	if c.Profile.RetransmitCount != 1 {
		t.Errorf("RetransmitCount = %d", c.Profile.RetransmitCount)
	}
	if c.DownstreamLoss.Empty() {
		t.Fatal("no downstream loss recorded")
	}
	r := c.DownstreamLoss.At(0)
	if r.Start != 20_000 || r.End < 250_000 {
		t.Errorf("downstream recovery range = %v", r)
	}
	if !c.UpstreamLoss.Empty() {
		t.Errorf("unexpected upstream loss %v", c.UpstreamLoss)
	}
}

func TestGapFillUpstreamLoss(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	// Segment 2 arrives (opening a gap for segment 1), repair much later
	// with a HIGHER IP ID (true retransmission).
	b.add(20_000, senderEP, receiverEP, 1461, 1, packet.FlagACK, 65535, 1460)
	b.add(250_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	c := Extract(b.pkts)[0]
	if c.Data[1].Kind != DataGapFill {
		t.Errorf("repair kind = %v, want gap-fill", c.Data[1].Kind)
	}
	if c.UpstreamLoss.Empty() {
		t.Fatal("no upstream loss recorded")
	}
	r := c.UpstreamLoss.At(0)
	if r.Start != 20_000 || r.End < 250_000 {
		t.Errorf("upstream recovery range = %v", r)
	}
	if !c.DownstreamLoss.Empty() {
		t.Errorf("unexpected downstream loss %v", c.DownstreamLoss)
	}
}

func TestReorderingFilteredByIPID(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	// Build the late packet FIRST so it carries the lower IP ID, then swap
	// arrival order: seg1 (low ID) arrives after seg2 (high ID) — classic
	// reordering.
	seg1 := b.add(20_500, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	seg2 := b.add(20_000, senderEP, receiverEP, 1461, 1, packet.FlagACK, 65535, 1460)
	_ = seg1
	_ = seg2
	c := Extract(b.pkts)[0]
	var fill *DataEvent
	for i := range c.Data {
		if c.Data[i].Seq == 0 {
			fill = &c.Data[i]
		}
	}
	if fill == nil || fill.Kind != DataReordered {
		t.Errorf("reordered packet classified as %v", fill.Kind)
	}
	if !c.UpstreamLoss.Empty() {
		t.Errorf("reordering should not create loss ranges: %v", c.UpstreamLoss)
	}
	if c.Profile.ReorderCount != 1 {
		t.Errorf("ReorderCount = %d", c.Profile.ReorderCount)
	}
}

func TestDisableReorderFilterAblation(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	b.add(20_500, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	b.add(20_000, senderEP, receiverEP, 1461, 1, packet.FlagACK, 65535, 1460)
	conns, _ := extractOpts(b.pkts, Options{DisableReorderFilter: true})
	if conns[0].UpstreamLoss.Empty() {
		t.Error("with the filter disabled, reordering must count as upstream loss")
	}
}

// zeroIPIDGap captures a segment that opens a one-segment gap at 20 ms and
// the gap's fill lag µs later, with every IP ID 0 (as stacks that send DF
// packets without IDs do), and returns the connection and the fill.
func zeroIPIDGap(t *testing.T, lag Micros) (*Connection, *DataEvent) {
	t.Helper()
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	b.add(20_000, senderEP, receiverEP, 1461, 1, packet.FlagACK, 65535, 1460)
	b.add(20_000+lag, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	for _, tp := range b.pkts {
		tp.Pkt.IP.ID = 0
	}
	c := Extract(b.pkts)[0]
	for i := range c.Data {
		if c.Data[i].Seq == 0 {
			return c, &c.Data[i]
		}
	}
	t.Fatal("no gap fill captured")
	return nil, nil
}

// TestZeroIPIDReorderingByArrivalLag: when IP IDs carry no order, a fill
// 500 µs behind its gap is reordering and charges no loss, while a repair
// one RTO late is a gap fill with an upstream loss.
func TestZeroIPIDReorderingByArrivalLag(t *testing.T) {
	c, fill := zeroIPIDGap(t, 500)
	if fill.Kind != DataReordered || !c.UpstreamLoss.Empty() {
		t.Errorf("500 µs lag: kind %v, upstream loss %v; want reordered and none", fill.Kind, c.UpstreamLoss)
	}
	c, fill = zeroIPIDGap(t, 200_000)
	if fill.Kind != DataGapFill || c.UpstreamLoss.Empty() {
		t.Errorf("one-RTO lag: kind %v, upstream loss %v; want gap-fill and a loss", fill.Kind, c.UpstreamLoss)
	}
}

// TestReorderWindowBoundary pins the 2 ms reorder window: with IP IDs that
// carry no order, a fill exactly 2,000 µs behind its gap is reordered and
// one 2,001 µs behind is not. The threshold is spelled as a literal so
// moving the constant by one unit fails the test.
func TestReorderWindowBoundary(t *testing.T) {
	for _, tc := range []struct {
		lag  Micros
		want DataKind
	}{{2_000, DataReordered}, {2_001, DataGapFill}} {
		if _, fill := zeroIPIDGap(t, tc.lag); fill.Kind != tc.want {
			t.Errorf("lag %d µs: kind %v, want %v", tc.lag, fill.Kind, tc.want)
		}
	}
}

func TestDupAckDetection(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	b.add(20_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	b.add(21_000, receiverEP, senderEP, 1, 1461, packet.FlagACK, 64000, 0)
	b.add(22_000, receiverEP, senderEP, 1, 1461, packet.FlagACK, 64000, 0) // dup
	b.add(23_000, receiverEP, senderEP, 1, 1461, packet.FlagACK, 60000, 0) // window update, not dup
	c := Extract(b.pkts)[0]
	var dups int
	for _, a := range c.Acks {
		if a.Dup {
			dups++
		}
	}
	if dups != 1 {
		t.Errorf("dup acks = %d, want 1", dups)
	}
}

func TestOrientationByVolumeWithoutSyn(t *testing.T) {
	// Mid-stream capture, no handshake: the payload-heavy side is Sender.
	b := &builder{}
	b.add(0, receiverEP, senderEP, 900, 5001, packet.FlagACK, 65535, 0)
	b.add(100, senderEP, receiverEP, 5001, 901, packet.FlagACK, 65535, 1000)
	b.add(200, senderEP, receiverEP, 6001, 901, packet.FlagACK, 65535, 1000)
	c := Extract(b.pkts)[0]
	if c.Sender != senderEP {
		t.Errorf("sender = %v", c.Sender)
	}
	if len(c.Data) != 2 {
		t.Errorf("data events = %d", len(c.Data))
	}
	// Relative offsets anchored at first data packet.
	if c.Data[0].Seq != 0 {
		t.Errorf("first data seq = %d", c.Data[0].Seq)
	}
	if c.Profile.RTT == 0 {
		// RTT fallback may or may not produce a sample here; just ensure no
		// panic. Nothing to assert strictly.
		t.Log("no RTT estimate for handshake-less capture (acceptable)")
	}
}

func TestMSSFallbackFromSegments(t *testing.T) {
	b := &builder{}
	// No SYN options: MSS inferred from the largest segment.
	b.add(0, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 536)
	b.add(100, senderEP, receiverEP, 537, 1, packet.FlagACK, 65535, 512)
	c := Extract(b.pkts)[0]
	if c.Profile.MSS != 536 {
		t.Errorf("MSS = %d, want 536", c.Profile.MSS)
	}
}

func TestConsecutiveRetransmissionsMergeRanges(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	b.add(20_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	// Three RTO-spaced retransmissions of the same segment.
	b.add(220_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	b.add(620_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	b.add(1_420_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	c := Extract(b.pkts)[0]
	if c.Profile.RetransmitCount != 3 {
		t.Errorf("retransmits = %d", c.Profile.RetransmitCount)
	}
	if c.DownstreamLoss.Len() != 1 {
		t.Fatalf("expected one merged recovery range, got %v", c.DownstreamLoss)
	}
	r := c.DownstreamLoss.At(0)
	if r.Start != 20_000 || r.End < 1_420_000 {
		t.Errorf("merged range = %v", r)
	}
}

func TestSpanAndEndpointString(t *testing.T) {
	b := &builder{}
	b.handshake(5_000, 10_000, 0, 0, 1460)
	c := Extract(b.pkts)[0]
	sp := c.Span()
	if sp.Start != 5_000 || sp.End <= sp.Start {
		t.Errorf("span = %v", sp)
	}
	if senderEP.String() != "10.0.0.1:179" {
		t.Errorf("endpoint string = %q", senderEP.String())
	}
}

func TestDataKindString(t *testing.T) {
	for k, want := range map[DataKind]string{
		DataNew: "new", DataRetransmit: "retransmit", DataGapFill: "gap-fill",
		DataReordered: "reordered", DataKind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("DataKind(%d) = %q", k, k.String())
		}
	}
}

func TestPortReuseSplitsConnections(t *testing.T) {
	// The ISP_A-1 reset storm: a session dies by RST and the router redials
	// with the SAME 4-tuple. A fresh SYN (new ISN) must start a second
	// connection instead of corrupting the first one's sequence space.
	b := &builder{}
	b.handshake(0, 10_000, 1000, 2000, 1460)
	b.add(20_000, senderEP, receiverEP, 1001, 2001, packet.FlagACK, 65535, 1460)
	b.add(30_000, receiverEP, senderEP, 2001, 2461, packet.FlagACK, 65535, 0)
	b.add(40_000, senderEP, receiverEP, 2461, 2001, packet.FlagRST|packet.FlagACK, 0, 0)
	// Redial: same tuple, brand-new ISNs.
	b.handshake(1_000_000, 10_000, 777000, 888000, 1460)
	b.add(1_020_000, senderEP, receiverEP, 777001, 888001, packet.FlagACK, 65535, 1460)
	b.add(1_030_000, receiverEP, senderEP, 888001, 778461, packet.FlagACK, 65535, 0)

	conns := Extract(b.pkts)
	if len(conns) != 2 {
		t.Fatalf("extracted %d connections, want 2 (port reuse split)", len(conns))
	}
	for i, c := range conns {
		if c.Profile.RTT != 10_000 {
			t.Errorf("conn %d RTT = %d", i, c.Profile.RTT)
		}
		if len(c.Data) != 1 || c.Data[0].Seq != 0 {
			t.Errorf("conn %d data = %+v", i, c.Data)
		}
		if c.Profile.RetransmitCount+c.Profile.GapFillCount != 0 {
			t.Errorf("conn %d phantom loss labels: %+v", i, c.Profile)
		}
	}
	if conns[0].Profile.Start >= conns[1].Profile.Start {
		t.Error("connections out of order")
	}
}

func TestRetransmittedSYNDoesNotSplit(t *testing.T) {
	// A SYN retransmission (same ISN) is one connection, not two.
	b := &builder{}
	b.add(0, senderEP, receiverEP, 1000, 0, packet.FlagSYN, 65535, 0)
	b.add(1_000_000, senderEP, receiverEP, 1000, 0, packet.FlagSYN, 65535, 0) // retx
	b.add(1_000_100, receiverEP, senderEP, 2000, 1001, packet.FlagSYN|packet.FlagACK, 65535, 0)
	b.add(1_010_000, senderEP, receiverEP, 1001, 2001, packet.FlagACK, 65535, 0)
	b.add(1_020_000, senderEP, receiverEP, 1001, 2001, packet.FlagACK, 65535, 500)
	conns := Extract(b.pkts)
	if len(conns) != 1 {
		t.Fatalf("extracted %d connections, want 1 (SYN retransmission)", len(conns))
	}
}

func TestPortReuseAfterTruncatedConnection(t *testing.T) {
	// Tuple reuse after a TRUNCATED predecessor: the capture caught only the
	// tail of the first incarnation — pure ACKs, no SYN, no payload, and no
	// FIN/RST boundary (the sniffer started late and the teardown was
	// dropped). The redial's fresh SYN must still start a new connection:
	// the old incarnation was demonstrably past initiation (non-SYN traffic
	// on the tuple), so a new SYN can only be a reused port pair.
	b := &builder{}
	b.add(0, senderEP, receiverEP, 50_000, 90_000, packet.FlagACK, 65535, 0)
	b.add(10_000, receiverEP, senderEP, 90_000, 50_000, packet.FlagACK, 65535, 0)
	// Redial with fresh ISNs, full handshake, one data segment.
	b.handshake(1_000_000, 10_000, 7000, 9000, 1460)
	b.add(1_020_000, senderEP, receiverEP, 7001, 9001, packet.FlagACK, 65535, 1460)
	b.add(1_030_000, receiverEP, senderEP, 9001, 8461, packet.FlagACK, 65535, 0)

	conns := Extract(b.pkts)
	if len(conns) != 2 {
		t.Fatalf("extracted %d connections, want 2 (reuse after truncated predecessor)", len(conns))
	}
	// The second incarnation must anchor at its own ISN: exactly one clean
	// data segment at stream offset 0, not a wild offset against the
	// truncated predecessor's inferred ISN.
	c := conns[1]
	if len(c.Data) != 1 || c.Data[0].Seq != 0 || c.Data[0].Len != 1460 {
		t.Errorf("redial data events = %+v", c.Data)
	}
	if c.Profile.RetransmitCount+c.Profile.GapFillCount != 0 {
		t.Errorf("redial has phantom loss labels: %+v", c.Profile)
	}
}

func TestSimultaneousOpenStillMerges(t *testing.T) {
	// Two SYNs (one per direction) are a simultaneous open, not tuple
	// reuse: the established flag must not split a connection whose second
	// captured packet is the peer's SYN.
	b := &builder{}
	b.add(0, senderEP, receiverEP, 1000, 0, packet.FlagSYN, 65535, 0)
	b.add(100, receiverEP, senderEP, 2000, 1001, packet.FlagSYN|packet.FlagACK, 65535, 0)
	b.add(10_000, senderEP, receiverEP, 1001, 2001, packet.FlagACK, 65535, 900)
	if conns := Extract(b.pkts); len(conns) != 1 {
		t.Fatalf("extracted %d connections, want 1 (simultaneous open)", len(conns))
	}
}

func TestMaxTrackedEvictsOldest(t *testing.T) {
	// A flood of concurrent never-ending connections on distinct ports:
	// with MaxTracked, the demuxer force-completes the oldest open
	// connection instead of growing without bound, and still emits every
	// connection exactly once.
	b := &builder{}
	for i := 0; i < 6; i++ {
		ep := Endpoint{Addr: senderEP.Addr, Port: uint16(10_000 + i)}
		b.add(Micros(i)*1_000, ep, receiverEP, 1000, 0, packet.FlagSYN, 65535, 0)
		b.add(Micros(i)*1_000+100, ep, receiverEP, 1001, 1, packet.FlagACK, 65535, 200)
	}
	conns, stats := extractOpts(b.pkts, Options{MaxTracked: 2})
	if len(conns) != 6 {
		t.Fatalf("extracted %d connections, want 6", len(conns))
	}
	if stats.Evicted < 4 {
		t.Errorf("Evicted = %d, want >= 4 (cap 2, 6 concurrent)", stats.Evicted)
	}
}

func TestEvictedConnectionResumesAsPartial(t *testing.T) {
	// Packets arriving for a tuple AFTER its connection was evicted must
	// open a fresh partial connection (and be counted as resumed), not be
	// appended to the already-emitted one.
	var emitted []*Connection
	d := NewDemuxer(Options{MaxTracked: 1}, func(_ int, c *Connection) { emitted = append(emitted, c) })
	b := &builder{}
	b.add(0, senderEP, receiverEP, 1000, 0, packet.FlagSYN, 65535, 0)
	b.add(100, senderEP, receiverEP, 1001, 1, packet.FlagACK, 65535, 300)
	// A second tuple forces the first out of the tracker…
	other := Endpoint{Addr: senderEP.Addr, Port: 10_500}
	b.add(200, other, receiverEP, 5000, 0, packet.FlagSYN, 65535, 0)
	// …and the first tuple keeps talking after its eviction.
	b.add(300, senderEP, receiverEP, 1301, 1, packet.FlagACK, 65535, 300)
	for _, tp := range b.pkts {
		d.Add(tp)
	}
	total := d.Finish()
	if total != 3 {
		t.Fatalf("demuxer created %d connections, want 3 (original, other, resumed partial)", total)
	}
	// Two evictions: the original made way for "other", then the resumed
	// partial made way for itself by evicting "other".
	if s := d.Stats(); s.Resumed != 1 || s.Evicted != 2 {
		t.Errorf("stats = %+v, want Resumed=1 Evicted=2", s)
	}
	if len(emitted) != 3 {
		t.Errorf("emitted %d connections, want 3", len(emitted))
	}
}

func TestTimestampRegressionCounted(t *testing.T) {
	// A stepped sniffer clock: packet time going backwards within a
	// connection is tolerated (analysis re-sorts) but tallied.
	d := NewDemuxer(Options{}, func(int, *Connection) {})
	b := &builder{}
	b.add(1_000_000, senderEP, receiverEP, 1000, 0, packet.FlagSYN, 65535, 0)
	b.add(500_000, senderEP, receiverEP, 1001, 1, packet.FlagACK, 65535, 100) // clock stepped back
	b.add(600_000, senderEP, receiverEP, 1101, 1, packet.FlagACK, 65535, 100)
	for _, tp := range b.pkts {
		d.Add(tp)
	}
	d.Finish()
	if s := d.Stats(); s.TimestampRegressions != 1 {
		t.Errorf("stats = %+v, want exactly one timestamp regression", s)
	}
}

func TestDisorderedConnectionResorted(t *testing.T) {
	// A data packet timestamped before its predecessor is counted as one
	// regression, and the connection's packets are re-sorted by time before
	// analysis.
	var got *Connection
	d := NewDemuxer(Options{}, func(_ int, c *Connection) { got = c })
	b := &builder{}
	b.handshake(1_000_000, 20_000, 1000, 5000, 1460)
	b.add(1_200_000, senderEP, receiverEP, 1001, 5001, packet.FlagACK, 65535, 100)
	b.add(1_100_000, senderEP, receiverEP, 1101, 5001, packet.FlagACK, 65535, 100) // regresses
	for _, tp := range b.pkts {
		d.Add(tp)
	}
	d.Finish()
	if s := d.Stats(); s.TimestampRegressions != 1 {
		t.Errorf("TimestampRegressions = %d, want 1", s.TimestampRegressions)
	}
	if got == nil {
		t.Fatal("connection not completed")
	}
	if len(got.Data) != 2 {
		t.Fatalf("got %d data events, want 2", len(got.Data))
	}
	for i := 1; i < len(got.Data); i++ {
		if got.Data[i].Time < got.Data[i-1].Time {
			t.Fatalf("data events not time-sorted at %d", i)
		}
	}
}

// TestPayloadsShareBlocks checks the ownership contract of the demuxer's
// payload copies on two interleaved connections whose payloads share a
// block: every Payload is capped at its length, appending to one leaves the
// other connection's bytes as they were, and the caller may overwrite its
// packet buffer as soon as Add returns.
func TestPayloadsShareBlocks(t *testing.T) {
	other := Endpoint{Addr: netip.MustParseAddr("10.0.0.3"), Port: 179}
	b := &builder{}
	b.handshake(0, 5_000, 1000, 9000, 1460)
	b.add(50, other, receiverEP, 3000, 0, packet.FlagSYN, 65535, 0)
	b.add(60, receiverEP, other, 7000, 3001, packet.FlagSYN|packet.FlagACK, 65535, 0)
	b.add(70, other, receiverEP, 3001, 7001, packet.FlagACK, 65535, 0)
	for i := 0; i < 8; i++ {
		at := Micros(10_000 + 100*i)
		b.add(at, senderEP, receiverEP, uint32(1001+100*i), 9001, packet.FlagACK, 65535, 100)
		b.add(at+50, other, receiverEP, uint32(3001+80*i), 7001, packet.FlagACK, 65535, 80)
	}
	// Each payload byte names its connection and its packet.
	for i, tp := range b.pkts {
		for j := range tp.Pkt.Payload {
			tp.Pkt.Payload[j] = byte(i)
		}
	}

	var conns []*Connection
	d := NewDemuxer(Options{}, func(_ int, c *Connection) { conns = append(conns, c) })
	var reused packet.Packet
	buf := make([]byte, 1500)
	for _, tp := range b.pkts {
		reused = *tp.Pkt
		reused.Payload = buf[:copy(buf, tp.Pkt.Payload)]
		d.Add(TimedPacket{Time: tp.Time, Pkt: &reused})
		for i := range buf {
			buf[i] = 0xEE // the caller reuses its buffer
		}
	}
	d.Finish()
	if len(conns) != 2 || len(conns[0].Data) != 8 || len(conns[1].Data) != 8 {
		t.Fatalf("got %d connections, want 2 with 8 data events each", len(conns))
	}

	want := func(c *Connection, i int) []byte {
		n, first := 100, 6 // packets 0–5 are the two handshakes
		if c.Sender == other {
			n, first = 80, 7
		}
		return bytes.Repeat([]byte{byte(first + 2*i)}, n)
	}
	a, o := conns[0], conns[1]
	if a.Sender != senderEP {
		a, o = o, a
	}
	// The first payload of one connection is followed in its block by the
	// first payload of the other.
	if unsafe.Add(unsafe.Pointer(&a.Data[0].Payload[0]), len(a.Data[0].Payload)) != unsafe.Pointer(&o.Data[0].Payload[0]) {
		t.Fatal("interleaved connections' payloads are not adjacent in one block")
	}
	for _, c := range []*Connection{a, o} {
		for i, ev := range c.Data {
			if cap(ev.Payload) != len(ev.Payload) {
				t.Errorf("%v payload %d: cap %d, len %d", c.Sender, i, cap(ev.Payload), len(ev.Payload))
			}
			_ = append(ev.Payload, 0xAA, 0xAA, 0xAA, 0xAA)
		}
	}
	for _, c := range []*Connection{a, o} {
		for i, ev := range c.Data {
			if w := want(c, i); !bytes.Equal(ev.Payload, w) {
				t.Errorf("%v payload %d = %x, want %x", c.Sender, i, ev.Payload, w)
			}
		}
	}
}

// TestUsePackerRefillsBlocks checks the packer hand-off: a Demuxer given a
// Packer copies payloads into that Packer's blocks, so once it is Reset the
// next capture's payloads land where the last capture's did.
func TestUsePackerRefillsBlocks(t *testing.T) {
	b := &builder{}
	b.handshake(0, 5_000, 1000, 9000, 1460)
	for i := 0; i < 4; i++ {
		b.add(Micros(10_000+100*i), senderEP, receiverEP, uint32(1001+100*i), 9001, packet.FlagACK, 65535, 100)
	}
	var p bytepack.Packer
	demux := func() []DataEvent {
		var c *Connection
		d := NewDemuxer(Options{}, func(_ int, got *Connection) { c = got })
		d.UsePacker(&p)
		for _, tp := range b.pkts {
			d.Add(tp)
		}
		d.Finish()
		return c.Data
	}
	first := demux()
	p.Reset()
	second := demux()
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("data events = %d and %d, want 4", len(first), len(second))
	}
	for i := range first {
		if unsafe.SliceData(first[i].Payload) != unsafe.SliceData(second[i].Payload) {
			t.Errorf("payload %d of the second capture is not where the first capture's was", i)
		}
	}
}

// TestFromPcapMatchesExtract checks FromPcap against Extract on the same
// packets: records written out of time order, with an undecodable one
// among them, give the connection Extract gives, one skipped record, and
// payloads that stay intact after the records' buffers are overwritten.
func TestFromPcapMatchesExtract(t *testing.T) {
	b := &builder{}
	b.handshake(0, 10_000, 0, 0, 1460)
	b.add(20_000, senderEP, receiverEP, 1, 1, packet.FlagACK, 65535, 1460)
	b.add(20_100, senderEP, receiverEP, 1461, 1, packet.FlagACK, 65535, 900)
	b.add(30_000, receiverEP, senderEP, 1, 2361, packet.FlagACK, 65535, 0)
	for i, tp := range b.pkts {
		for j := range tp.Pkt.Payload {
			tp.Pkt.Payload[j] = byte(i + j)
		}
	}
	var recs []pcapio.Record
	for _, tp := range b.pkts {
		frame, err := tp.Pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, pcapio.Record{TimeMicros: tp.Time, Data: frame})
	}
	recs[3], recs[4] = recs[4], recs[3]
	recs = append(recs, pcapio.Record{TimeMicros: 40_000, Data: []byte{0xde, 0xad}})

	got, skipped := FromPcap(recs)
	for _, r := range recs {
		for i := range r.Data {
			r.Data[i] = 0xEE
		}
	}
	want := Extract(b.pkts)
	if skipped != 1 || len(got) != 1 || len(want) != 1 {
		t.Fatalf("FromPcap: %d connections, %d skipped; Extract: %d connections", len(got), skipped, len(want))
	}
	if got[0].Profile != want[0].Profile {
		t.Errorf("profile %+v, want %+v", got[0].Profile, want[0].Profile)
	}
	if len(got[0].Data) != len(want[0].Data) {
		t.Fatalf("%d data events, want %d", len(got[0].Data), len(want[0].Data))
	}
	for i := range want[0].Data {
		g, w := got[0].Data[i], want[0].Data[i]
		if g.Time != w.Time || g.Seq != w.Seq || g.Kind != w.Kind || !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("data event %d: %+v, want %+v", i, g, w)
		}
	}
}
