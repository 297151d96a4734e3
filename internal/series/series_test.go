package series

import (
	"testing"

	"tdat/internal/flows"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
	"tdat/internal/traceutil"
)

const mss = 1460

// gen builds a catalog with the shift disabled (hand-crafted traces already
// express sender-side timing) unless a config is supplied.
func gen(t *testing.T, b *traceutil.Builder, cfgs ...Config) *Catalog {
	t.Helper()
	cfg := Config{DisableShift: true}
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	return Generate(b.Extract(), cfg)
}

func TestCatalogHas34Series(t *testing.T) {
	if len(All) != 34 {
		t.Fatalf("catalog lists %d series, the paper's analyzer has 34", len(All))
	}
	seen := map[Name]bool{}
	for _, n := range All {
		if seen[n] {
			t.Errorf("duplicate series name %q", n)
		}
		seen[n] = true
	}
	// Every listed series must be materialized (possibly empty) after
	// generation.
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.SteadyTransfer(20_000, 10_000, 3, 2, 65535)
	cat := gen(t, b)
	for _, n := range All {
		if cat.Get(n) == nil {
			t.Errorf("series %q is nil", n)
		}
	}
	// Generate sizes its map for All: it must store those series only.
	if len(cat.sets) != len(All) {
		t.Errorf("catalog stores %d series, want the %d of All", len(cat.sets), len(All))
	}
	if cat.Get(Name("NoSuchSeries")).Len() != 0 {
		t.Error("unknown series should be empty")
	}
}

func TestTransmissionAndIdle(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// Two bursts separated by a 300 ms silence.
	b.Data(20_000, 0, mss)
	b.Data(20_100, mss, mss)
	b.Ack(30_000, 2*mss, 65535)
	b.Data(330_000, 2*mss, mss)
	b.Ack(340_000, 3*mss, 65535)
	cat := gen(t, b)

	trans := cat.Get(Transmission)
	if trans.Empty() {
		t.Fatal("no transmission series")
	}
	idle := cat.Get(Idle)
	if idle.Len() != 1 {
		t.Fatalf("idle = %v, want one gap", idle)
	}
	g := idle.At(0)
	if g.Len() < 250_000 {
		t.Errorf("idle gap = %v, want ≈310ms", g)
	}
}

func TestSendAppLimitedDetectsPacingGaps(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// Sender sends one segment, gets acked promptly, then waits ~200 ms
	// before the next — four times (timer-paced application).
	t0 := traceutil.Micros(20_000)
	off := int64(0)
	for i := 0; i < 4; i++ {
		b.Data(t0, off, mss)
		off += mss
		b.Ack(t0+10_000, off, 65535)
		t0 += 200_000
	}
	cat := gen(t, b)
	app := cat.Get(SendAppLimited)
	// Three pacing gaps plus the pre-first-data (OPEN processing) idle —
	// which the paper also charges to the sender application.
	if app.Len() != 4 {
		t.Fatalf("app-limited ranges = %v, want 4", app)
	}
	for _, r := range app.Ranges()[1:] {
		if r.Len() < 150_000 || r.Len() > 210_000 {
			t.Errorf("gap %v outside the ≈190ms expectation", r)
		}
	}
}

func TestZeroWindowSeries(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss)
	b.Ack(30_000, mss, 0)      // window slams shut
	b.Ack(530_000, mss, 4*mss) // reopens 500 ms later
	b.Data(531_000, mss, mss)  // transfer continues
	b.Ack(541_000, 2*mss, 65535)
	cat := gen(t, b)

	zero := cat.Get(ZeroAdvWindow)
	if zero.Size() < 490_000 {
		t.Errorf("zero-window size = %d, want ≈500ms", zero.Size())
	}
	if cat.Get(SmallAdvWindow).Size() < zero.Size() {
		t.Error("small window must include zero window")
	}
	zb := cat.Get(ZeroAdvBndOut)
	if zb.Size() < 490_000 {
		t.Errorf("ZeroAdvBndOut size = %d", zb.Size())
	}
	// The zero-window stall must NOT count as sender-app-limited.
	app := cat.Get(SendAppLimited)
	if app.Intersect(zero).Size() > 1_000 {
		t.Errorf("app-limited overlaps zero window: %v", app.Intersect(zero))
	}
}

func TestAdvBoundedFlights(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// Window is 4 MSS; sender fills it each round and continues the moment
	// the ACK arrives: receiver-window bounded.
	win := uint16(4 * mss)
	off := int64(0)
	t0 := traceutil.Micros(20_000)
	for f := 0; f < 5; f++ {
		for p := 0; p < 4; p++ {
			b.Data(t0+traceutil.Micros(p)*100, off, mss)
			off += mss
		}
		b.Ack(t0+10_000, off, win)
		t0 += 10_000
	}
	cat := gen(t, b)
	if len(cat.Flights) < 4 {
		t.Fatalf("flights = %d", len(cat.Flights))
	}
	bounded := 0
	for _, f := range cat.Flights {
		if f.AdvBounded {
			bounded++
		}
	}
	if bounded < 4 {
		t.Errorf("adv-bounded flights = %d of %d", bounded, len(cat.Flights))
	}
	if cat.Get(AdvBndOut).Empty() {
		t.Error("AdvBndOut series empty")
	}
	// Window 4·MSS is neither small (<3·MSS) nor near 65535: mid bucket.
	if !cat.Get(LargeAdvBndOut).Empty() {
		t.Errorf("LargeAdvBndOut = %v, want empty", cat.Get(LargeAdvBndOut))
	}
}

func TestCwndBoundedFlights(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// Huge advertised window (65535) but sender only has 2 MSS in flight,
	// sending the next flight immediately on each ACK: cwnd-bounded.
	off := int64(0)
	t0 := traceutil.Micros(20_000)
	for f := 0; f < 6; f++ {
		b.Data(t0, off, mss)
		b.Data(t0+100, off+mss, mss)
		off += 2 * mss
		b.Ack(t0+10_000, off, 65535)
		t0 += 10_100 // next flight 100 µs after the ack: ACK-clocked
	}
	cat := gen(t, b)
	cwnd := 0
	for _, f := range cat.Flights {
		if f.CwndBounded {
			cwnd++
		}
	}
	if cwnd < 4 {
		t.Errorf("cwnd-bounded flights = %d (flights %d)", cwnd, len(cat.Flights))
	}
	if cat.Get(CwndBndOut).Empty() {
		t.Error("CwndBndOut series empty")
	}
	if !cat.Get(AdvBndOut).Empty() {
		t.Errorf("AdvBndOut should be empty for a 64k window: %v", cat.Get(AdvBndOut))
	}
}

func TestLossSeriesInterpretationAtReceiver(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// Downstream loss: same bytes captured twice.
	b.Data(20_000, 0, mss)
	b.Data(250_000, 0, mss)
	b.Ack(260_000, mss, 65535)
	// Upstream loss: gap filled much later.
	b.Data(270_000, 2*mss, mss)
	b.Data(600_000, mss, mss)
	b.Ack(610_000, 3*mss, 65535)
	cat := gen(t, b)

	if cat.Get(RecvLocalLoss).Empty() {
		t.Error("receiver-local loss empty")
	}
	if !cat.Get(RecvLocalLoss).Equal(cat.Get(DownstreamLoss)) {
		t.Error("RecvLocalLoss must mirror DownstreamLoss at a receiver-side sniffer")
	}
	if !cat.Get(NetworkLoss).Equal(cat.Get(UpstreamLoss)) {
		t.Error("NetworkLoss must mirror UpstreamLoss at a receiver-side sniffer")
	}
	if !cat.Get(SendLocalLoss).Empty() {
		t.Error("SendLocalLoss must be empty at a receiver-side sniffer")
	}
	lr := cat.Get(LossRecovery)
	if !lr.Equal(cat.Get(UpstreamLoss).Union(cat.Get(DownstreamLoss))) {
		t.Error("LossRecovery must be the union of both loss series")
	}
}

func TestLossInterpretationAtSender(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, mss, mss) // opens a gap
	b.Data(400_000, 0, mss)  // fills it (upstream loss)
	b.Ack(410_000, 2*mss, 65535)
	cat := gen(t, b, Config{DisableShift: true, Sniffer: AtSender})
	if cat.Get(SendLocalLoss).Empty() {
		t.Error("sender-side sniffer: upstream loss is sender-local")
	}
	if !cat.Get(RecvLocalLoss).Empty() {
		t.Error("sender-side sniffer: no receiver-local attribution")
	}
}

func TestZeroAckBugSeries(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss)
	b.Ack(30_000, mss, 0) // zero window begins
	// While the window is still closed, an out-of-order arrival shows bytes
	// were lost upstream (the discarded probe bug signature).
	b.Data(100_000, 2*mss, mss)
	b.Data(700_000, mss, mss) // repair
	b.Ack(710_000, 3*mss, 0)
	b.Ack(900_000, 3*mss, 65535)
	cat := gen(t, b)
	if cat.Get(ZeroAckBug).Empty() {
		t.Errorf("ZeroAckBug empty; zero=%v uploss=%v",
			cat.Get(ZeroAdvBndOut), cat.Get(UpstreamLoss))
	}
}

func TestKeepaliveOnlySeries(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss) // real data
	b.Ack(30_000, mss, 65535)
	// Keepalive exchange: three 19-byte messages a minute apart.
	off := int64(mss)
	for i := 0; i < 3; i++ {
		b.Data(1_000_000+traceutil.Micros(i)*60_000_000, off, 19)
		off += 19
		b.Ack(1_010_000+traceutil.Micros(i)*60_000_000, off, 65535)
	}
	cat := gen(t, b)
	ka := cat.Get(KeepaliveOnly)
	if ka.Len() != 1 {
		t.Fatalf("keepalive-only = %v", ka)
	}
	if ka.At(0).Len() < 100_000_000 {
		t.Errorf("keepalive period = %v, want ≈120s", ka.At(0))
	}
}

func TestBandwidthLimitedSeries(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// 40 MSS packets back-to-back at 500 µs spacing (bottleneck-clocked),
	// spanning 20 ms ≥ RTT.
	for i := 0; i < 40; i++ {
		b.Data(20_000+traceutil.Micros(i)*500, int64(i)*mss, mss)
	}
	b.Ack(45_000, 40*mss, 65535)
	cat := gen(t, b)
	if cat.Get(BandwidthLimited).Empty() {
		t.Error("bandwidth-limited series empty for a saturated link")
	}
}

func TestGroupUnions(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.SteadyTransfer(20_000, 10_000, 4, 2, 65535)
	cat := gen(t, b)
	snd := cat.Get(SenderLimited)
	want := timerange.UnionAll(cat.Get(SendAppLimited), cat.Get(CwndBndOut), cat.Get(SendLocalLoss))
	if !snd.Equal(want) {
		t.Error("SenderLimited is not the union of its member factors")
	}
	rcv := cat.Get(ReceiverLimited)
	wantR := timerange.UnionAll(cat.Get(SmallAdvBndOut), cat.Get(LargeAdvBndOut), cat.Get(RecvLocalLoss))
	if !rcv.Equal(wantR) {
		t.Error("ReceiverLimited is not the union of its member factors")
	}
}

func TestOutstandingSeries(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss)
	b.Ack(30_000, mss, 65535)
	b.Data(50_000, mss, mss)
	b.Ack(60_000, 2*mss, 65535)
	cat := gen(t, b)
	out := cat.Get(Outstanding)
	if out.Len() != 2 {
		t.Fatalf("outstanding = %v, want 2 ranges", out)
	}
	if out.At(0) != timerange.R(20_000, 30_000) {
		t.Errorf("first outstanding = %v", out.At(0))
	}
	if out.At(1) != timerange.R(50_000, 60_000) {
		t.Errorf("second outstanding = %v", out.At(1))
	}
}

func TestEmptyConnectionSafe(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	cat := gen(t, b)
	for _, n := range All {
		_ = cat.Get(n).Size() // no panics on a handshake-only connection
	}
	if !cat.Get(Transmission).Empty() {
		t.Error("transmission series should be empty with no data")
	}
}

func TestShiftIntegration(t *testing.T) {
	// With the shift enabled, ACKs captured at the receiver move forward to
	// just before the data they release, collapsing phantom app-limited
	// gaps that are really RTT.
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	off := int64(0)
	t0 := traceutil.Micros(20_000)
	for f := 0; f < 5; f++ {
		b.Data(t0, off, mss)
		off += mss
		// ACK leaves the receiver ~50 µs after data arrival; the next data
		// appears a full RTT later.
		b.Ack(t0+50, off, 65535)
		t0 += 10_000
	}
	raw := Generate(b.Extract(), Config{DisableShift: true})
	shifted := Generate(b.Extract(), Config{})
	rawApp := raw.Get(SendAppLimited).Size()
	shiftApp := shifted.Get(SendAppLimited).Size()
	if shiftApp >= rawApp {
		t.Errorf("shift did not reduce phantom app-limited time: raw=%d shifted=%d",
			rawApp, shiftApp)
	}
}

func TestRangeStatsAnnotateLossWaves(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// One downstream-loss episode: original + two RTO retransmissions.
	b.Data(20_000, 0, mss)
	b.Data(250_000, 0, mss)
	b.Data(650_000, 0, mss)
	b.Ack(660_000, mss, 65535)
	cat := gen(t, b)

	stats := cat.RangeStats(DownstreamLoss)
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s := stats[0]
	// The recovery wave contains the original and both retransmissions.
	if s.DataPackets != 3 || s.DataBytes != 3*mss {
		t.Errorf("packets=%d bytes=%d", s.DataPackets, s.DataBytes)
	}
	if s.Retransmits != 2 {
		t.Errorf("retransmits = %d, want 2", s.Retransmits)
	}
}

func TestRangeStatsCountAcks(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.SteadyTransfer(20_000, 10_000, 4, 2, 65535)
	cat := gen(t, b)
	stats := cat.RangeStats(ActiveTransfer)
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Acks < 4 {
		t.Errorf("acks = %d, want ≥4", stats[0].Acks)
	}
	if stats[0].DataPackets != 8 {
		t.Errorf("data packets = %d, want 8", stats[0].DataPackets)
	}
}

func TestRangeStatsEmptySeries(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	cat := gen(t, b)
	if got := cat.RangeStats(UpstreamLoss); len(got) != 0 {
		t.Errorf("stats = %+v", got)
	}
}

// TestFlightsExactSize checks that buildFlights counts the flights by the
// rule it groups them by: across the tracegen kinds, Flights is allocated
// at exactly its length.
func TestFlightsExactSize(t *testing.T) {
	for k := tracegen.KindClean; k <= tracegen.KindFanout; k++ {
		conns := flows.Extract(tracegen.Run(tracegen.Scenario{Kind: k, Seed: 61, Routes: 1_500}).Packets())
		if len(conns) == 0 {
			t.Fatalf("%v: no connections", k)
		}
		for _, c := range conns {
			f := Generate(c, Config{}).Flights
			if len(f) == 0 || cap(f) != len(f) {
				t.Errorf("%v %v: %d flights in a slice of capacity %d", k, c.Sender, len(f), cap(f))
			}
		}
	}
}
