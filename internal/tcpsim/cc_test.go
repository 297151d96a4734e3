package tcpsim

import (
	"bytes"
	"math"
	"testing"

	"tdat/internal/netem"
	"tdat/internal/packet"
	"tdat/internal/timerange"
)

// ---- Metamorphic properties, driven directly against the strategies ----

// ccUnderTest builds a fresh strategy for the stack with the default MSS.
func ccUnderTest(t *testing.T, s Stack) CongestionControl {
	t.Helper()
	return newCongestionControl(Config{Stack: s}.withDefaults())
}

// senderStacks are the stacks that own a CongestionControl strategy (the
// buggy variants are receiver quirks riding on Reno).
func senderStacks() []Stack {
	return []Stack{StackReno, StackCubic, StackRatePaced, StackSACK}
}

// TestCCWindowBounds drives every strategy through a deterministic mix of
// new ACKs, duplicate-ACK bursts, and timeouts, and asserts the hard window
// invariant after every event: a finite window of at least one MSS.
func TestCCWindowBounds(t *testing.T) {
	const mss = 1460
	for _, s := range senderStacks() {
		t.Run(s.String(), func(t *testing.T) {
			cc := ccUnderTest(t, s)
			check := func(when string, now Micros) {
				if w := cc.Cwnd(); math.IsNaN(w) || math.IsInf(w, 0) || w < float64(mss) {
					t.Fatalf("%s cwnd = %.0f at t=%d after %s, want finite and at least %d",
						s, w, now, when, mss)
				}
			}
			now := Micros(1000)
			flight := int64(10 * mss)
			for i := 0; i < 3000; i++ {
				now += 500
				ev := AckInfo{Now: now, Acked: mss, Flight: flight, MSS: mss, SRTT: 10_000}
				switch {
				case i%97 == 96:
					// A three-dup-ACK burst plus two extra duplicates.
					for d := 1; d <= 5; d++ {
						now += 100
						cc.OnDupAck(AckInfo{Now: now, Flight: flight, DupAcks: d, MSS: mss, SRTT: 10_000})
						check("dup ACK", now)
					}
				case i%499 == 498:
					cc.OnRTO(AckInfo{Now: now, Flight: flight, MSS: mss, SRTT: 10_000})
					check("RTO", now)
				default:
					was := cc.InRecovery()
					cc.OnAck(ev)
					if was && !cc.InRecovery() {
						cc.OnRecoveryExit(now)
					}
					check("new ACK", now)
				}
			}
		})
	}
}

// TestCCSlowStartMonotone asserts that before any loss event, the
// window-clocked strategies never shrink the window: a pure ACK stream only
// grows (or holds) cwnd. The rate-paced model is exempt — its window tracks
// the bandwidth estimate, not the ACK count.
func TestCCSlowStartMonotone(t *testing.T) {
	const mss = 1460
	for _, s := range []Stack{StackReno, StackCubic, StackSACK} {
		t.Run(s.String(), func(t *testing.T) {
			cc := ccUnderTest(t, s)
			now := Micros(0)
			prev := cc.Cwnd()
			for i := 0; i < 5000; i++ {
				now += 500
				cc.OnAck(AckInfo{Now: now, Acked: mss, Flight: 20 * mss, MSS: mss, SRTT: 10_000})
				if w := cc.Cwnd(); w < prev {
					t.Fatalf("%s cwnd shrank %.1f → %.1f on ACK %d with no loss", s, prev, w, i)
				} else {
					prev = w
				}
			}
			if cc.InRecovery() {
				t.Fatalf("%s entered recovery without a loss event", s)
			}
		})
	}
}

// TestCubicConvergesToRenoTinyRTT drives CUBIC and Reno through identical
// congestion-avoidance ACK streams at a tiny RTT, where the cubic term is
// negligible and the TCP-friendly region should keep CUBIC within a
// constant factor of Reno (√α ≈ 0.73 asymptotically, RFC 8312 §4.2).
func TestCubicConvergesToRenoTinyRTT(t *testing.T) {
	const mss = 1460
	cfg := Config{MSS: mss}.withDefaults()
	reno, cubic := &renoCC{}, &cubicCC{}
	reno.Init(cfg)
	cubic.Init(cfg)
	// Start both in congestion avoidance: ssthresh below the initial window.
	reno.ssthresh, cubic.ssthresh = 1, 1

	now := Micros(0)
	for i := 0; i < 4000; i++ {
		now += 500 // ~0.5 ms between ACKs: 2 s total, cubic term ≈ one MSS
		ev := AckInfo{Now: now, Acked: mss, Flight: 20 * mss, MSS: mss, SRTT: 1000}
		reno.OnAck(ev)
		cubic.OnAck(ev)
	}
	ratio := cubic.Cwnd() / reno.Cwnd()
	if ratio < 0.6 || ratio > 1.25 {
		t.Fatalf("cubic/reno cwnd ratio = %.3f after tiny-RTT CA stream (cubic %.0f, reno %.0f), want ≈0.73 within [0.6, 1.25]",
			ratio, cubic.Cwnd(), reno.Cwnd())
	}
}

// TestCCLossResponse pins the multiplicative-decrease contract: a
// third-duplicate-ACK event must not grow the window, and a timeout must
// collapse it below where it was.
func TestCCLossResponse(t *testing.T) {
	const mss = 1460
	for _, s := range senderStacks() {
		t.Run(s.String(), func(t *testing.T) {
			cc := ccUnderTest(t, s)
			// Grow out of the initial window first.
			now := Micros(0)
			for i := 0; i < 200; i++ {
				now += 500
				cc.OnAck(AckInfo{Now: now, Acked: mss, Flight: 30 * mss, MSS: mss, SRTT: 10_000})
			}
			before := cc.Cwnd()
			for d := 1; d <= 3; d++ {
				now += 100
				if r := cc.OnDupAck(AckInfo{Now: now, Flight: 30 * mss, DupAcks: d, MSS: mss, SRTT: 10_000}); d == 3 && r != ReactFastRetransmit {
					t.Fatalf("%s third dup ACK reaction = %v, want fast retransmit", s, r)
				}
			}
			if w := cc.Cwnd(); w > before {
				t.Errorf("%s grew the window on loss: %.0f → %.0f", s, before, w)
			}
			afterFR := cc.Cwnd()
			now += 1000
			cc.OnRTO(AckInfo{Now: now, Flight: 30 * mss, MSS: mss, SRTT: 10_000})
			if w := cc.Cwnd(); w > afterFR {
				t.Errorf("%s RTO did not shrink the window: %.0f → %.0f", s, afterFR, w)
			}
		})
	}
}

// ---- Endpoint-level behavior per stack ----

// stackPair builds a connected pair with ApplyStack applied to the
// client (sender) and server (receiver) configurations.
func stackPair(t *testing.T, s Stack, seed int64, pcfg netem.PathConfig) *pair {
	t.Helper()
	var ccfg, scfg Config
	ApplyStack(s, &ccfg, &scfg)
	return newPair(t, seed, ccfg, scfg, pcfg)
}

// TestStacksDeliverStreamIntact transfers a fixed payload under random
// downstream loss for every stack personality and asserts the byte stream
// arrives complete and uncorrupted — recovery machinery may differ, but
// reliability must not.
func TestStacksDeliverStreamIntact(t *testing.T) {
	data := make([]byte, 150_000)
	for i := range data {
		data[i] = byte(i*131 + i>>9)
	}
	for _, s := range AllStacks() {
		t.Run(s.String(), func(t *testing.T) {
			pcfg := defaultPath()
			pcfg.DownstreamLoss = 0.02
			p := stackPair(t, s, 7, pcfg)
			var got bytes.Buffer
			p.sinkServer(&got)
			p.connect(t)

			sent := 0
			feed := func() {
				for sent < len(data) {
					n := p.client.Write(data[sent:])
					if n == 0 {
						break
					}
					sent += n
				}
			}
			p.client.OnSendSpace = feed
			feed()
			p.eng.RunAll(10_000_000)

			if !bytes.Equal(got.Bytes(), data) {
				t.Fatalf("stack %s: received %d bytes, want %d (match=%v)",
					s, got.Len(), len(data), bytes.Equal(got.Bytes(), data[:min(len(data), got.Len())]))
			}
			if p.client.Unacked() != 0 {
				t.Errorf("stack %s: %d bytes unacked after drain", s, p.client.Unacked())
			}
			if want := stackCCName(s); p.client.StackName() != want {
				t.Errorf("stack %s: sender strategy = %s, want %s", s, p.client.StackName(), want)
			}
		})
	}
}

// stackCCName maps a stack personality to the sender strategy it installs.
func stackCCName(s Stack) string {
	switch s {
	case StackCubic:
		return "cubic"
	case StackRatePaced:
		return "rate-paced"
	case StackSACK:
		return "sack"
	default:
		return "reno" // buggy variants are receiver quirks on a Reno sender
	}
}

// TestSACKNegotiation checks OptSACKPermitted handling: SACK activates only
// when both sides offer it.
func TestSACKNegotiation(t *testing.T) {
	cases := []struct {
		name           string
		client, server bool
		want           bool
	}{
		{"both", true, true, true},
		{"client-only", true, false, false},
		{"server-only", false, true, false},
		{"neither", false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 5, Config{SACK: tc.client}, Config{SACK: tc.server}, defaultPath())
			p.connect(t)
			if p.client.SACKEnabled() != tc.want || p.server.SACKEnabled() != tc.want {
				t.Errorf("sackOK = %v/%v, want %v", p.client.SACKEnabled(), p.server.SACKEnabled(), tc.want)
			}
		})
	}
}

// TestSACKBlocksAdvertised drops a single mid-flight segment and asserts
// the receiver's duplicate ACKs carry SACK blocks sitting above the hole,
// and that the stream still completes.
func TestSACKBlocksAdvertised(t *testing.T) {
	p := stackPair(t, StackSACK, 9, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)

	// Drop exactly one mid-flight data segment on the wire.
	var droppedSeq uint32
	dropped := false
	dataSegs := 0
	clientOut := p.client.out
	p.client.out = func(pk *packet.Packet) {
		if len(pk.Payload) > 0 {
			dataSegs++
			if dataSegs == 3 && !dropped {
				dropped = true
				droppedSeq = pk.TCP.Seq
				return // lost
			}
		}
		clientOut(pk)
	}
	// Watch the receiver's ACK stream for the first SACK option.
	var sackBlocks [][2]uint32
	serverOut := p.server.out
	p.server.out = func(pk *packet.Packet) {
		if b := pk.TCP.SACKBlocks(); len(b) > 0 && sackBlocks == nil {
			sackBlocks = b
		}
		serverOut(pk)
	}
	p.connect(t)

	data := make([]byte, 30_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sent := 0
	feed := func() {
		for sent < len(data) {
			n := p.client.Write(data[sent:])
			if n == 0 {
				break
			}
			sent += n
		}
	}
	p.client.OnSendSpace = feed
	feed()
	p.eng.RunAll(5_000_000)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("received %d/%d bytes", got.Len(), len(data))
	}
	if !dropped {
		t.Fatal("test harness never dropped a segment")
	}
	if sackBlocks == nil {
		t.Fatal("no SACK blocks observed after a mid-flight drop")
	}
	if left := sackBlocks[0][0]; int32(left-droppedSeq) <= 0 {
		t.Errorf("first SACK block left edge %d not above the dropped segment %d", left, droppedSeq)
	}
}

// TestScoreboard unit-tests the SACK scoreboard range algebra.
func TestScoreboard(t *testing.T) {
	var sb scoreboard
	sb.add(1000, 2000)
	sb.add(3000, 4000)
	sb.add(1500, 2500) // extends the first range
	if end, ok := sb.coveringEnd(1000); !ok || end != 2500 {
		t.Fatalf("coveringEnd(1000) = %d,%v want 2500,true", end, ok)
	}
	if _, ok := sb.coveringEnd(2500); ok {
		t.Fatal("2500 should be a hole")
	}
	if next, ok := sb.nextSackedStart(2500); !ok || next != 3000 {
		t.Fatalf("nextSackedStart(2500) = %d,%v want 3000,true", next, ok)
	}
	if hi, ok := sb.max(); !ok || hi != 4000 {
		t.Fatalf("max = %d,%v want 4000,true", hi, ok)
	}
	sb.add(2500, 3000) // bridges the hole
	if end, ok := sb.coveringEnd(1200); !ok || end != 4000 {
		t.Fatalf("after bridge coveringEnd(1200) = %d,%v want 4000,true", end, ok)
	}
	sb.advance(3500)
	if end, ok := sb.coveringEnd(3500); !ok || end != 4000 {
		t.Fatalf("after advance coveringEnd(3500) = %d,%v want 4000,true", end, ok)
	}
	if _, ok := sb.coveringEnd(1200); ok {
		t.Fatal("ranges below the cumulative ACK must be dropped")
	}
	sb.advance(5000)
	if _, ok := sb.max(); ok {
		t.Fatal("scoreboard should be empty past the last range")
	}
}

// ---- Satellite: the RTO repair fold ----

// TestRTORepairNotOneSegmentPerTimeout reproduces the failure the
// go-back-N repair originally fixed, now living behind the strategy's
// OnRTO path: a loss episode wipes an entire flight; once connectivity
// returns, the repair must walk the whole flight forward at slow-start
// pace clocked by ACKs — not retransmit one segment per exponentially
// backed-off timeout, which would take minutes for a 40-segment flight.
func TestRTORepairNotOneSegmentPerTimeout(t *testing.T) {
	pcfg := defaultPath()
	// connect() runs the engine to t=2 s, so the transfer starts there; by
	// 2.1 s slow start has a full 64 KB window (~45 segments) in flight.
	// Everything on the upstream data path then dies until 4.5 s, wiping
	// the whole flight.
	pcfg.UpstreamHook = netem.LossEpisodes(timerange.R(2_100_000, 4_500_000))
	p := newPair(t, 11, Config{}, Config{}, pcfg)
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)

	data := make([]byte, 400_000)
	for i := range data {
		data[i] = byte(i * 17)
	}
	doneAt := Micros(-1)
	p.server.OnReadable = func() {
		got.Write(p.server.Read(p.server.ReadableLen()))
		if got.Len() == len(data) && doneAt < 0 {
			doneAt = p.eng.Now()
		}
	}
	sent := 0
	feed := func() {
		for sent < len(data) {
			n := p.client.Write(data[sent:])
			if n == 0 {
				break
			}
			sent += n
		}
	}
	p.client.OnSendSpace = feed
	feed()
	p.eng.RunAll(5_000_000)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("received %d/%d bytes after loss episode", got.Len(), len(data))
	}
	st := p.client.Stats()
	// One timeout inside the episode and at most a couple of backoffs; a
	// one-segment-per-RTO sender would need ~40 timeouts with exponential
	// backoff to move this flight.
	if st.Timeouts > 5 {
		t.Errorf("timeouts = %d, want ≤ 5 (repair must be ACK-clocked, not timer-clocked)", st.Timeouts)
	}
	// The wiped flight (~40 segments) must actually have been retransmitted.
	if st.Retransmits < 20 {
		t.Errorf("retransmits = %d, want ≥ 20 (the flight was wiped)", st.Retransmits)
	}
	// Connectivity returns at 4.5 s; the backed-off timer fires within a
	// couple of seconds of that, and the ACK-clocked walk finishes the
	// remaining transfer in tens of RTTs. The broken one-segment-per-RTO
	// behavior would still be probing at minute scale.
	if doneAt < 0 || doneAt > 12_000_000 {
		t.Errorf("transfer completed at t=%d µs, want within 12 s", doneAt)
	}
}

// TestStretchAckQuirkSlowsAckClock asserts the stretch-ACK receiver sends
// materially fewer ACKs for the same payload — the signature that starves
// a window-based sender's ACK clock.
func TestStretchAckQuirkSlowsAckClock(t *testing.T) {
	run := func(s Stack) (acks int, dur Micros) {
		p := stackPair(t, s, 13, defaultPath())
		var got bytes.Buffer
		p.sinkServer(&got)
		p.connect(t)
		data := make([]byte, 120_000)
		sent := 0
		feed := func() {
			for sent < len(data) {
				n := p.client.Write(data[sent:])
				if n == 0 {
					break
				}
				sent += n
			}
		}
		p.client.OnSendSpace = feed
		feed()
		p.eng.RunAll(10_000_000)
		if got.Len() != len(data) {
			panic("transfer incomplete")
		}
		return p.server.Stats().SegmentsSent, p.eng.Now()
	}
	renoAcks, _ := run(StackReno)
	stretchAcks, _ := run(StackStretchAck)
	if stretchAcks >= renoAcks*2/3 {
		t.Errorf("stretch-ACK receiver sent %d segments vs reno %d, want a materially lower ACK rate", stretchAcks, renoAcks)
	}
}

// TestWScaleBugShrinksWindow asserts the broken-window-scaling receiver
// advertises at most a fraction of its real buffer.
func TestWScaleBugShrinksWindow(t *testing.T) {
	p := stackPair(t, StackWScaleBug, 17, defaultPath())
	p.connect(t)
	if adv := p.server.AdvertisedWindow(); adv > 65535>>4 {
		t.Errorf("advertised window = %d, want ≤ %d under a 4-bit scaling bug", adv, 65535>>4)
	}
	if p.client.PeerWindow() > 65535>>4 {
		t.Errorf("sender sees peer window %d, want ≤ %d", p.client.PeerWindow(), 65535>>4)
	}
}
