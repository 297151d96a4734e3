package tcpsim

import (
	"bytes"
	"net/netip"
	"testing"

	"tdat/internal/netem"
	"tdat/internal/packet"
	"tdat/internal/sim"
	"tdat/internal/timerange"
)

// pair wires a client and server endpoint over a bidirectional netem path
// and returns both plus the engine and sniffer.
type pair struct {
	eng    *sim.Engine
	client *Endpoint // active opener ("router" / sender)
	server *Endpoint // passive opener ("collector" / receiver)
	path   *netem.Path
}

func newPair(t *testing.T, seed int64, ccfg, scfg Config, pcfg netem.PathConfig) *pair {
	t.Helper()
	eng := sim.New(0, seed)
	if !ccfg.Addr.IsValid() {
		ccfg.Addr = netip.MustParseAddr("10.0.0.1")
		ccfg.Port = 179
	}
	if !scfg.Addr.IsValid() {
		scfg.Addr = netip.MustParseAddr("10.0.0.2")
		scfg.Port = 41000
	}
	p := &pair{eng: eng}
	// Path forwards data packets to the server and ACK-direction packets to
	// the client.
	p.path = netem.NewPath(eng, pcfg,
		func(pk *packet.Packet) { p.server.Deliver(pk) },
		func(pk *packet.Packet) { p.client.Deliver(pk) },
	)
	p.client = NewEndpoint(eng, ccfg, Handler(p.path.DataIn))
	p.server = NewEndpoint(eng, scfg, Handler(p.path.AckIn))
	p.server.Listen()
	return p
}

func defaultPath() netem.PathConfig {
	return netem.PathConfig{UpstreamDelay: 5000, DownstreamDelay: 100} // ~10.2 ms RTT
}

func (p *pair) connect(t *testing.T) {
	t.Helper()
	established := false
	p.client.OnEstablished = func() { established = true }
	p.client.Connect(p.server.cfg.Addr, p.server.cfg.Port)
	p.eng.Run(p.eng.Now() + 2_000_000)
	if !established {
		t.Fatal("handshake did not complete")
	}
}

// drain reads everything the server has whenever data arrives.
func (p *pair) sinkServer(buf *bytes.Buffer) {
	p.server.OnReadable = func() {
		buf.Write(p.server.Read(p.server.ReadableLen()))
	}
}

func TestHandshake(t *testing.T) {
	p := newPair(t, 1, Config{}, Config{}, defaultPath())
	p.connect(t)
	if p.client.State() != StateEstablished || p.server.State() != StateEstablished {
		t.Errorf("states = %v / %v", p.client.State(), p.server.State())
	}
	if p.client.SRTT() < 10_000 || p.client.SRTT() > 12_000 {
		t.Errorf("client SRTT = %d µs, want ≈10200", p.client.SRTT())
	}
}

func TestBulkTransferLossless(t *testing.T) {
	p := newPair(t, 2, Config{}, Config{}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)

	data := make([]byte, 200_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	// Feed through the finite send buffer as space opens.
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
	p.eng.RunAll(2_000_000)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("received %d bytes, want %d; content match=%v",
			got.Len(), len(data), bytes.Equal(got.Bytes(), data[:min(len(data), got.Len())]))
	}
	if p.client.Stats().Retransmits != 0 {
		t.Errorf("lossless path retransmits = %d", p.client.Stats().Retransmits)
	}
	if p.client.Unacked() != 0 {
		t.Errorf("unacked = %d after drain", p.client.Unacked())
	}
}

func TestSlowStartGrowth(t *testing.T) {
	p := newPair(t, 3, Config{}, Config{}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	before := p.client.Cwnd()
	data := make([]byte, 60_000)
	p.client.Write(data)
	p.eng.RunAll(1_000_000)
	if p.client.Cwnd() <= before {
		t.Errorf("cwnd did not grow: %d -> %d", before, p.client.Cwnd())
	}
}

func TestFlowControlSlowReader(t *testing.T) {
	// Server app never reads: the 65535-byte buffer fills, window hits zero,
	// sender stalls and sends persist probes.
	p := newPair(t, 4, Config{}, Config{}, defaultPath())
	p.connect(t)
	data := make([]byte, 150_000)
	sent := p.client.Write(data) // bounded by 64 KB send buffer
	p.client.OnSendSpace = func() {
		if sent < len(data) {
			sent += p.client.Write(data[sent:])
		}
	}
	p.eng.Run(10_000_000)

	if p.server.ReadableLen() != p.server.cfg.RecvBuf {
		t.Errorf("server buffered %d, want full %d", p.server.ReadableLen(), p.server.cfg.RecvBuf)
	}
	if p.client.PeerWindow() != 0 {
		t.Errorf("peer window = %d, want 0", p.client.PeerWindow())
	}
	if p.client.Stats().ProbesSent == 0 {
		t.Error("no zero-window probes sent")
	}

	// Now read everything and confirm the transfer completes.
	var got bytes.Buffer
	got.Write(p.server.Read(p.server.ReadableLen()))
	p.server.OnReadable = func() { got.Write(p.server.Read(p.server.ReadableLen())) }
	p.eng.RunAll(2_000_000)
	if got.Len() != len(data) {
		t.Errorf("received %d bytes, want %d", got.Len(), len(data))
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	// Drop exactly one data packet mid-stream; dup ACKs must trigger a fast
	// retransmit (not a timeout) and the stream must stay intact.
	dropped := false
	nthData := 0
	pcfg := defaultPath()
	pcfg.UpstreamHook = func(ts sim.Micros, pk *packet.Packet) bool {
		if len(pk.Payload) == 0 {
			return false
		}
		nthData++
		// Drop one mid-stream segment (not the first flight, so dup ACKs
		// can accumulate behind it).
		if !dropped && nthData == 9 {
			dropped = true
			return true
		}
		return false
	}
	p := newPair(t, 5, Config{}, Config{}, pcfg)
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)

	data := make([]byte, 60_000)
	for i := range data {
		data[i] = byte(i)
	}
	p.client.Write(data)
	p.eng.RunAll(2_000_000)

	if !dropped {
		t.Fatal("loss hook never fired")
	}
	st := p.client.Stats()
	if st.FastRetransmits == 0 {
		t.Errorf("expected a fast retransmit; stats=%+v", st)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Errorf("stream corrupted: got %d bytes", got.Len())
	}
}

func TestRTORecoveryAfterBurstLoss(t *testing.T) {
	// Drop everything for a window: the sender must fall back to timeout
	// retransmission with exponential backoff and still complete.
	var episode timerange.Range
	pcfg := defaultPath()
	pcfg.UpstreamHook = func(ts sim.Micros, pk *packet.Packet) bool {
		return episode.Contains(ts)
	}
	p := newPair(t, 6, Config{}, Config{}, pcfg)
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	episode = timerange.R(p.eng.Now()+20_000, p.eng.Now()+550_000)

	data := make([]byte, 40_000)
	for i := range data {
		data[i] = byte(i >> 3)
	}
	p.client.Write(data)
	p.eng.RunAll(5_000_000)

	st := p.client.Stats()
	if st.Timeouts == 0 {
		t.Errorf("expected RTO timeouts; stats=%+v", st)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Errorf("stream corrupted after RTO recovery: got %d bytes", got.Len())
	}
	if p.client.Cwnd() >= 65535 {
		t.Errorf("cwnd = %d, expected reduction after loss", p.client.Cwnd())
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	// Deliver segments directly with artificial reordering.
	eng := sim.New(0, 7)
	var outPkts []*packet.Packet
	srv := NewEndpoint(eng, Config{
		Addr: netip.MustParseAddr("10.0.0.2"), Port: 41000,
	}, func(p *packet.Packet) { outPkts = append(outPkts, p) })
	srv.Listen()

	mk := func(seq uint32, flags uint8, payload []byte) *packet.Packet {
		return &packet.Packet{
			IP:      packet.IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
			TCP:     packet.TCP{SrcPort: 179, DstPort: 41000, Seq: seq, Ack: srv.iss + 1, Flags: flags, Window: 65535},
			Payload: payload,
		}
	}
	srv.Deliver(mk(1000, packet.FlagSYN, nil))
	srv.Deliver(mk(1001, packet.FlagACK, nil)) // completes handshake
	if srv.State() != StateEstablished {
		t.Fatalf("state = %v", srv.State())
	}
	base := len(outPkts)
	// Send seg2 before seg1.
	srv.Deliver(mk(1006, packet.FlagACK, []byte("world")))
	if got := len(outPkts) - base; got != 1 {
		t.Fatalf("out-of-order segment should trigger immediate dup ACK, got %d packets", got)
	}
	dup := outPkts[len(outPkts)-1]
	if dup.TCP.Ack != 1001 {
		t.Errorf("dup ack = %d, want 1001", dup.TCP.Ack)
	}
	srv.Deliver(mk(1001, packet.FlagACK, []byte("hello")))
	if got := string(srv.Read(10)); got != "helloworld" {
		t.Errorf("reassembled = %q", got)
	}
	// The ACK after filling the gap must cover both segments.
	last := outPkts[len(outPkts)-1]
	if last.TCP.Ack != 1011 {
		t.Errorf("cumulative ack = %d, want 1011", last.TCP.Ack)
	}
}

func TestDelayedAckTimer(t *testing.T) {
	// A single small segment should be acked only after the delayed-ACK
	// timeout (~200 ms), not immediately.
	eng := sim.New(0, 8)
	var ackTimes []sim.Micros
	srv := NewEndpoint(eng, Config{
		Addr: netip.MustParseAddr("10.0.0.2"), Port: 41000,
	}, func(p *packet.Packet) {
		if p.TCP.HasFlag(packet.FlagACK) && len(p.Payload) == 0 {
			ackTimes = append(ackTimes, eng.Now())
		}
	})
	srv.Listen()
	mk := func(seq uint32, flags uint8, payload []byte) *packet.Packet {
		return &packet.Packet{
			IP:      packet.IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
			TCP:     packet.TCP{SrcPort: 179, DstPort: 41000, Seq: seq, Ack: srv.iss + 1, Flags: flags, Window: 65535},
			Payload: payload,
		}
	}
	srv.Deliver(mk(1000, packet.FlagSYN, nil))
	srv.Deliver(mk(1001, packet.FlagACK, nil))
	ackTimes = nil
	eng.At(1000, func() { srv.Deliver(mk(1001, packet.FlagACK, []byte("x"))) })
	eng.RunAll(0)
	if len(ackTimes) != 1 {
		t.Fatalf("acks = %v", ackTimes)
	}
	if ackTimes[0] < 200_000 {
		t.Errorf("ack at %d µs, want delayed ≈201000", ackTimes[0])
	}
}

func TestAckEverySecondSegment(t *testing.T) {
	p := newPair(t, 9, Config{}, Config{}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	p.client.Write(make([]byte, 14600)) // 10 MSS
	p.eng.RunAll(1_000_000)
	st := p.server.Stats()
	// 10 data segments → roughly 5 delayed acks (plus handshake traffic).
	if st.SegmentsSent > 9 {
		t.Errorf("server sent %d segments for 10 data segments; delayed ACK broken", st.SegmentsSent)
	}
	if got.Len() != 14600 {
		t.Errorf("received %d", got.Len())
	}
}

func TestZeroWindowProbeBugForcesTimeout(t *testing.T) {
	ccfg := Config{ZeroWindowProbeBug: true}
	p := newPair(t, 10, ccfg, Config{RecvBuf: 8192}, defaultPath())
	p.connect(t)

	data := make([]byte, 60_000)
	sent := p.client.Write(data)
	p.client.OnSendSpace = func() {
		if sent < len(data) {
			sent += p.client.Write(data[sent:])
		}
	}
	// Slow reader: 2 KB every 600 ms — slower than the persist backoff so
	// probes race window reopenings.
	var got bytes.Buffer
	var slurp func()
	slurp = func() {
		got.Write(p.server.Read(2048))
		if got.Len() < len(data) {
			p.eng.After(600_000, slurp)
		}
	}
	p.eng.After(600_000, slurp)
	p.eng.RunAll(2_000_000)

	st := p.client.Stats()
	if st.BugDrops == 0 {
		t.Errorf("bug never triggered: stats=%+v", st)
	}
	if st.Timeouts == 0 {
		t.Errorf("bug drops must be repaired by RTO: stats=%+v", st)
	}
	if got.Len() != len(data) {
		t.Errorf("received %d bytes, want %d", got.Len(), len(data))
	}
}

func TestKillSilencesEndpoint(t *testing.T) {
	p := newPair(t, 11, Config{}, Config{}, defaultPath())
	p.connect(t)
	p.server.Kill()
	p.client.Write(make([]byte, 5000))
	p.eng.Run(30_000_000)
	if p.client.Stats().Timeouts < 3 {
		t.Errorf("client should back off repeatedly against a dead peer; timeouts=%d",
			p.client.Stats().Timeouts)
	}
	if p.client.Unacked() == 0 {
		t.Error("data acked by a dead peer")
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(t, 12, Config{}, Config{}, defaultPath())
	p.connect(t)
	reset := false
	p.server.OnReset = func() { reset = true }
	p.client.Abort()
	p.eng.RunAll(0)
	if !reset {
		t.Error("server did not observe RST")
	}
	if p.client.State() != StateClosed || p.server.State() != StateClosed {
		t.Errorf("states = %v/%v", p.client.State(), p.server.State())
	}
}

func TestRTOExponentialBackoff(t *testing.T) {
	// Against a black-holed path, retransmissions must spread out
	// exponentially.
	pcfg := defaultPath()
	pcfg.UpstreamHook = func(ts sim.Micros, pk *packet.Packet) bool {
		return len(pk.Payload) > 0 // drop all data after handshake
	}
	p := newPair(t, 13, Config{}, Config{}, pcfg)
	p.connect(t)

	var dataTimes []sim.Micros
	// Tap retransmissions at the sniffer-equivalent: wrap client's out.
	orig := p.client.out
	p.client.out = func(pk *packet.Packet) {
		if len(pk.Payload) > 0 {
			dataTimes = append(dataTimes, p.eng.Now())
		}
		orig(pk)
	}
	p.client.Write(make([]byte, 1000))
	p.eng.Run(20_000_000)

	if len(dataTimes) < 4 {
		t.Fatalf("only %d transmissions", len(dataTimes))
	}
	g1 := dataTimes[2] - dataTimes[1]
	g2 := dataTimes[3] - dataTimes[2]
	if g2 < g1*3/2 {
		t.Errorf("backoff gaps %d then %d, want roughly doubling", g1, g2)
	}
}

func TestWriteBoundedBySendBuf(t *testing.T) {
	p := newPair(t, 14, Config{SendBuf: 1000}, Config{}, defaultPath())
	p.connect(t)
	n := p.client.Write(make([]byte, 5000))
	if n != 1000 {
		t.Errorf("Write accepted %d, want 1000", n)
	}
	if p.client.SendBufAvailable() != 0 {
		t.Errorf("SendBufAvailable = %d", p.client.SendBufAvailable())
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateClosed: "closed", StateListen: "listen", StateSynSent: "syn-sent",
		StateSynReceived: "syn-received", StateEstablished: "established",
		StateFinWait: "fin-wait", StateCloseWait: "close-wait", StateDead: "dead",
		State(99): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestDeterministicTransfer(t *testing.T) {
	run := func() (int, int) {
		pcfg := defaultPath()
		pcfg.UpstreamLoss = 0.02
		p := newPair(t, 77, Config{}, Config{}, pcfg)
		var got bytes.Buffer
		p.sinkServer(&got)
		p.connect(t)
		p.client.Write(make([]byte, 50_000))
		p.eng.RunAll(3_000_000)
		return got.Len(), p.client.Stats().Retransmits
	}
	l1, r1 := run()
	l2, r2 := run()
	if l1 != l2 || r1 != r2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", l1, r1, l2, r2)
	}
	if l1 != 50_000 {
		t.Errorf("lossy transfer incomplete: %d", l1)
	}
}

func TestMSSNegotiation(t *testing.T) {
	// Server advertises a smaller MSS; the client must adopt it.
	p := newPair(t, 30, Config{MSS: 1460}, Config{MSS: 536}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	if p.client.Config().MSS != 536 {
		t.Errorf("client MSS = %d, want negotiated 536", p.client.Config().MSS)
	}
	// No emitted data segment may exceed the negotiated MSS.
	orig := p.client.out
	maxSeg := 0
	p.client.out = func(pk *packet.Packet) {
		if len(pk.Payload) > maxSeg {
			maxSeg = len(pk.Payload)
		}
		orig(pk)
	}
	p.client.Write(make([]byte, 5000))
	p.eng.RunAll(0)
	if maxSeg > 536 {
		t.Errorf("segment of %d bytes exceeds negotiated MSS", maxSeg)
	}
	if got.Len() != 5000 {
		t.Errorf("received %d", got.Len())
	}
}

func TestZeroWindowProbeStandardPath(t *testing.T) {
	// WITHOUT the bug: probes keep the connection alive through a long
	// zero-window stall and the transfer completes without timeouts once
	// the reader drains.
	p := newPair(t, 31, Config{}, Config{RecvBuf: 4096}, defaultPath())
	p.connect(t)
	data := make([]byte, 20_000)
	sent := p.client.Write(data)
	p.client.OnSendSpace = func() {
		if sent < len(data) {
			sent += p.client.Write(data[sent:])
		}
	}
	// Stall 10 s, then drain everything.
	p.eng.Run(p.eng.Now() + 10_000_000)
	if p.client.Stats().ProbesSent == 0 {
		t.Fatal("no persist probes during the stall")
	}
	var got bytes.Buffer
	got.Write(p.server.Read(p.server.ReadableLen()))
	p.server.OnReadable = func() { got.Write(p.server.Read(p.server.ReadableLen())) }
	p.eng.RunAll(0)
	if got.Len() != len(data) {
		t.Errorf("received %d of %d", got.Len(), len(data))
	}
	if p.client.Stats().BugDrops != 0 {
		t.Errorf("bug drops without the bug enabled: %d", p.client.Stats().BugDrops)
	}
}

func TestPersistProbeBackoff(t *testing.T) {
	// Probe intervals must grow while the window stays closed.
	p := newPair(t, 32, Config{}, Config{RecvBuf: 2048}, defaultPath())
	p.connect(t)
	var probeTimes []sim.Micros
	orig := p.client.out
	p.client.out = func(pk *packet.Packet) {
		if len(pk.Payload) == 1 {
			probeTimes = append(probeTimes, p.eng.Now())
		}
		orig(pk)
	}
	p.client.Write(make([]byte, 10_000))
	p.eng.Run(p.eng.Now() + 40_000_000)
	if len(probeTimes) < 3 {
		t.Fatalf("probes = %d", len(probeTimes))
	}
	g1 := probeTimes[1] - probeTimes[0]
	g2 := probeTimes[2] - probeTimes[1]
	if g2 < g1*3/2 {
		t.Errorf("probe backoff gaps %d then %d, want growth", g1, g2)
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	// Many small writes while data is outstanding must coalesce into
	// MSS-sized segments rather than a tinygram flood.
	p := newPair(t, 33, Config{}, Config{}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	var segs []int
	orig := p.client.out
	p.client.out = func(pk *packet.Packet) {
		if len(pk.Payload) > 0 {
			segs = append(segs, len(pk.Payload))
		}
		orig(pk)
	}
	total := 0
	for i := 0; i < 100; i++ {
		total += p.client.Write(make([]byte, 130)) // BGP-update-sized writes
	}
	p.eng.RunAll(0)
	if got.Len() != total {
		t.Fatalf("received %d of %d", got.Len(), total)
	}
	small := 0
	for _, s := range segs {
		if s < 1460 {
			small++
		}
	}
	// One leading tinygram (nothing outstanding) plus at most a couple of
	// tails is fine; a hundred of them is the Nagle-off pathology.
	if small > 5 {
		t.Errorf("%d sub-MSS segments of %d total; Nagle not coalescing", small, len(segs))
	}
}

func TestPartialAckDuringRecovery(t *testing.T) {
	// Drop two separate segments in one window: after the fast retransmit,
	// the partial ACK exits classic-Reno recovery and the stream still
	// completes via a timeout for the second hole.
	dropped := map[int]bool{}
	nth := 0
	pcfg := defaultPath()
	pcfg.UpstreamHook = func(ts sim.Micros, pk *packet.Packet) bool {
		if len(pk.Payload) == 0 {
			return false
		}
		nth++
		if nth == 9 || nth == 11 {
			dropped[nth] = true
			return true
		}
		return false
	}
	p := newPair(t, 35, Config{}, Config{}, pcfg)
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	data := make([]byte, 60_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	p.client.Write(data)
	p.eng.RunAll(0)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d segments", len(dropped))
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Errorf("stream corrupted after double loss: %d bytes", got.Len())
	}
}

func TestCongestionAvoidanceSlowerThanSlowStart(t *testing.T) {
	// With ssthresh below cwnd growth range, congestion avoidance must grow
	// cwnd far slower than slow start does.
	growth := func(ssthresh int) int {
		p := newPair(t, 36, Config{}, Config{}, defaultPath())
		p.client.cc.(*renoCC).ssthresh = float64(ssthresh)
		var got bytes.Buffer
		p.sinkServer(&got)
		p.connect(t)
		before := p.client.Cwnd()
		data := make([]byte, 120_000)
		sent := p.client.Write(data)
		p.client.OnSendSpace = func() {
			if sent < len(data) {
				sent += p.client.Write(data[sent:])
			}
		}
		p.eng.Run(p.eng.Now() + 300_000) // ~30 RTTs
		return p.client.Cwnd() - before
	}
	ss := growth(1 << 20) // always slow start
	ca := growth(1)       // always congestion avoidance
	if ca*3 > ss {
		t.Errorf("CA growth %d not clearly slower than SS growth %d", ca, ss)
	}
}

func TestCloseHandshake(t *testing.T) {
	// Active close after a transfer: FIN → ACK+FIN → ACK; both sides end
	// closed and all data is delivered first.
	p := newPair(t, 40, Config{}, Config{}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	data := make([]byte, 20_000)
	p.client.Write(data)
	p.client.Close()
	// Server closes as soon as it sees the client's FIN (CloseWait).
	p.server.OnReset = nil
	p.eng.Run(p.eng.Now() + 2_000_000)
	if got.Len() != len(data) {
		t.Fatalf("received %d of %d before close", got.Len(), len(data))
	}
	if p.client.State() != StateFinWait && p.client.State() != StateClosed {
		t.Errorf("client state = %v", p.client.State())
	}
	if p.server.State() != StateCloseWait {
		t.Fatalf("server state = %v, want close-wait", p.server.State())
	}
	p.server.Close()
	p.eng.RunAll(0)
	if p.server.State() != StateClosed {
		t.Errorf("server state = %v, want closed", p.server.State())
	}
	if p.client.State() != StateClosed {
		t.Errorf("client state = %v, want closed", p.client.State())
	}
}

func TestCloseWaitsForBufferedData(t *testing.T) {
	// Close before the buffer drains: every byte must still arrive before
	// the FIN.
	p := newPair(t, 41, Config{}, Config{}, defaultPath())
	var got bytes.Buffer
	p.sinkServer(&got)
	p.connect(t)
	data := make([]byte, 50_000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	p.client.Write(data)
	p.client.Close()
	if n := p.client.Write([]byte("late")); n != 0 {
		t.Errorf("Write after Close accepted %d bytes", n)
	}
	p.eng.RunAll(0)
	if !bytes.Equal(got.Bytes(), data) {
		t.Errorf("received %d bytes, want %d", got.Len(), len(data))
	}
	if p.client.State() != StateFinWait && p.client.State() != StateClosed {
		t.Errorf("client state = %v after drain+close", p.client.State())
	}
}
