package netem

import (
	"net/netip"
	"testing"

	"tdat/internal/packet"
	"tdat/internal/sim"
	"tdat/internal/timerange"
)

func testPacket(payload int) *packet.Packet {
	return &packet.Packet{
		IP: packet.IPv4{
			Src: netip.MustParseAddr("10.0.0.1"),
			Dst: netip.MustParseAddr("10.0.0.2"),
		},
		TCP:     packet.TCP{SrcPort: 179, DstPort: 40000, Flags: packet.FlagACK},
		Payload: make([]byte, payload),
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	eng := sim.New(0, 1)
	var arrived []sim.Micros
	l := NewLink(eng, func(*packet.Packet) { arrived = append(arrived, eng.Now()) })
	l.Delay = 5000
	l.Send(testPacket(100))
	eng.RunAll(0)
	if len(arrived) != 1 || arrived[0] != 5000 {
		t.Errorf("arrived = %v, want [5000]", arrived)
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.New(0, 1)
	var arrived []sim.Micros
	l := NewLink(eng, func(*packet.Packet) { arrived = append(arrived, eng.Now()) })
	l.Rate = 1_000_000   // 1 MB/s → 1 µs per byte
	p := testPacket(946) // wire length 54 + 946 = 1000 bytes → 1000 µs
	l.Send(p)
	l.Send(p) // queued behind the first
	eng.RunAll(0)
	if len(arrived) != 2 || arrived[0] != 1000 || arrived[1] != 2000 {
		t.Errorf("arrived = %v, want [1000 2000]", arrived)
	}
	st := l.Stats()
	if st.Offered != 2 || st.Delivered != 2 || st.BytesOut != 2000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkDropTail(t *testing.T) {
	eng := sim.New(0, 1)
	delivered := 0
	l := NewLink(eng, func(*packet.Packet) { delivered++ })
	l.Rate = 1_000_000
	l.QueueCap = 2
	p := testPacket(946)
	// First transmits, next two queue, rest drop.
	for i := 0; i < 6; i++ {
		l.Send(p)
	}
	eng.RunAll(0)
	st := l.Stats()
	if delivered != 3 || st.DroppedTail != 3 {
		t.Errorf("delivered=%d droppedTail=%d, want 3/3", delivered, st.DroppedTail)
	}
}

func TestLinkQueueDrainsAllowingLaterTraffic(t *testing.T) {
	eng := sim.New(0, 1)
	delivered := 0
	l := NewLink(eng, func(*packet.Packet) { delivered++ })
	l.Rate = 1_000_000
	l.QueueCap = 1
	p := testPacket(946)
	l.Send(p) // transmits until 1000
	l.Send(p) // queued
	l.Send(p) // dropped
	eng.Run(2500)
	l.Send(p) // queue drained; transmits
	eng.RunAll(0)
	if delivered != 3 || l.Stats().DroppedTail != 1 {
		t.Errorf("delivered=%d dropped=%d", delivered, l.Stats().DroppedTail)
	}
}

func TestLinkRandomLossDeterministic(t *testing.T) {
	run := func(seed int64) int {
		eng := sim.New(0, seed)
		delivered := 0
		l := NewLink(eng, func(*packet.Packet) { delivered++ })
		l.LossRate = 0.5
		for i := 0; i < 100; i++ {
			l.Send(testPacket(10))
		}
		eng.RunAll(0)
		return delivered
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed delivered %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Errorf("loss rate 0.5 delivered %d of 100", a)
	}
}

func TestLossEpisodes(t *testing.T) {
	eng := sim.New(0, 1)
	delivered := 0
	l := NewLink(eng, func(*packet.Packet) { delivered++ })
	l.LossHook = LossEpisodes(timerange.R(100, 200))
	send := func(at sim.Micros) { eng.At(at, func() { l.Send(testPacket(1)) }) }
	send(50)
	send(150) // inside the episode: dropped
	send(250)
	eng.RunAll(0)
	if delivered != 2 || l.Stats().DroppedLoss != 1 {
		t.Errorf("delivered=%d droppedLoss=%d", delivered, l.Stats().DroppedLoss)
	}
}

func TestSnifferRecordsAndForwards(t *testing.T) {
	eng := sim.New(0, 1)
	sn := NewSniffer(eng)
	forwarded := 0
	h := sn.Tap(DirData, func(*packet.Packet) { forwarded++ })
	eng.At(10, func() { h(testPacket(5)) })
	eng.At(20, func() { h(testPacket(6)) })
	eng.RunAll(0)
	if forwarded != 2 {
		t.Errorf("forwarded = %d", forwarded)
	}
	caps := sn.Captures()
	if len(caps) != 2 || caps[0].Time != 10 || caps[1].Time != 20 {
		t.Errorf("captures = %+v", caps)
	}
	if caps[0].Dir != DirData {
		t.Errorf("dir = %v", caps[0].Dir)
	}
	span, ok := sn.Span()
	if !ok || span.Start != 10 || span.End != 21 {
		t.Errorf("span = %v,%v", span, ok)
	}
}

func TestSnifferDropRate(t *testing.T) {
	eng := sim.New(0, 3)
	sn := NewSniffer(eng)
	sn.DropRate = 0.5
	forwarded := 0
	h := sn.Tap(DirData, func(*packet.Packet) { forwarded++ })
	for i := 0; i < 200; i++ {
		h(testPacket(1))
	}
	if forwarded != 200 {
		t.Errorf("sniffer must forward everything; forwarded=%d", forwarded)
	}
	if got := len(sn.Captures()); got == 0 || got == 200 {
		t.Errorf("captures = %d, want partial", got)
	}
	sn.Reset()
	if len(sn.Captures()) != 0 {
		t.Error("Reset did not clear captures")
	}
}

func TestPathEndToEnd(t *testing.T) {
	eng := sim.New(0, 1)
	var recvTimes, sendTimes []sim.Micros
	p := NewPath(eng, PathConfig{
		UpstreamDelay:   10_000,
		DownstreamDelay: 100,
	},
		func(*packet.Packet) { recvTimes = append(recvTimes, eng.Now()) },
		func(*packet.Packet) { sendTimes = append(sendTimes, eng.Now()) },
	)
	eng.At(0, func() { p.DataIn(testPacket(100)) })
	eng.At(0, func() { p.AckIn(testPacket(0)) })
	eng.RunAll(0)
	if len(recvTimes) != 1 || recvTimes[0] != 10_100 {
		t.Errorf("data arrival = %v, want [10100]", recvTimes)
	}
	if len(sendTimes) != 1 || sendTimes[0] != 10_100 {
		t.Errorf("ack arrival = %v, want [10100]", sendTimes)
	}
	caps := p.Sniffer.Captures()
	if len(caps) != 2 {
		t.Fatalf("captures = %d, want 2", len(caps))
	}
	// Data is captured after the upstream link; the ACK immediately.
	var dataCap, ackCap *Capture
	for i := range caps {
		if caps[i].Dir == DirData {
			dataCap = &caps[i]
		} else {
			ackCap = &caps[i]
		}
	}
	if dataCap == nil || dataCap.Time != 10_000 {
		t.Errorf("data capture = %+v", dataCap)
	}
	if ackCap == nil || ackCap.Time != 0 {
		t.Errorf("ack capture = %+v", ackCap)
	}
}

func TestDirectionString(t *testing.T) {
	if DirData.String() != "data" || DirAck.String() != "ack" {
		t.Error("Direction.String mismatch")
	}
}

func TestAckLossIndependentOfDataLoss(t *testing.T) {
	// Data-direction loss must not drop ACKs (paper footnote 5 would
	// otherwise misclassify upstream-loss scenarios).
	eng := sim.New(0, 21)
	dataGot, ackGot := 0, 0
	p := NewPath(eng, PathConfig{UpstreamLoss: 1.0}, // every data packet dies
		func(*packet.Packet) { dataGot++ },
		func(*packet.Packet) { ackGot++ },
	)
	for i := 0; i < 20; i++ {
		p.DataIn(testPacket(100))
		p.AckIn(testPacket(0))
	}
	eng.RunAll(0)
	if dataGot != 0 {
		t.Errorf("data delivered %d with 100%% upstream loss", dataGot)
	}
	if ackGot != 20 {
		t.Errorf("acks delivered %d of 20, want every one", ackGot)
	}
}
