package bgpsim

import (
	"net/netip"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/netem"
	"tdat/internal/sim"
)

// makeTable builds a routing table with one attribute group per four
// routes, so a table of n routes packs into roughly n/4 UPDATE messages —
// the granularity real tables show rather than a handful of giant updates.
func makeTable(n int) []bgp.Route {
	routes := make([]bgp.Route, 0, n)
	for i := 0; i < n; i++ {
		group := i / 4
		attrs := &bgp.PathAttrs{
			Origin:  uint8(group % 3),
			ASPath:  []uint16{7018, uint16(1000 + group%5000)},
			NextHop: netip.MustParseAddr("10.9.0.1"),
		}
		addr := netip.AddrFrom4([4]byte{byte(20 + i>>16), byte(i >> 8), byte(i), 0})
		routes = append(routes, bgp.Route{
			Prefix: netip.PrefixFrom(addr, 24),
			Attrs:  attrs,
		})
	}
	return routes
}

func spec() ConnSpec {
	return ConnSpec{
		RouterAddr:    netip.MustParseAddr("10.0.0.1"),
		CollectorAddr: netip.MustParseAddr("10.0.0.2"),
		Path:          netem.PathConfig{UpstreamDelay: 2000, DownstreamDelay: 100},
	}
}

// runTransfer wires one router+collector, runs until quiet, and returns the
// collector session plus helpers.
func runTransfer(t *testing.T, seed int64, table []bgp.Route, scfg SpeakerConfig, ccfg CollectorConfig, cs ConnSpec, horizon Micros) (*CollectorSession, *Session, *sim.Engine) {
	t.Helper()
	eng := sim.New(0, seed)
	conn := Dial(eng, cs, 7018)
	speaker := NewSpeaker(eng, scfg)
	speaker.Table = table
	sess := speaker.AddSession(conn.RouterPeer, nil)
	host := NewCollectorHost(eng, ccfg)
	csess := host.AddSession(conn.CollectorPeer, 7018)
	eng.Run(horizon)
	return csess, sess, eng
}

func countPrefixes(t *testing.T, entries []ArchiveEntry) int {
	t.Helper()
	n := 0
	for _, e := range entries {
		m, err := bgp.Parse(e.Raw)
		if err != nil {
			t.Fatalf("archived message does not parse: %v", err)
		}
		if u, ok := m.(*bgp.Update); ok {
			n += len(u.NLRI)
		}
	}
	return n
}

func TestTableTransferCompletes(t *testing.T) {
	table := makeTable(500)
	csess, sess, _ := runTransfer(t, 1, table, SpeakerConfig{AS: 7018}, CollectorConfig{}, spec(), 60_000_000)
	if csess.Peer().State() != PeerEstablished {
		t.Fatalf("collector peer state = %v", csess.Peer().State())
	}
	if got := countPrefixes(t, csess.Archive()); got != len(table) {
		t.Errorf("collector received %d prefixes, want %d", got, len(table))
	}
	if sess.SentUpdates() == 0 {
		t.Error("no updates recorded as sent")
	}
}

func TestTransferQueuedCallback(t *testing.T) {
	eng := sim.New(0, 2)
	conn := Dial(eng, spec(), 7018)
	speaker := NewSpeaker(eng, SpeakerConfig{AS: 7018})
	speaker.Table = makeTable(300)
	sess := speaker.AddSession(conn.RouterPeer, nil)
	var gotUpdates, gotBytes int
	sess.OnTransferQueued = func(n, b int) { gotUpdates, gotBytes = n, b }
	host := NewCollectorHost(eng, CollectorConfig{})
	host.AddSession(conn.CollectorPeer, 7018)
	eng.Run(60_000_000)
	if gotUpdates == 0 || gotBytes == 0 {
		t.Errorf("transfer queued callback: updates=%d bytes=%d", gotUpdates, gotBytes)
	}
}

func TestPacingCreatesGaps(t *testing.T) {
	// With 200 ms pacing and a 2-message budget, update arrivals must show
	// repetitive ~200 ms gaps (paper §II-B1 / Fig 5).
	table := makeTable(400)
	scfg := SpeakerConfig{AS: 7018, PacingInterval: 200_000, PacingBudget: 2}
	csess, _, _ := runTransfer(t, 3, table, scfg, CollectorConfig{}, spec(), 120_000_000)
	if got := countPrefixes(t, csess.Archive()); got != len(table) {
		t.Fatalf("received %d prefixes, want %d", got, len(table))
	}
	// Measure inter-update gaps at the collector.
	var gaps []Micros
	arch := csess.Archive()
	for i := 1; i < len(arch); i++ {
		gaps = append(gaps, arch[i].Time-arch[i-1].Time)
	}
	big := 0
	for _, g := range gaps {
		if g > 150_000 && g < 250_000 {
			big++
		}
	}
	if big < 2 {
		t.Errorf("expected repetitive ~200ms pacing gaps, found %d in %d gaps", big, len(gaps))
	}
}

func TestUnpacedIsFasterThanPaced(t *testing.T) {
	table := makeTable(400)
	duration := func(scfg SpeakerConfig) Micros {
		csess, _, _ := runTransfer(t, 4, table, scfg, CollectorConfig{}, spec(), 200_000_000)
		arch := csess.Archive()
		if countPrefixes(t, arch) != len(table) {
			t.Fatal("incomplete transfer")
		}
		return arch[len(arch)-1].Time - arch[0].Time
	}
	fast := duration(SpeakerConfig{AS: 7018})
	slow := duration(SpeakerConfig{AS: 7018, PacingInterval: 200_000, PacingBudget: 2})
	if slow < fast*3 {
		t.Errorf("paced transfer (%d µs) should be much slower than unpaced (%d µs)", slow, fast)
	}
}

func TestSlowCollectorClosesWindow(t *testing.T) {
	// A 20 KB/s collector against a fast sender must exhibit zero-window
	// stalls (receiver app limited).
	table := makeTable(6000)
	// A coarse scheduling interval makes the BGP process read in bursts, so
	// the buffer sits full between wake-ups — the zero-window pattern.
	ccfg := CollectorConfig{TotalRate: 20_000, ProcessInterval: 500_000}
	cs := spec()
	cs.CollectorTCP.RecvBuf = 8192
	csess, sess, _ := runTransfer(t, 5, table, SpeakerConfig{AS: 7018}, ccfg, cs, 300_000_000)
	if got := countPrefixes(t, csess.Archive()); got != len(table) {
		t.Fatalf("received %d prefixes, want %d", got, len(table))
	}
	routerStats := sess.Peer().Endpoint().Stats()
	if routerStats.ZeroWindowAcks == 0 && csess.Peer().Endpoint().Stats().ZeroWindowAcks == 0 {
		t.Error("slow collector never advertised a zero window")
	}
}

func TestKeepalivesDuringIdleSession(t *testing.T) {
	// Empty table: after establishment the session idles; keepalives must
	// flow both ways and the session must stay up past several intervals.
	csess, sess, eng := runTransfer(t, 6, nil,
		SpeakerConfig{AS: 7018, HoldTime: 9_000_000, KeepaliveInterval: 3_000_000},
		CollectorConfig{}, spec(), 60_000_000)
	_ = eng
	if sess.Peer().State() != PeerEstablished {
		t.Errorf("router session state = %v, want established", sess.Peer().State())
	}
	if csess.Peer().State() != PeerEstablished {
		t.Errorf("collector session state = %v, want established", csess.Peer().State())
	}
}

func TestHoldTimerFiresAgainstDeadPeer(t *testing.T) {
	eng := sim.New(0, 7)
	conn := Dial(eng, spec(), 7018)
	speaker := NewSpeaker(eng, SpeakerConfig{AS: 7018})
	speaker.Table = makeTable(50)
	speaker.AddSession(conn.RouterPeer, nil)
	host := NewCollectorHost(eng, CollectorConfig{})
	host.AddSession(conn.CollectorPeer, 7018)

	var downReason string
	var downAt Micros
	prev := conn.RouterPeer.OnDown
	conn.RouterPeer.OnDown = func(r string) {
		downReason, downAt = r, eng.Now()
		if prev != nil {
			prev(r)
		}
	}
	// Kill the collector host 5 s in.
	eng.At(5_000_000, func() { conn.CollectorPeer.Endpoint().Kill() })
	eng.Run(400_000_000)

	if downReason != "hold timer expired" {
		t.Fatalf("router session down reason = %q", downReason)
	}
	// Hold expiry should land roughly holdTime after the last received
	// message (within a couple of keepalive intervals of the kill).
	if downAt < 180_000_000 || downAt > 250_000_000 {
		t.Errorf("hold expiry at %d µs", downAt)
	}
}

func TestPeerGroupLockstep(t *testing.T) {
	// Two collectors in one group; one is killed mid-transfer. The healthy
	// session must stall until the dead session's hold timer removes it,
	// then resume and complete (paper Fig 9).
	eng := sim.New(0, 8)
	table := makeTable(3000)

	specA := spec()
	specA.RouterTCP.SendBuf = 8192 // small socket buffers make the dead
	specB := spec()                // member's cursor stall quickly
	specB.RouterTCP.SendBuf = 8192
	specB.CollectorAddr = netip.MustParseAddr("10.0.0.3")
	connA := Dial(eng, specA, 7018) // healthy (Quagga)
	connB := Dial(eng, specB, 7018) // will fail (Vendor)

	speaker := NewSpeaker(eng, SpeakerConfig{
		AS: 7018, GroupQueueSlack: 8,
		// Short hold time to keep the test fast.
		HoldTime: 30_000_000, KeepaliveInterval: 10_000_000,
		PacingInterval: 50_000, PacingBudget: 4,
	})
	speaker.Table = table
	group := speaker.NewPeerGroup()
	sessA := speaker.AddSession(connA.RouterPeer, group)
	sessB := speaker.AddSession(connB.RouterPeer, group)

	hostA := NewCollectorHost(eng, CollectorConfig{})
	csessA := hostA.AddSession(connA.CollectorPeer, 7018)
	hostB := NewCollectorHost(eng, CollectorConfig{})
	hostB.AddSession(connB.CollectorPeer, 7018)

	// Kill collector B one second into the transfer.
	killAt := Micros(1_000_000)
	eng.At(killAt, func() { connB.CollectorPeer.Endpoint().Kill() })
	eng.Run(600_000_000)

	if got := countPrefixes(t, csessA.Archive()); got != len(table) {
		t.Fatalf("healthy collector got %d prefixes, want %d", got, len(table))
	}
	// Find the largest inter-update gap at the healthy collector: it must be
	// roughly the hold time (the blocking period).
	arch := csessA.Archive()
	var maxGap Micros
	for i := 1; i < len(arch); i++ {
		if g := arch[i].Time - arch[i-1].Time; g > maxGap {
			maxGap = g
		}
	}
	if maxGap < 20_000_000 {
		t.Errorf("expected a blocking gap near the 30 s hold time, max gap = %d µs", maxGap)
	}
	if sessB.Peer().State() != PeerDown {
		t.Errorf("failed session state = %v, want down", sessB.Peer().State())
	}
	_ = sessA
}

func TestPeerGroupNoBlockingWhenHealthy(t *testing.T) {
	// Two healthy members: lockstep slack must not add substantial delay.
	eng := sim.New(0, 9)
	table := makeTable(600)
	specA := spec()
	specB := spec()
	specB.CollectorAddr = netip.MustParseAddr("10.0.0.3")
	connA := Dial(eng, specA, 7018)
	connB := Dial(eng, specB, 7018)
	speaker := NewSpeaker(eng, SpeakerConfig{AS: 7018, GroupQueueSlack: 8})
	speaker.Table = table
	group := speaker.NewPeerGroup()
	speaker.AddSession(connA.RouterPeer, group)
	speaker.AddSession(connB.RouterPeer, group)
	hostA := NewCollectorHost(eng, CollectorConfig{})
	csA := hostA.AddSession(connA.CollectorPeer, 7018)
	hostB := NewCollectorHost(eng, CollectorConfig{})
	csB := hostB.AddSession(connB.CollectorPeer, 7018)
	eng.Run(120_000_000)
	if countPrefixes(t, csA.Archive()) != len(table) || countPrefixes(t, csB.Archive()) != len(table) {
		t.Error("group transfer incomplete for a healthy pair")
	}
}

func TestSnifferSeesTransfer(t *testing.T) {
	eng := sim.New(0, 11)
	conn := Dial(eng, spec(), 7018)
	speaker := NewSpeaker(eng, SpeakerConfig{AS: 7018})
	speaker.Table = makeTable(4000)
	speaker.AddSession(conn.RouterPeer, nil)
	host := NewCollectorHost(eng, CollectorConfig{})
	host.AddSession(conn.CollectorPeer, 7018)
	eng.Run(60_000_000)

	caps := conn.Sniffer().Captures()
	if len(caps) < 20 {
		t.Fatalf("sniffer captured only %d packets", len(caps))
	}
	data, acks := 0, 0
	for _, c := range caps {
		switch c.Dir {
		case netem.DirData:
			data++
		case netem.DirAck:
			acks++
		}
	}
	if data == 0 || acks == 0 {
		t.Errorf("capture dirs: data=%d acks=%d", data, acks)
	}
}

func TestLossyTransferStillCompletes(t *testing.T) {
	cs := spec()
	cs.Path.UpstreamLoss = 0.03
	table := makeTable(400)
	csess, _, _ := runTransfer(t, 12, table, SpeakerConfig{AS: 7018}, CollectorConfig{}, cs, 600_000_000)
	if got := countPrefixes(t, csess.Archive()); got != len(table) {
		t.Errorf("lossy transfer delivered %d prefixes, want %d", got, len(table))
	}
}

func TestLossEpisodeForcesConsecutiveRetransmissions(t *testing.T) {
	cs := spec()
	// Sustained 10% receiver-side loss guarantees several drops per
	// congestion window and therefore repeated retransmission rounds.
	cs.Path.DownstreamLoss = 0.10
	table := makeTable(30_000)
	csess, sess, _ := runTransfer(t, 13, table, SpeakerConfig{AS: 7018}, CollectorConfig{}, cs, 600_000_000)
	if got := countPrefixes(t, csess.Archive()); got != len(table) {
		t.Fatalf("delivered %d prefixes, want %d", got, len(table))
	}
	if sess.Peer().Endpoint().Stats().Retransmits < 3 {
		t.Errorf("expected consecutive retransmissions, got %d",
			sess.Peer().Endpoint().Stats().Retransmits)
	}
}

func TestPeerStateString(t *testing.T) {
	for st, want := range map[PeerState]string{
		PeerIdle: "idle", PeerOpenSent: "open-sent", PeerOpenConfirm: "open-confirm",
		PeerEstablished: "established", PeerDown: "down", PeerState(42): "unknown",
	} {
		if st.String() != want {
			t.Errorf("PeerState(%d) = %q, want %q", st, st.String(), want)
		}
	}
}

func TestEnqueueWithdrawalsReachCollector(t *testing.T) {
	table := makeTable(400)
	eng := sim.New(0, 44)
	conn := Dial(eng, spec(), 7018)
	speaker := NewSpeaker(eng, SpeakerConfig{AS: 7018})
	speaker.Table = table
	sess := speaker.AddSession(conn.RouterPeer, nil)
	host := NewCollectorHost(eng, CollectorConfig{})
	csess := host.AddSession(conn.CollectorPeer, 7018)
	eng.Run(30_000_000)

	// Withdraw the first 100 prefixes mid-session.
	var prefixes []bgp.Prefix
	for _, r := range table[:100] {
		prefixes = append(prefixes, r.Prefix)
	}
	if err := sess.EnqueueWithdrawals(prefixes); err != nil {
		t.Fatal(err)
	}
	eng.Run(60_000_000)

	withdrawn := 0
	for _, e := range csess.Archive() {
		m, err := bgp.Parse(e.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if u, ok := m.(*bgp.Update); ok {
			withdrawn += len(u.Withdrawn)
		}
	}
	if withdrawn != 100 {
		t.Errorf("collector saw %d withdrawals, want 100", withdrawn)
	}
}
