package tracegen

import (
	"fmt"
	"math/rand"
	"net/netip"

	"tdat/internal/bgpsim"
	"tdat/internal/netem"
	"tdat/internal/packet"
	"tdat/internal/sim"
	"tdat/internal/tcpsim"
	"tdat/internal/timerange"
)

// WeightedKind is one entry in a dataset's scenario mix.
type WeightedKind struct {
	Weight   float64
	Scenario Scenario
}

// Router models one operational router's stable characteristics across its
// repeated table transfers (distance to the collector, table size).
type Router struct {
	ID     int
	RTT    Micros
	Routes int
}

// DatasetProfile describes one of the paper's traces at reproduction scale.
type DatasetProfile struct {
	Name      string
	Transfers int
	Routers   int
	BaseSeed  int64
	// Mix is normalized internally.
	Mix []WeightedKind
	// CollectorRecvBuf overrides the collector's receive buffer for every
	// scenario that doesn't set its own (ISP_A 65535 vs RouteViews 16384).
	CollectorRecvBuf int
	// RTOBackoff lets a profile model aggressive RTO growth (RouteViews).
	RTOBackoff float64
	// UseArchive marks Quagga-style collectors whose MRT archive pins the
	// transfer end; vendor-style collectors need payload reassembly.
	UseArchive bool
}

// Pick is one transfer's pre-drawn scenario: all the profile's random
// choices (router, scenario kind, per-transfer seed) made ahead of the
// simulation. Drawing every pick up front keeps the RNG strictly
// sequential, so the simulations themselves — each seeded only by its
// pick — can run on any number of workers with identical results.
type Pick struct {
	Index    int
	Router   Router
	Scenario Scenario
}

// Picks draws every transfer's scenario in order; RunWithProfile runs
// one.
func (p DatasetProfile) Picks() []Pick {
	rnd := rand.New(rand.NewSource(p.BaseSeed))
	routers := make([]Router, p.Routers)
	for i := range routers {
		routers[i] = Router{
			ID:     i,
			RTT:    Micros(2_000 + rnd.Intn(28_000)), // 2–30 ms
			Routes: 8_000 + rnd.Intn(16_000),         // table size per router
		}
	}
	total := 0.0
	for _, m := range p.Mix {
		total += m.Weight
	}
	picks := make([]Pick, 0, p.Transfers)
	for i := 0; i < p.Transfers; i++ {
		r := routers[rnd.Intn(len(routers))]
		// Weighted scenario pick.
		x := rnd.Float64() * total
		sc := p.Mix[len(p.Mix)-1].Scenario
		for _, m := range p.Mix {
			if x < m.Weight {
				sc = m.Scenario
				break
			}
			x -= m.Weight
		}
		sc.Seed = p.BaseSeed + int64(i)*7919
		sc.RTT = r.RTT
		sc.Routes = r.Routes
		picks = append(picks, Pick{Index: i, Router: r, Scenario: sc})
	}
	return picks
}

// RunWithProfile is Run with the profile-wide TCP overrides (RTO backoff,
// default collector buffer) applied.
func RunWithProfile(sc Scenario, p DatasetProfile) *Trace {
	return runScenario(sc, p.RTOBackoff, p.CollectorRecvBuf)
}

// Paper-profile constructors. Transfer counts are scaled from the paper's
// (10396 / 436 / 94) so the whole suite runs in minutes on one core;
// pass the scale knobs the experiments use.

// ISPAVendor models the ISP_A vendor-collector trace: frequent resets
// (vendor bug), 65 KB windows, sender-side pathologies dominant.
func ISPAVendor(transfers, routers int, seed int64) DatasetProfile {
	return DatasetProfile{
		Name: "ISPA-Vendor", Transfers: transfers, Routers: routers, BaseSeed: seed,
		CollectorRecvBuf: 65535,
		Mix: []WeightedKind{
			{0.38, Scenario{Kind: KindPaced, PacingTimer: 200_000, PacingBudget: 24}},
			{0.10, Scenario{Kind: KindPaced, PacingTimer: 400_000, PacingBudget: 48}},
			{0.17, Scenario{Kind: KindClean}},
			{0.22, Scenario{Kind: KindSlowReceiver, CollectorRate: 30_000}},
			{0.06, Scenario{Kind: KindSmallWindow, RecvBuf: 65535}},
			{0.03, Scenario{Kind: KindUpstreamLoss, LossRate: 0.04}},
			{0.015, Scenario{Kind: KindDownstreamLoss, LossRate: 0.04}},
			{0.015, Scenario{Kind: KindDownstreamLoss, LossEpisodes: []timerange.Range{timerange.R(300_000, 1_500_000)}}},
			{0.008, Scenario{Kind: KindZeroAckBug}},
			{0.002, Scenario{Kind: KindBandwidth}},
		},
	}
}

// ISPAQuagga models the ISP_A Quagga-collector trace: fewer transfers,
// sender- or receiver-bound, 100/200 ms timers.
func ISPAQuagga(transfers, routers int, seed int64) DatasetProfile {
	return DatasetProfile{
		Name: "ISPA-Quagga", Transfers: transfers, Routers: routers, BaseSeed: seed,
		CollectorRecvBuf: 65535,
		UseArchive:       true,
		Mix: []WeightedKind{
			{0.25, Scenario{Kind: KindPaced, PacingTimer: 100_000, PacingBudget: 32}},
			{0.15, Scenario{Kind: KindPaced, PacingTimer: 200_000, PacingBudget: 24}},
			{0.12, Scenario{Kind: KindClean}},
			{0.34, Scenario{Kind: KindSlowReceiver, CollectorRate: 20_000}},
			{0.08, Scenario{Kind: KindSmallWindow, RecvBuf: 65535}},
			{0.02, Scenario{Kind: KindUpstreamLoss, LossRate: 0.04}},
			{0.015, Scenario{Kind: KindDownstreamLoss, LossRate: 0.03}},
			{0.015, Scenario{Kind: KindUpstreamLoss, LossEpisodes: []timerange.Range{timerange.R(300_000, 1_500_000)}}},
			{0.01, Scenario{Kind: KindBandwidth}},
		},
	}
}

// RouteViews models the RV trace: eBGP distances, a 16 KB advertised
// window, aggressive RTO backoff, and more network loss.
func RouteViews(transfers, routers int, seed int64) DatasetProfile {
	return DatasetProfile{
		Name: "RouteViews", Transfers: transfers, Routers: routers, BaseSeed: seed,
		CollectorRecvBuf: 16384,
		RTOBackoff:       3.0,
		Mix: []WeightedKind{
			{0.18, Scenario{Kind: KindPaced, PacingTimer: 80_000, PacingBudget: 24}},
			{0.10, Scenario{Kind: KindPaced, PacingTimer: 400_000, PacingBudget: 48}},
			{0.26, Scenario{Kind: KindClean}},
			{0.26, Scenario{Kind: KindSmallWindow, RecvBuf: 16384}},
			{0.10, Scenario{Kind: KindUpstreamLoss, LossRate: 0.06}},
			{0.04, Scenario{Kind: KindUpstreamLoss, LossEpisodes: []timerange.Range{timerange.R(300_000, 2_000_000)}}},
			{0.06, Scenario{Kind: KindDownstreamLoss, LossRate: 0.05}},
		},
	}
}

// PeerGroupResult carries the coupled traces of a blocking scenario.
type PeerGroupResult struct {
	// Members holds every member's trace in dial order: the healthy
	// (Quagga) collectors first, the killed vendor collector last.
	Members []*Trace
	Healthy *Trace // the first healthy session, Members[0]
	Faulty  *Trace // the killed (vendor) session, the last member
	// KillAt and HoldExpiry are the ground-truth t1 and t2 of paper Fig 9.
	KillAt     Micros
	HoldExpiry Micros
}

// RunPeerGroup reproduces paper Fig 9: members collectors (two or more)
// share one peer group, and the vendor collector, dialed last, dies at
// killAt and blocks every healthy session until the router's hold timer
// removes it. The healthy collectors are 10.0.0.2, 10.0.0.3, … in dial
// order. More members amplify the blocking, as the paper warns: "the
// effect of this problem would be amplified by the number of routers in
// the group".
func RunPeerGroup(seed int64, members, routes int, killAt, hold Micros) *PeerGroupResult {
	members = max(members, 2)
	eng := sim.New(0, seed)
	speaker := bgpsim.NewSpeaker(eng, bgpsim.SpeakerConfig{
		AS:                7018,
		HoldTime:          hold,
		KeepaliveInterval: hold / 3,
		GroupQueueSlack:   8,
		PacingInterval:    50_000,
		PacingBudget:      6,
	})
	speaker.Table = Table(eng.Rand(), routes)
	group := speaker.NewPeerGroup()

	conns := make([]*bgpsim.Conn, members)
	sessions := make([]*bgpsim.CollectorSession, members)
	for i := range conns {
		conns[i] = bgpsim.Dial(eng, bgpsim.ConnSpec{
			RouterAddr:    netip.MustParseAddr("10.0.0.1"),
			CollectorAddr: netip.AddrFrom4([4]byte{10, 0, 0, byte(2 + i)}),
			RouterTCP:     tcpsim.Config{SendBuf: 16384},
			Path: netem.PathConfig{
				UpstreamDelay:   4_000,
				DownstreamDelay: 200,
			},
		}, 7018)
		speaker.AddSession(conns[i].RouterPeer, group)
		sessions[i] = bgpsim.NewCollectorHost(eng, bgpsim.CollectorConfig{}).AddSession(conns[i].CollectorPeer, 7018)
	}

	res := &PeerGroupResult{KillAt: killAt}
	vendor := conns[members-1]
	prev := vendor.RouterPeer.OnDown
	vendor.RouterPeer.OnDown = func(r string) {
		res.HoldExpiry = eng.Now()
		if prev != nil {
			prev(r)
		}
	}
	eng.At(killAt, func() { vendor.CollectorPeer.Endpoint().Kill() })
	eng.Run(hold*3 + 600_000_000)

	res.Members = make([]*Trace, members)
	for i, conn := range conns {
		res.Members[i] = (&Trace{Captures: conn.Sniffer().Captures(), Archive: sessions[i].Archive()}).finish()
	}
	res.Healthy, res.Faulty = res.Members[0], res.Members[members-1]
	return res
}

// RunIncast reproduces the concurrent-transfer scenarios (paper Fig 7 and
// Fig 15): n routers start table transfers to one collector host at the
// same time; their data funnels through one shared drop-tail queue in front
// of the collector (the receiver interface), and the collector's processing
// budget is shared. It returns one trace per connection.
func RunIncast(seed int64, n, routes int, sharedQueue int, collectorRate int64) []*Trace {
	eng := sim.New(0, seed)
	collAddr := netip.MustParseAddr("10.0.0.200")

	// Collector endpoints, demuxed by destination port.
	eps := map[uint16]*tcpsim.Endpoint{}
	demux := func(p *packet.Packet) {
		if ep, ok := eps[p.TCP.DstPort]; ok {
			ep.Deliver(p)
		}
	}
	shared := netem.NewLink(eng, demux)
	shared.Rate = 10_000_000 // 10 MB/s receiver interface
	shared.Delay = 100
	shared.QueueCap = sharedQueue

	host := bgpsim.NewCollectorHost(eng, bgpsim.CollectorConfig{TotalRate: collectorRate})

	type wire struct {
		conn  *connParts
		csess *bgpsim.CollectorSession
	}
	wires := make([]wire, 0, n)
	for i := 0; i < n; i++ {
		w := buildIncastConn(eng, i, collAddr, shared, eps)
		table := Table(eng.Rand(), routes)
		speaker := bgpsim.NewSpeaker(eng, bgpsim.SpeakerConfig{AS: uint16(100 + i)})
		speaker.Table = table
		speaker.AddSession(w.routerPeer, nil)
		cs := host.AddSession(w.collectorPeer, uint16(100+i))
		wires = append(wires, wire{conn: w, csess: cs})
	}
	eng.Run(1_800_000_000)

	out := make([]*Trace, 0, n)
	for _, w := range wires {
		out = append(out, (&Trace{
			Captures:    w.conn.sniffer.Captures(),
			Archive:     w.csess.Archive(),
			RouterStats: w.conn.routerPeer.Endpoint().Stats(),
		}).finish())
	}
	return out
}

// connParts is the hand-wired topology of one incast connection.
type connParts struct {
	routerPeer    *bgpsim.Peer
	collectorPeer *bgpsim.Peer
	sniffer       *netem.Sniffer
}

// buildIncastConn wires router i → own upstream link → own sniffer tap →
// the shared downstream link; ACKs return over a private reverse path.
func buildIncastConn(eng *sim.Engine, i int, collAddr netip.Addr, shared *netem.Link, eps map[uint16]*tcpsim.Endpoint) *connParts {
	routerAddr := netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
	collPort := uint16(41000 + i)

	var routerEP, collectorEP *tcpsim.Endpoint
	sniffer := netem.NewSniffer(eng)

	up := netem.NewLink(eng, sniffer.Tap(netem.DirData, shared.Send))
	up.Delay = Micros(15_000 + i%7*1_000)

	ack := netem.NewLink(eng, func(p *packet.Packet) { routerEP.Deliver(p) })
	ack.Delay = up.Delay + 100

	routerEP = tcpsim.NewEndpoint(eng, tcpsim.Config{Addr: routerAddr, Port: 179},
		func(p *packet.Packet) { up.Send(p) })
	collectorEP = tcpsim.NewEndpoint(eng, tcpsim.Config{Addr: collAddr, Port: collPort},
		tcpsim.Handler(sniffer.Tap(netem.DirAck, ack.Send)))
	collectorEP.Listen()
	eps[collPort] = collectorEP

	routerPeer := bgpsim.NewPeer(eng, routerEP, fmt.Sprintf("router-%d", i), uint16(100+i), true)
	collectorPeer := bgpsim.NewPeer(eng, collectorEP, "collector", 65000, false)
	routerEP.Connect(collAddr, collPort)
	return &connParts{routerPeer: routerPeer, collectorPeer: collectorPeer, sniffer: sniffer}
}

// RunWithReset reproduces the ISP_A-1 vendor bug (paper §II-B: "frequent
// BGP session resets"): the transfer is killed by a RST mid-flight and the
// router immediately redials on the SAME 4-tuple, so one capture carries
// two table transfers back to back.
func RunWithReset(sc Scenario, resetAt Micros) *Trace {
	sc = sc.withDefaults()
	eng := sim.New(0, sc.Seed)
	table := Table(eng.Rand(), sc.Routes)
	spec := observedSpec(sc, netip.MustParseAddr("10.0.0.2"))

	// Rebindable endpoints behind stable handlers, so both connection
	// generations share one path and one sniffer.
	var routerEP, collectorEP *tcpsim.Endpoint
	path := netem.NewPath(eng, spec.Path,
		func(p *packet.Packet) { collectorEP.Deliver(p) },
		func(p *packet.Packet) { routerEP.Deliver(p) },
	)

	scfg := bgpsim.SpeakerConfig{AS: 7018}
	if sc.Kind == KindPaced {
		scfg.PacingInterval = sc.PacingTimer
		scfg.PacingBudget = sc.PacingBudget
	}
	speaker := bgpsim.NewSpeaker(eng, scfg)
	speaker.Table = table
	host := bgpsim.NewCollectorHost(eng, bgpsim.CollectorConfig{})

	var csessions []*bgpsim.CollectorSession
	dial := func() {
		routerEP = tcpsim.NewEndpoint(eng, tcpsim.Config{Addr: spec.RouterAddr, Port: 179},
			tcpsim.Handler(path.DataIn))
		collectorEP = tcpsim.NewEndpoint(eng, tcpsim.Config{Addr: spec.CollectorAddr, Port: 41000},
			tcpsim.Handler(path.AckIn))
		collectorEP.Listen()
		routerPeer := bgpsim.NewPeer(eng, routerEP, "router", 7018, true)
		collectorPeer := bgpsim.NewPeer(eng, collectorEP, "collector", 65000, false)
		speaker.AddSession(routerPeer, nil)
		csessions = append(csessions, host.AddSession(collectorPeer, 7018))
		routerEP.Connect(spec.CollectorAddr, 41000)
	}
	dial()
	eng.At(resetAt, func() {
		routerEP.Abort()
		collectorEP.Kill() // the old listener must not swallow the new SYN
		eng.After(200_000, dial)
	})
	eng.Run(sc.Horizon)

	tr := &Trace{Kind: sc.Kind, Captures: path.Sniffer.Captures()}
	for _, cs := range csessions {
		tr.Archive = append(tr.Archive, cs.Archive()...)
	}
	return tr.finish()
}
