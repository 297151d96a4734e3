package bgpsim

import (
	"net/netip"

	"tdat/internal/netem"
	"tdat/internal/packet"
	"tdat/internal/sim"
	"tdat/internal/tcpsim"
)

// ConnSpec describes one router↔collector connection: the addresses and TCP
// parameters of both ends and the path between them (the sniffer sits at
// the collector side, per the paper's Figure 2). The router's end takes the
// BGP port 179 and the collector's end port 41000.
type ConnSpec struct {
	RouterAddr    netip.Addr
	CollectorAddr netip.Addr

	RouterTCP    tcpsim.Config // Addr/Port fields are filled in
	CollectorTCP tcpsim.Config
	Path         netem.PathConfig
}

// Conn is a wired router↔collector connection with its sniffer.
type Conn struct {
	RouterPeer    *Peer
	CollectorPeer *Peer
	Path          *netem.Path
}

// Sniffer returns the tap between the path segments.
func (c *Conn) Sniffer() *netem.Sniffer { return c.Path.Sniffer }

// Dial builds the endpoints, path, and BGP peers for one connection and
// initiates the TCP handshake from the router side (routers re-establish
// sessions toward collectors after resets, per paper §IV-A). The returned
// peers are not yet attached to a Speaker or CollectorHost; attach them
// before running the engine.
func Dial(eng *sim.Engine, spec ConnSpec, routerAS uint16) *Conn {
	rcfg := spec.RouterTCP
	rcfg.Addr, rcfg.Port = spec.RouterAddr, 179
	ccfg := spec.CollectorTCP
	ccfg.Addr, ccfg.Port = spec.CollectorAddr, 41000

	var routerEP, collectorEP *tcpsim.Endpoint
	path := netem.NewPath(eng, spec.Path,
		func(p *packet.Packet) { collectorEP.Deliver(p) },
		func(p *packet.Packet) { routerEP.Deliver(p) },
	)
	routerEP = tcpsim.NewEndpoint(eng, rcfg, tcpsim.Handler(path.DataIn))
	collectorEP = tcpsim.NewEndpoint(eng, ccfg, tcpsim.Handler(path.AckIn))
	collectorEP.Listen()

	routerPeer := NewPeer(eng, routerEP, "router", routerAS, true)
	collectorPeer := NewPeer(eng, collectorEP, "collector", 65000, false)

	routerEP.Connect(ccfg.Addr, ccfg.Port)
	return &Conn{RouterPeer: routerPeer, CollectorPeer: collectorPeer, Path: path}
}
