// Package tracegen synthesizes the datasets the experiments run on. It
// stands in for the paper's proprietary inputs (ISP_A and RouteViews
// tcpdump + MRT archives): each Scenario wires a bgpsim router and
// collector over a netem path with one pathology dialed in, runs the
// discrete-event simulation, and returns the sniffer capture, the
// collector archive, and the scenario ground truth. Dataset profiles mix
// scenarios with weights chosen to mirror the paper's three traces.
package tracegen

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"strings"

	"tdat/internal/bgp"
	"tdat/internal/bgpsim"
	"tdat/internal/flows"
	"tdat/internal/mrt"
	"tdat/internal/netem"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/sim"
	"tdat/internal/tcpsim"
	"tdat/internal/timerange"
)

// Micros aliases the simulator time unit.
type Micros = sim.Micros

// routesPerGroup is how many consecutive routes of a synthesized table
// share one attribute set, and so pack into one UPDATE.
const routesPerGroup = 4

// Table synthesizes a routing table of n routes with one shared attribute
// set per routesPerGroup consecutive routes; AS-path lengths follow the
// short-tailed distribution of real tables (2–7 hops).
func Table(rnd *rand.Rand, n int) []bgp.Route {
	routes := make([]bgp.Route, 0, n)
	var attrs *bgp.PathAttrs
	for i := 0; i < n; i++ {
		if i%routesPerGroup == 0 || attrs == nil {
			pathLen := 2 + rnd.Intn(6)
			path := make([]uint16, pathLen)
			for j := range path {
				path[j] = uint16(rnd.Intn(64000) + 1)
			}
			attrs = &bgp.PathAttrs{
				Origin:  uint8(rnd.Intn(3)),
				ASPath:  path,
				NextHop: netip.AddrFrom4([4]byte{10, 9, byte(rnd.Intn(250)), byte(rnd.Intn(250) + 1)}),
			}
			if rnd.Intn(3) == 0 {
				attrs.HasMED, attrs.MED = true, uint32(rnd.Intn(500))
			}
		}
		bits := 24
		switch rnd.Intn(6) {
		case 0:
			bits = 16
		case 1:
			bits = 22
		case 2:
			bits = 20
		}
		addr := netip.AddrFrom4([4]byte{byte(20 + i>>16), byte(i >> 8), byte(i), 0})
		routes = append(routes, bgp.Route{
			Prefix: netip.PrefixFrom(addr, bits).Masked(),
			Attrs:  attrs,
		})
	}
	return routes
}

// Kind labels the dialed-in pathology of a scenario — the simulator's
// ground truth against which the analyzer's verdict is scored.
type Kind int

// Scenario kinds.
const (
	// KindClean is a healthy fast transfer (mildly cwnd/app limited).
	KindClean Kind = iota
	// KindPaced throttles the sender with an update pacing timer.
	KindPaced
	// KindSlowReceiver throttles the collector's processing rate.
	KindSlowReceiver
	// KindSmallWindow caps the collector's receive buffer (RouteViews'
	// 16 KB vs ISP_A's 64 KB).
	KindSmallWindow
	// KindUpstreamLoss drops packets on the sender side of the sniffer.
	KindUpstreamLoss
	// KindDownstreamLoss drops packets between sniffer and collector
	// (receiver-local).
	KindDownstreamLoss
	// KindBandwidth squeezes the upstream link rate.
	KindBandwidth
	// KindZeroAckBug enables the router's zero-window probe-discard bug
	// against a slow reader.
	KindZeroAckBug
	// KindHeavyTailApp drives the sender with Pareto-distributed idle gaps
	// and burst sizes (heavy-tailed application traffic).
	KindHeavyTailApp
	// KindBimodalApp drives the sender with a two-mode idle/burst mix
	// (steady trickle alternating with bulk batches).
	KindBimodalApp
	// KindVaryingRate runs the upstream link on a time-varying capacity
	// profile (step or sawtooth) instead of a fixed rate.
	KindVaryingRate
	// KindFanout replicates the transfer to a route-server-scale peer
	// group; the observed member stalls on the slack bound behind the
	// group's one slow collector.
	KindFanout
)

var kindNames = [...]string{
	"clean", "paced", "slow-receiver", "small-window", "upstream-loss",
	"downstream-loss", "bandwidth", "zero-ack-bug", "heavy-tail-app",
	"bimodal-app", "varying-rate", "fanout",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// ParseKind is the inverse of Kind.String.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if name == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown scenario kind %q (have %s)", name, strings.Join(kindNames[:], ", "))
}

// Scenario is one table-transfer run.
type Scenario struct {
	Kind   Kind
	Seed   int64
	Routes int
	// PacingTimer/PacingBudget configure KindPaced (default 200 ms / 24).
	PacingTimer  Micros
	PacingBudget int
	// CollectorRate configures KindSlowReceiver in bytes/sec (default 25k).
	CollectorRate int64
	// RecvBuf configures KindSmallWindow (default 16384).
	RecvBuf int
	// LossRate configures the loss kinds (default 0.05).
	LossRate float64
	// LossEpisodes optionally scripts loss windows (one faulty period, or
	// a flapping link) instead of i.i.d. loss.
	LossEpisodes []timerange.Range
	// UpstreamRate configures KindBandwidth in bytes/sec (default 40k).
	UpstreamRate int64
	// RTT is the round-trip propagation (default 8 ms).
	RTT Micros
	// Horizon bounds the simulation (default 1200 s).
	Horizon Micros
	// Stack selects the sender-stack personality (tcpsim.ApplyStack): the
	// router's congestion control plus any receiver quirk. The zero value
	// is Reno, preserving every existing trace byte-for-byte.
	Stack tcpsim.Stack

	// RateProfile selects the KindVaryingRate capacity shape: "step"
	// (square wave, the default) or "sawtooth". The profile swings between
	// UpstreamRate and RateLow with period RatePeriod.
	RateProfile string
	// RateLow is the trough capacity of KindVaryingRate in bytes/sec
	// (default UpstreamRate/4).
	RateLow int64
	// RatePeriod is the capacity-profile period (default 1.5 s).
	RatePeriod Micros
	// BurstLoss replaces the loss kinds' i.i.d. drops with a seeded
	// Gilbert–Elliott burst-loss process (nil keeps i.i.d. / episodes).
	BurstLoss *netem.GEParams
	// GroupMembers sizes the KindFanout peer group (default 120).
	GroupMembers int
	// GroupSlack is the fanout peer-group slack bound in updates
	// (default 64).
	GroupSlack int
}

func (s Scenario) withDefaults() Scenario {
	if s.Routes == 0 {
		s.Routes = 12_000
	}
	if s.PacingTimer == 0 {
		s.PacingTimer = 200_000
	}
	if s.PacingBudget == 0 {
		s.PacingBudget = 24
	}
	if s.CollectorRate == 0 {
		s.CollectorRate = 25_000
	}
	if s.RecvBuf == 0 {
		s.RecvBuf = 16384
	}
	if s.LossRate == 0 {
		s.LossRate = 0.05
	}
	if s.UpstreamRate == 0 {
		s.UpstreamRate = 40_000
	}
	if s.RTT == 0 {
		s.RTT = 8_000
	}
	if s.Horizon == 0 {
		s.Horizon = 1_200_000_000
	}
	if s.RateLow == 0 {
		s.RateLow = s.UpstreamRate / 4
	}
	if s.RatePeriod == 0 {
		s.RatePeriod = 1_500_000
	}
	if s.GroupMembers == 0 {
		s.GroupMembers = 120
	}
	if s.GroupSlack == 0 {
		s.GroupSlack = 64
	}
	return s
}

// Trace is one scenario's output.
type Trace struct {
	Kind Kind
	// Captures is the sniffer's view of the connection.
	Captures []netem.Capture
	// Archive is the collector-side BGP message log (MRT content).
	Archive []bgpsim.ArchiveEntry
	// GroundDuration is the true transfer time: TCP connect to the last
	// archived update.
	GroundDuration Micros
	// RoutesDelivered counts prefixes that reached the collector app.
	RoutesDelivered int
	// RouterStats snapshots the sender TCP endpoint counters.
	RouterStats tcpsim.Stats
	// Truth is the simulator's authoritative event record (see Truth); the
	// oracle scores the analyzer's inferences against it.
	Truth *Truth
}

// Packets converts the capture for the flows layer.
func (t *Trace) Packets() []flows.TimedPacket {
	out := make([]flows.TimedPacket, len(t.Captures))
	for i, c := range t.Captures {
		out[i] = flows.TimedPacket{Time: c.Time, Pkt: c.Pkt}
	}
	return out
}

// finish derives RoutesDelivered and GroundDuration from the archive.
func (t *Trace) finish() *Trace {
	for _, e := range t.Archive {
		if m, err := bgp.Parse(e.Raw); err == nil {
			if u, ok := m.(*bgp.Update); ok {
				t.RoutesDelivered += len(u.NLRI)
			}
		}
	}
	if n := len(t.Archive); n > 0 {
		t.GroundDuration = t.Archive[n-1].Time
	}
	return t
}

// WritePcap writes the capture as a pcap stream.
func (t *Trace) WritePcap(w io.Writer) error {
	pw := pcapio.NewWriter(w)
	for i, c := range t.Captures {
		frame, err := c.Pkt.Marshal()
		if err != nil {
			return fmt.Errorf("tracegen: marshaling capture %d: %w", i, err)
		}
		if err := pw.WritePacket(c.Time, frame); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// WriteMRT appends the archive to mw as a Quagga collector logs it. The
// router is the peer and the collector the local end, both taken from the
// capture's first packet (the router's SYN). The caller flushes mw, so
// several traces can share one archive.
func (t *Trace) WriteMRT(mw *mrt.Writer) error {
	var syn packet.IPv4
	if len(t.Captures) > 0 {
		syn = t.Captures[0].Pkt.IP
	}
	for _, e := range t.Archive {
		rec := mrt.Record{
			TimeMicros: e.Time,
			PeerAS:     e.PeerAS,
			LocalAS:    65000,
			PeerIP:     syn.Src,
			LocalIP:    syn.Dst,
			Raw:        e.Raw,
		}
		if err := mw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// WithDefaults returns the scenario with every zero field replaced by its
// documented default — the effective parameters Run will use. Validation
// harnesses need it to know, e.g., the pacing timer a detector must find.
func (s Scenario) WithDefaults() Scenario { return s.withDefaults() }

// Run executes one scenario.
func Run(sc Scenario) *Trace { return runScenario(sc, 0, 0) }

// runScenario is Run with dataset-profile overrides: an RTO backoff factor
// for both endpoints and a default collector receive buffer for kinds that
// do not pick their own.
func runScenario(sc Scenario, rtoBackoff float64, collectorBuf int) *Trace {
	sc = sc.withDefaults()
	eng := sim.New(0, sc.Seed)
	table := Table(eng.Rand(), sc.Routes)

	spec := observedSpec(sc, netip.MustParseAddr("10.0.0.2"))
	scfg := bgpsim.SpeakerConfig{AS: 7018}
	ccfg := bgpsim.CollectorConfig{}

	switch sc.Kind {
	case KindClean:
		// Mild pacing keeps even the clean case realistic (routers never
		// blast at line rate) without dominating the transfer.
		scfg.PacingInterval = 20_000
		scfg.PacingBudget = 32
	case KindPaced:
		scfg.PacingInterval = sc.PacingTimer
		scfg.PacingBudget = sc.PacingBudget
	case KindSlowReceiver:
		ccfg.TotalRate = sc.CollectorRate
	case KindSmallWindow:
		spec.CollectorTCP.RecvBuf = sc.RecvBuf
	case KindUpstreamLoss:
		switch {
		case sc.BurstLoss != nil:
			spec.Path.UpstreamHook = netem.GilbertElliott(sc.Seed+7, *sc.BurstLoss)
		case len(sc.LossEpisodes) > 0:
			spec.Path.UpstreamHook = netem.LossEpisodes(sc.LossEpisodes...)
		default:
			spec.Path.UpstreamLoss = sc.LossRate
		}
	case KindDownstreamLoss:
		switch {
		case sc.BurstLoss != nil:
			spec.Path.DownstreamHook = netem.GilbertElliott(sc.Seed+9, *sc.BurstLoss)
		case len(sc.LossEpisodes) > 0:
			spec.Path.DownstreamHook = netem.LossEpisodes(sc.LossEpisodes...)
		default:
			spec.Path.DownstreamLoss = sc.LossRate
		}
	case KindBandwidth:
		spec.Path.UpstreamRate = sc.UpstreamRate
	case KindHeavyTailApp:
		scfg.AppProfile = heavyTailProfile(sc.Seed)
	case KindBimodalApp:
		scfg.AppProfile = bimodalProfile(sc.Seed)
	case KindVaryingRate:
		if sc.RateProfile == "sawtooth" {
			spec.Path.UpstreamSchedule = netem.Sawtooth(sc.UpstreamRate, sc.RateLow, sc.RatePeriod, 8)
		} else {
			spec.Path.UpstreamSchedule = netem.Square(sc.UpstreamRate, sc.RateLow, sc.RatePeriod)
		}
	case KindZeroAckBug:
		spec.RouterTCP.ZeroWindowProbeBug = true
		spec.CollectorTCP.RecvBuf = 8192
		ccfg.TotalRate = sc.CollectorRate
		ccfg.ProcessInterval = 400_000 // coarse scheduling: bursty reads
	case KindFanout:
		scfg.GroupQueueSlack = sc.GroupSlack
		// Mild pacing, like KindClean.
		scfg.PacingInterval = 20_000
		scfg.PacingBudget = 32
	}

	if collectorBuf != 0 && spec.CollectorTCP.RecvBuf == 0 {
		spec.CollectorTCP.RecvBuf = collectorBuf
	}
	if rtoBackoff > 0 {
		spec.RouterTCP.RTOBackoff = rtoBackoff
		spec.CollectorTCP.RTOBackoff = rtoBackoff
	}
	// The router is the data sender, so its config takes the congestion
	// control; receiver quirks land on the collector.
	tcpsim.ApplyStack(sc.Stack, &spec.RouterTCP, &spec.CollectorTCP)
	speaker := bgpsim.NewSpeaker(eng, scfg)
	speaker.Table = table
	var group *bgpsim.PeerGroup
	if sc.Kind == KindFanout {
		group = speaker.NewPeerGroup()
	}
	o := observe(eng, spec, speaker, group, bgpsim.NewCollectorHost(eng, ccfg))
	if group != nil {
		addReplicas(eng, sc, speaker, group)
	}
	o.runUntilArchived(sc.Horizon, drainTail)
	return o.trace(sc.Kind)
}

// observedSpec is the connection every observed session runs over, and
// every fanout replica too: router 10.0.0.1, with half the RTT upstream of
// the sniffer and a sixteenth of it downstream.
func observedSpec(sc Scenario, collector netip.Addr) bgpsim.ConnSpec {
	return bgpsim.ConnSpec{
		RouterAddr:    netip.MustParseAddr("10.0.0.1"),
		CollectorAddr: collector,
		Path: netem.PathConfig{
			UpstreamDelay:   sc.RTT / 2,
			DownstreamDelay: sc.RTT / 16,
		},
	}
}

// observed is one dialed router→collector session whose capture, archive,
// sender counters and ground truth make up a Trace.
type observed struct {
	eng   *sim.Engine
	conn  *bgpsim.Conn
	sess  *bgpsim.Session
	csess *bgpsim.CollectorSession
	rec   *truthRecorder
	// want is how many archived updates end the run: the table transfer's,
	// once the speaker has queued it; -1 before.
	want int
}

// observe dials spec and attaches its router end to speaker (inside group,
// or standalone when group is nil), its collector end to host, and the
// truth recorder to both.
func observe(eng *sim.Engine, spec bgpsim.ConnSpec, speaker *bgpsim.Speaker, group *bgpsim.PeerGroup, host *bgpsim.CollectorHost) *observed {
	o := &observed{eng: eng, conn: bgpsim.Dial(eng, spec, 7018), rec: newTruthRecorder(), want: -1}
	o.sess = speaker.AddSession(o.conn.RouterPeer, group)
	o.sess.OnTransferQueued = func(n, _ int) { o.want = n }
	o.csess = host.AddSession(o.conn.CollectorPeer, 7018)
	o.rec.attach(o.conn, o.sess)
	return o
}

// drainTail is how long a run goes on once the collector has archived what
// it waited for, so the trailing ACKs make the capture.
const drainTail Micros = 1_000_000

// runUntilArchived runs the engine in 5 s chunks, never past horizon,
// until the collector has archived o.want updates, and then tail more.
// Keepalive timers keep the event queue alive forever, so a run cannot
// wait for it to drain, and running on to the horizon would pad the
// capture with a long keepalive tail.
func (o *observed) runUntilArchived(horizon, tail Micros) {
	const chunk = 5_000_000
	for o.eng.Now() < horizon {
		o.eng.Run(min(o.eng.Now()+chunk, horizon))
		if o.want >= 0 && len(o.csess.Archive()) >= o.want {
			if tail > 0 {
				o.eng.Run(o.eng.Now() + tail)
			}
			return
		}
	}
}

// trace builds the session's Trace as of now.
func (o *observed) trace(kind Kind) *Trace {
	return (&Trace{
		Kind:        kind,
		Captures:    o.conn.Sniffer().Captures(),
		Archive:     o.csess.Archive(),
		RouterStats: o.conn.RouterPeer.Endpoint().Stats(),
		Truth:       o.rec.finish(o.eng.Now()),
	}).finish()
}

// ChurnTrace is the output of a churn scenario: an initial table transfer,
// an idle period, then a failure-triggered burst of re-announcements on the
// established session (paper §VII's "massive updates triggered upon
// inter-domain routing failures").
type ChurnTrace struct {
	*Trace
	// ChurnStart is when the burst was enqueued; ChurnEnd when its last
	// update reached the collector application.
	ChurnStart, ChurnEnd Micros
}

// RunChurn runs the table transfer of sc, waits until idleAfter past its
// completion, then re-announces churnFrac of the table with fresh
// attributes and captures the burst.
func RunChurn(sc Scenario, idleAfter Micros, churnFrac float64) *ChurnTrace {
	sc = sc.withDefaults()
	eng := sim.New(0, sc.Seed)
	table := Table(eng.Rand(), sc.Routes)

	spec := observedSpec(sc, netip.MustParseAddr("10.0.0.2"))
	scfg := bgpsim.SpeakerConfig{AS: 7018}
	if sc.Kind == KindPaced {
		scfg.PacingInterval = sc.PacingTimer
		scfg.PacingBudget = sc.PacingBudget
	}
	tcpsim.ApplyStack(sc.Stack, &spec.RouterTCP, &spec.CollectorTCP)
	speaker := bgpsim.NewSpeaker(eng, scfg)
	speaker.Table = table
	o := observe(eng, spec, speaker, nil,
		bgpsim.NewCollectorHost(eng, bgpsim.CollectorConfig{TotalRate: sc.CollectorRate}))

	// Run the initial transfer to completion.
	o.runUntilArchived(sc.Horizon, 0)
	eng.Run(eng.Now() + idleAfter)

	// The failure: re-announce a slice of the table with changed paths.
	n := int(float64(len(table)) * churnFrac)
	if n < 1 {
		n = 1
	}
	churn := make([]bgp.Route, n)
	copy(churn, table[:n])
	for i := range churn {
		attrs := *churn[i].Attrs
		attrs.ASPath = append([]uint16{65333}, attrs.ASPath...)
		churn[i].Attrs = &attrs
	}
	ct := &ChurnTrace{ChurnStart: eng.Now()}
	// The session is established, so the churn's updates go out on it
	// directly: wait for them on top of what is archived already.
	o.want = len(o.csess.Archive())
	// The failure first withdraws the affected prefixes, then re-announces
	// them with the post-failure paths.
	withdrawn := make([]bgp.Prefix, len(churn))
	for i, r := range churn {
		withdrawn[i] = r.Prefix
	}
	if err := o.sess.EnqueueWithdrawals(withdrawn); err == nil {
		if ups, err := bgp.PackWithdrawals(withdrawn); err == nil {
			o.want += len(ups)
		}
	}
	if err := o.sess.EnqueueTable(churn); err == nil {
		// Count how many updates the churn packs into.
		if ups, err := bgp.PackTable(churn); err == nil {
			o.want += len(ups)
		}
	}
	o.runUntilArchived(sc.Horizon, drainTail)
	ct.Trace = o.trace(sc.Kind)
	ct.ChurnEnd = ct.GroundDuration
	return ct
}
