package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"runtime"
	"sort"

	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/explain"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/mrt"
	"tdat/internal/netem"
	"tdat/internal/pcapio"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// Workload is one set of generated captures and the way the analyzer is
// run over them.
type Workload struct {
	Name string
	// Sessions are the table transfers merged into the capture; session i
	// gets its own router address.
	Sessions []tracegen.Scenario
	// MRT pins transfer ends from the collector's archive, as tdat -mrt
	// does, instead of reassembling the BGP stream from the capture.
	MRT bool
	// Explain records evidence for every verdict, as tdat -explain does.
	Explain bool
	// Workers sizes the analysis pool of the timed runs.
	Workers int
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"gate-mixed", "quagga-mrt", "paper-scale", "lossy-pool"}

// workloadFor builds the named workload from the seed: session i is
// simulated with seed*1000+i, so the same seed gives the same captures.
// Session sizes and kinds do not depend on the seed, only the simulated
// tables and losses do, so runs at different seeds do the same amount of
// work.
func workloadFor(name string, seed int64) (Workload, error) {
	w := Workload{Name: name, Workers: 1}
	switch name {
	case "gate-mixed", "quagga-mrt":
		// The 32-session shape of the repository's pipeline benchmarks:
		// overlapping paced, clean and bandwidth-limited transfers.
		for i := 0; i < 32; i++ {
			sc := tracegen.Scenario{Routes: 2_000 + 250*(i%4)}
			switch i % 3 {
			case 0:
				sc.Kind = tracegen.KindPaced
				sc.PacingTimer = 200_000
				sc.PacingBudget = 24
			case 1:
				sc.Kind = tracegen.KindClean
			default:
				sc.Kind = tracegen.KindBandwidth
				sc.UpstreamRate = 120_000
			}
			w.Sessions = append(w.Sessions, sc)
		}
		w.MRT = name == "quagga-mrt"
	case "paper-scale":
		// The paper's headline case: one full-table transfer slowed by the
		// sender's pacing timer for over ten minutes.
		w.Sessions = []tracegen.Scenario{{
			Kind: tracegen.KindPaced, Routes: 300_000, Horizon: 3_600_000_000,
		}}
	case "lossy-pool":
		// The pathologies whose diagnosis needs loss repair and receiver
		// stalls, analyzed with evidence on a two-worker pool.
		kinds := []tracegen.Kind{
			tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss,
			tracegen.KindZeroAckBug, tracegen.KindSmallWindow, tracegen.KindSlowReceiver,
		}
		for i := 0; i < 40; i++ {
			w.Sessions = append(w.Sessions, tracegen.Scenario{Kind: kinds[i%len(kinds)], Routes: 1_500})
		}
		w.Explain = true
		w.Workers = min(2, runtime.NumCPU())
	default:
		return Workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for i := range w.Sessions {
		w.Sessions[i].Seed = seed*1000 + int64(i)
	}
	return w, nil
}

// routerAddr is session i's router address; every simulated session uses
// the same address pair, so the merge gives each its own router.
func routerAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i&0xff) + 1})
}

// collectorAddr is the collector side of every simulated session.
var collectorAddr = netip.MustParseAddr("10.0.0.2")

// Inputs are the encoded bytes the analyzer receives, plus the simulator's
// ground truth the outputs are checked against.
type Inputs struct {
	Pcap []byte
	// MRT is the collector archive. Only Workload.MRT analyses read it;
	// the traced run times the archive reader on every workload.
	MRT []byte
	// Routers holds session i's router address; TrueEnd its transfer end
	// as the simulator recorded it from the analyzer's vantage point (see
	// trueEnd).
	Routers []netip.Addr
	TrueEnd []core.Micros
}

// buildInputs simulates every session, merges the captures and the
// collector archives in time order and encodes them as pcap and MRT bytes.
func buildInputs(w Workload) (*Inputs, error) {
	in := &Inputs{}
	var pkts []flows.TimedPacket
	var recs []mrt.Record
	for i, sc := range w.Sessions {
		tr := tracegen.Run(sc)
		if tr.GroundDuration == 0 {
			return nil, fmt.Errorf("%s session %d (%s): nothing reached the collector", w.Name, i, sc.Kind)
		}
		addr := routerAddr(i)
		in.Routers = append(in.Routers, addr)
		in.TrueEnd = append(in.TrueEnd, trueEnd(tr, w.MRT))
		for _, tp := range tr.Packets() {
			if tp.Pkt.TCP.SrcPort == 179 {
				tp.Pkt.IP.Src = addr
			} else {
				tp.Pkt.IP.Dst = addr
			}
			pkts = append(pkts, tp)
		}
		for _, e := range tr.Archive {
			recs = append(recs, mrt.Record{
				TimeMicros: e.Time, PeerAS: e.PeerAS, LocalAS: 65000,
				PeerIP: addr, LocalIP: collectorAddr, Raw: e.Raw,
			})
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
	var buf bytes.Buffer
	pw := pcapio.NewWriter(&buf)
	for _, tp := range pkts {
		frame, err := tp.Pkt.Marshal()
		if err != nil {
			return nil, fmt.Errorf("encoding pcap: %w", err)
		}
		if err := pw.WritePacket(tp.Time, frame); err != nil {
			return nil, fmt.Errorf("encoding pcap: %w", err)
		}
	}
	if err := pw.Flush(); err != nil {
		return nil, fmt.Errorf("encoding pcap: %w", err)
	}
	in.Pcap = buf.Bytes()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TimeMicros < recs[j].TimeMicros })
	var mbuf bytes.Buffer
	mw := mrt.NewWriter(&mbuf)
	for _, r := range recs {
		if err := mw.Write(r); err != nil {
			return nil, fmt.Errorf("encoding MRT: %w", err)
		}
	}
	if err := mw.Flush(); err != nil {
		return nil, fmt.Errorf("encoding MRT: %w", err)
	}
	in.MRT = mbuf.Bytes()
	return in, nil
}

// trueEnd is a session's transfer end from the simulator's records, seen
// from where the analyzer looks. Collector archives are stamped when the
// collector processed each update, so with MRT it is the last archived
// update. A capture shows the last update when the sniffer first saw its
// bytes, which a downstream loss repair or a backlogged collector delays
// at the collector but not at the sniffer, so otherwise it is when the
// sniffer first saw the last byte the router sent.
func trueEnd(tr *tracegen.Trace, fromArchive bool) core.Micros {
	if fromArchive {
		return tr.GroundDuration
	}
	var (
		seen   bool
		base   uint32
		maxEnd int64
		at     core.Micros
	)
	for _, c := range tr.Captures {
		if c.Dir != netem.DirData || c.Pkt.PayloadLen() == 0 {
			continue
		}
		if !seen {
			seen, base = true, c.Pkt.TCP.Seq
		}
		if end := int64(int32(c.Pkt.SeqEnd() - base)); end > maxEnd {
			maxEnd, at = end, c.Time
		}
	}
	return at
}

// hash fingerprints the encoded inputs, to check that rebuilding from the
// same seed gives the same bytes.
func (in *Inputs) hash() [32]byte {
	h := sha256.New()
	h.Write(in.Pcap)
	h.Write(in.MRT)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// newAnalyzer configures the analyzer the way the workload's tdat
// invocation would.
func (w Workload) newAnalyzer(workers int) *core.Analyzer {
	return core.New(core.Config{Workers: workers, Explain: w.Explain})
}

// analyze runs one whole-capture analysis from the encoded bytes.
func (w Workload) analyze(a *core.Analyzer, in *Inputs) (*core.Report, error) {
	if !w.MRT {
		return a.AnalyzePcap(bytes.NewReader(in.Pcap))
	}
	recs, err := mrt.ReadAll(bytes.NewReader(in.MRT))
	if err != nil {
		return nil, fmt.Errorf("reading MRT: %w", err)
	}
	byPeer := bucketByPeer(recs)
	return a.AnalyzePcapWith(bytes.NewReader(in.Pcap), func(c *flows.Connection) *core.TransferReport {
		return a.AnalyzeConnectionWithUpdates(c, mct.FromMRT(scope(byPeer, c)))
	})
}

// bucketByPeer groups archive records by router and sorts each group by
// time, as tdat -mrt does once per archive.
func bucketByPeer(recs []mrt.Record) map[netip.Addr][]mrt.Record {
	byPeer := map[netip.Addr][]mrt.Record{}
	for _, r := range recs {
		byPeer[r.PeerIP] = append(byPeer[r.PeerIP], r)
	}
	for _, rs := range byPeer {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].TimeMicros < rs[j].TimeMicros })
	}
	return byPeer
}

// scope returns the archive records of c's router within c's lifetime
// (plus tdat -mrt's one-second grace for the collector's write delay).
func scope(byPeer map[netip.Addr][]mrt.Record, c *flows.Connection) []mrt.Record {
	recs := byPeer[c.Sender.Addr]
	start, end := c.Profile.Start, c.Profile.End+1_000_000
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].TimeMicros >= start })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].TimeMicros > end })
	return recs[lo:hi]
}

// endTolerance is how far a transfer end may lie from the simulator's
// record of it before the analysis counts as failed.
const endTolerance core.Micros = 1_000_000

// fingerprint is the part of one transfer's analysis that must not change
// between runs, worker counts, or the end-to-end and traced runs.
type fingerprint struct {
	Window   timerange.Range
	HasMCT   bool
	MCT      mct.Result
	V        factors.Vector
	G        factors.GroupVector
	HasTimer bool
	Timer    detect.TimerGapResult
	Consec   detect.ConsecutiveLossResult
	ZeroAck  bool
	Evidence int
}

func fingerprintOf(t *core.TransferReport) fingerprint {
	fp := fingerprint{
		Window:   t.Transfer,
		V:        t.Factors.V,
		G:        t.Factors.G,
		Consec:   t.ConsecLoss,
		ZeroAck:  t.ZeroAckBug,
		Evidence: len(t.Evidence),
	}
	if t.MCT != nil {
		fp.HasMCT, fp.MCT = true, *t.MCT
	}
	if t.Timer != nil {
		fp.HasTimer, fp.Timer = true, *t.Timer
	}
	return fp
}

// digestOf hashes a transfer's rendered text, JSON and evidence — what a
// tdat user reads.
func digestOf(t *core.TransferReport) ([32]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteText(&buf, false); err != nil {
		return [32]byte{}, err
	}
	if err := t.WriteJSON(&buf); err != nil {
		return [32]byte{}, err
	}
	if err := explain.WriteText(&buf, "", t.Evidence); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// reference holds, per session, the outputs of the untimed workers=1
// analysis made during set-up.
type reference struct {
	index   map[netip.Addr]int
	fps     []fingerprint
	digests [][32]byte
	present []bool
}

func newReference(in *Inputs, rep *core.Report) (*reference, error) {
	n := len(in.Routers)
	ref := &reference{
		index:   make(map[netip.Addr]int, n),
		fps:     make([]fingerprint, n),
		digests: make([][32]byte, n),
		present: make([]bool, n),
	}
	for i, a := range in.Routers {
		ref.index[a] = i
	}
	for _, t := range rep.Transfers {
		i, ok := ref.index[t.Conn.Sender.Addr]
		if !ok || ref.present[i] {
			continue
		}
		d, err := digestOf(t)
		if err != nil {
			return nil, err
		}
		ref.present[i], ref.fps[i], ref.digests[i] = true, fingerprintOf(t), d
	}
	return ref, nil
}

// check counts the failed connection analyses of one run. A session's
// analysis fails when it is missing (a panicked one is) or duplicated;
// when the report records any degradation; when its outputs differ from
// the reference (and, with digests set, its rendering too); or when its
// transfer end lies more than endTolerance from the simulator's. A
// transfer of no session is a failure of its own.
func check(in *Inputs, ref *reference, rep *core.Report, digests bool) (attempted, failed int, err error) {
	attempted = len(in.Routers)
	clean := rep.Degradation.Empty()
	seen := make([]int, attempted)
	bad := make([]bool, attempted)
	for _, t := range rep.Transfers {
		i, ok := ref.index[t.Conn.Sender.Addr]
		if !ok {
			failed++
			continue
		}
		if seen[i]++; seen[i] > 1 {
			continue
		}
		good := clean && ref.present[i] && fingerprintOf(t) == ref.fps[i]
		if off := t.Transfer.End - in.TrueEnd[i]; off > endTolerance || off < -endTolerance {
			good = false
		}
		if good && digests {
			d, err := digestOf(t)
			if err != nil {
				return 0, 0, err
			}
			good = d == ref.digests[i]
		}
		bad[i] = !good
	}
	for i := range seen {
		if seen[i] != 1 || bad[i] {
			failed++
		}
	}
	return attempted, failed, nil
}
