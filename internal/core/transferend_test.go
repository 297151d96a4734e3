package core_test

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/oracle"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/reassembly"
	"tdat/internal/tcpsim"
	"tdat/internal/tracegen"
)

// referenceEnd is the transfer-end estimate composed from the full parse:
// reassemble and parse every message, turn the UPDATEs into mct.Updates,
// and run FindEnd. The analyzer's key scan must agree with it exactly,
// including the concessions it notes on the report.
func referenceEnd(cfg core.Config, c *flows.Connection, tr *core.TransferReport) (mct.Result, bool) {
	res, err := reassembly.ReassembleOpts(c, reassembly.Options{MaxBytes: cfg.MaxReassemblyBytes})
	if err != nil && (res.LooksLikeBGP || len(res.Messages) > 0) {
		tr.ReassemblyError = err.Error()
	}
	tr.ReassemblyTruncated = res.TruncatedBytes
	if err != nil || len(res.Messages) == 0 {
		return mct.Result{}, false
	}
	tr.Messages = len(res.Messages)
	times := make([]core.Micros, len(res.Messages))
	msgs := make([]bgp.Message, len(res.Messages))
	for i, m := range res.Messages {
		times[i] = m.Time
		msgs[i] = m.Msg
	}
	ups := mct.FromMessages(times, msgs)
	if len(ups) == 0 {
		return mct.Result{}, false
	}
	return mct.FindEnd(ups, mct.Config{})
}

// endOutcome is everything the transfer-end path decides for one
// connection.
type endOutcome struct {
	Res       mct.Result
	OK        bool
	Messages  int
	Err       string
	Truncated int64
}

// endPath is one transfer-end implementation.
type endPath func(c *flows.Connection, tr *core.TransferReport) (mct.Result, bool)

func outcome(end endPath, c *flows.Connection) endOutcome {
	var tr core.TransferReport
	res, ok := end(c, &tr)
	return endOutcome{res, ok, tr.Messages, tr.ReassemblyError, tr.ReassemblyTruncated}
}

// paths returns the analyzer's transfer-end path and the reference under
// one configuration.
func paths(cfg core.Config) (scan, parse endPath) {
	a := core.New(cfg)
	scan = func(c *flows.Connection, tr *core.TransferReport) (mct.Result, bool) {
		return core.ReassembleEnd(a, c, tr)
	}
	parse = func(c *flows.Connection, tr *core.TransferReport) (mct.Result, bool) { return referenceEnd(cfg, c, tr) }
	return scan, parse
}

// checkEnds compares the analyzer's transfer end with the reference on
// every connection, uncapped and under each byte cap, and tallies what the
// reference decided so callers can check the cases were not vacuous.
func checkEnds(t *testing.T, conns []*flows.Connection, caps ...int64) (found, damaged, truncated int) {
	t.Helper()
	for _, maxBytes := range append([]int64{0}, caps...) {
		scan, parse := paths(core.Config{MaxReassemblyBytes: maxBytes})
		for i, c := range conns {
			g, w := outcome(scan, c), outcome(parse, c)
			if g != w {
				t.Errorf("conn %d, cap %d: scan %+v, parse %+v", i, maxBytes, g, w)
			}
			if w.OK {
				found++
			}
			if w.Err != "" {
				damaged++
			}
			if w.Truncated > 0 {
				truncated++
			}
		}
	}
	return found, damaged, truncated
}

// TestTransferEndMatchesParse runs every oracle scenario — the base grid
// and the adversarial-diversity grid, each under every sender stack —
// through both transfer-end paths, uncapped and with a byte cap that cuts
// the stream mid-message.
func TestTransferEndMatchesParse(t *testing.T) {
	ocfg := oracle.Config{Quick: testing.Short(), Routes: 2_000}
	type capture struct {
		name string
		sc   tracegen.Scenario
	}
	var caps []capture
	grid := append(oracle.Cases(ocfg), oracle.DimensionCases(ocfg)...)
	for _, st := range tcpsim.AllStacks() {
		for _, c := range grid {
			c.Scenario.Stack = st
			name := st.String() + "/" + c.Name
			if c.Dimension != "" {
				name = st.String() + "/" + c.Dimension + "/" + c.Name
			}
			caps = append(caps, capture{name, c.Scenario})
		}
	}
	for _, c := range caps {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			conns := flows.Extract(tracegen.Run(c.sc).Packets())
			if len(conns) == 0 {
				t.Fatal("no connections")
			}
			if found, _, truncated := checkEnds(t, conns, 5_003); found < 2 || truncated == 0 {
				t.Errorf("transfer ends found %d times, %d truncated: want both caps exercised", found, truncated)
			}
		})
	}
}

// demuxLeniently extracts a capture's connections as AnalyzePcap reads it
// on its lenient path: records that do not decode are skipped, and damage
// ends the capture, keeping what was read before it. The connections keep
// their payloads, which AnalyzePcap's report does not.
func demuxLeniently(t *testing.T, data []byte) []*flows.Connection {
	t.Helper()
	pr, err := pcapio.NewReader(bytes.NewReader(data))
	if errors.Is(err, pcapio.ErrTruncated) {
		return nil // an empty capture
	}
	if err != nil {
		t.Fatal(err)
	}
	var conns []*flows.Connection
	d := flows.NewDemuxer(core.Config{}.Flows, func(_ int, c *flows.Connection) { conns = append(conns, c) })
	var pkt packet.Packet
	_ = pr.EachInto(func(rec pcapio.Record) error { // damage is a degradation, as in AnalyzePcap
		if packet.DecodeInto(rec.Data, &pkt) == nil {
			d.Add(flows.TimedPacket{Time: rec.TimeMicros, Pkt: &pkt})
		}
		return nil
	})
	d.Finish()
	return conns
}

// TestTransferEndMatchesParseOnCorpus holds the scan to the reference on
// the committed adversarial captures, whose damage includes a corrupt BGP
// length field, and under a cap that leaves barely a header.
func TestTransferEndMatchesParseOnCorpus(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("..", "pcapio", "testdata", "adversarial", "*.pcap"))
	if err != nil || len(names) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(names))
	}
	var damaged, truncated int
	for _, name := range names {
		t.Run(filepath.Base(name), func(t *testing.T) {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			conns := demuxLeniently(t, data)
			rep, err := core.New(core.Config{Workers: 1}).AnalyzePcap(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Transfers) != len(conns) {
				t.Fatalf("demuxed %d connections, AnalyzePcap reported %d", len(conns), len(rep.Transfers))
			}
			_, d, tr := checkEnds(t, conns, 64, 1_000)
			damaged, truncated = damaged+d, truncated+tr
		})
	}
	if damaged == 0 || truncated == 0 {
		t.Errorf("%d framing failures, %d truncations: the corpus no longer exercises both", damaged, truncated)
	}
}

// TestTransferEndMatchesParseOnOddStreams covers streams no simulator
// produces: a non-BGP payload, a length-only trace, BGP whose segments
// arrived out of time order, and a stream that starts mid-sequence.
func TestTransferEndMatchesParseOnOddStreams(t *testing.T) {
	updates := make([][]byte, 0, 40)
	for i := 0; i < 40; i++ {
		u := &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint16{65000}, NextHop: netip.MustParseAddr("192.0.2.1")},
			NLRI: []bgp.Prefix{
				netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i % 7), 0, 0}), 16),
				netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 24),
			},
		}
		wire, err := u.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		updates = append(updates, wire)
	}
	// conn segments a payload into 100-byte packets arriving every 10 ms,
	// with times permuted by order.
	conn := func(payload []byte, order func(i int) int) *flows.Connection {
		c := &flows.Connection{}
		n := (len(payload) + 99) / 100
		for i := 0; i < n; i++ {
			lo, hi := i*100, min(len(payload), (i+1)*100)
			c.Data = append(c.Data, flows.DataEvent{
				Time: core.Micros(order(i)) * 10_000, Seq: int64(lo), SeqEnd: int64(hi), Len: hi - lo,
				Payload: payload[lo:hi],
			})
		}
		return c
	}
	inOrder := func(i int) int { return i }
	bgpStream := bytes.Join(updates, nil)
	http := bytes.Repeat([]byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"), 40)
	lengthOnly := conn(bgpStream, inOrder)
	for i := range lengthOnly.Data {
		lengthOnly.Data[i].Payload = nil
	}
	late := conn(bgpStream, func(i int) int { return (i * 37) % 101 })
	shifted := conn(bgpStream, inOrder)
	for i := range shifted.Data {
		shifted.Data[i].Seq += 7
		shifted.Data[i].SeqEnd += 7
	}
	conns := []*flows.Connection{
		conn(bgpStream, inOrder), conn(http, inOrder), lengthOnly, late, shifted,
		conn(append(append([]byte(nil), bgpStream...), http...), inOrder),
		{},
	}
	found, damaged, truncated := checkEnds(t, conns, 19, 500, int64(len(bgpStream)-1))
	if found == 0 || damaged == 0 || truncated == 0 {
		t.Errorf("found %d, damaged %d, truncated %d: want every outcome exercised", found, damaged, truncated)
	}
}

// gateConns is the 32-connection gate capture of the pipeline benchmarks
// (paced, clean and bandwidth-limited sessions, 2000–2750 routes),
// demuxed into connections.
func gateConns(b *testing.B) []*flows.Connection {
	b.Helper()
	var pkts []flows.TimedPacket
	for i := 0; i < 32; i++ {
		sc := tracegen.Scenario{Seed: int64(8000 + i), Routes: 2_000 + 250*(i%4)}
		switch i % 3 {
		case 0:
			sc.Kind, sc.PacingTimer, sc.PacingBudget = tracegen.KindPaced, 200_000, 24
		case 1:
			sc.Kind = tracegen.KindClean
		default:
			sc.Kind, sc.UpstreamRate = tracegen.KindBandwidth, 120_000
		}
		addr := netip.AddrFrom4([4]byte{10, 2, 0, byte(i) + 1})
		for _, tp := range tracegen.Run(sc).Packets() {
			if tp.Pkt.TCP.SrcPort == 179 {
				tp.Pkt.IP.Src = addr
			} else {
				tp.Pkt.IP.Dst = addr
			}
			pkts = append(pkts, tp)
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
	conns := flows.Extract(pkts)
	if len(conns) != 32 {
		b.Fatalf("connections = %d, want 32", len(conns))
	}
	return conns
}

// BenchmarkTransferEnd prices the transfer-end estimate over the gate
// capture's 32 connections: parse is the full-parse composition (what the
// analyzer ran before the key scan), scan is the analyzer's own path.
func BenchmarkTransferEnd(b *testing.B) {
	conns := gateConns(b)
	scan, parse := paths(core.Config{})
	for _, path := range []struct {
		name string
		end  endPath
	}{{"parse", parse}, {"scan", scan}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range conns {
					var tr core.TransferReport
					if _, ok := path.end(c, &tr); !ok {
						b.Fatalf("no transfer end for %v", c.Sender)
					}
				}
			}
		})
	}
}
