package core

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"tdat/internal/flows"
	"tdat/internal/obs"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/tracegen"
)

// multiConnPackets merges n independent table transfers (distinct router
// addresses, mixed pathologies) into one capture, interleaved in time
// order — the shape of a real collector-side trace, where many routers'
// sessions overlap.
func multiConnPackets(tb testing.TB, n int) []flows.TimedPacket {
	tb.Helper()
	var all []flows.TimedPacket
	for i := 0; i < n; i++ {
		sc := tracegen.Scenario{Seed: int64(9000 + i), Routes: 1_500 + 200*(i%4)}
		switch i % 4 {
		case 0:
			sc.Kind = tracegen.KindPaced
			sc.PacingTimer = 200_000
			sc.PacingBudget = 24
		case 1:
			sc.Kind = tracegen.KindSlowReceiver
			sc.CollectorRate = 20_000
		case 2:
			sc.Kind = tracegen.KindClean
		default:
			sc.Kind = tracegen.KindBandwidth
			sc.UpstreamRate = 120_000
		}
		tr := tracegen.Run(sc)
		if tr.RoutesDelivered == 0 {
			tb.Fatalf("scenario %d delivered no routes", i)
		}
		// Every scenario simulates the same address pair; give each
		// transfer its own router address so the flows layer sees n
		// distinct connections.
		addr := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i&0xff) + 1})
		for _, tp := range tr.Packets() {
			if tp.Pkt.TCP.SrcPort == 179 {
				tp.Pkt.IP.Src = addr
			} else {
				tp.Pkt.IP.Dst = addr
			}
			all = append(all, tp)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	return all
}

// serializeReport renders every transfer's text and JSON form — the full
// externally visible output of an analysis.
func serializeReport(tb testing.TB, rep *Report) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "skipped=%d transfers=%d\n", rep.SkippedPackets, len(rep.Transfers))
	for _, t := range rep.Transfers {
		if err := t.WriteText(&buf, false); err != nil {
			tb.Fatal(err)
		}
		if err := t.WriteJSON(&buf); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestParallelAnalysisByteIdentical(t *testing.T) {
	const conns = 8
	pkts := multiConnPackets(t, conns)
	var baseline []byte
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
		rep := New(Config{Workers: w}).AnalyzePackets(pkts)
		if len(rep.Transfers) != conns {
			t.Fatalf("workers=%d: transfers = %d, want %d", w, len(rep.Transfers), conns)
		}
		out := serializeReport(t, rep)
		if baseline == nil {
			baseline = out
			continue
		}
		if !bytes.Equal(out, baseline) {
			t.Errorf("workers=%d: report differs from workers=1 baseline", w)
		}
	}
}

func TestObservabilityNeverChangesOutput(t *testing.T) {
	// The same capture, with obs off and on (span log included), at several
	// worker counts — eight reports, one byte-identical output. This guards
	// the tentpole invariant: observability is read-only on the analysis.
	pkts := multiConnPackets(t, 6)
	data, _ := writePcap(t, pkts, 0)
	var baseline []byte
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, withObs := range []bool{false, true} {
			cfg := Config{Workers: w}
			var o *obs.Obs
			if withObs {
				o = obs.New()
				o.SetSpanLog(io.Discard)
				cfg.Obs = o
			}
			rep, err := New(cfg).AnalyzePcap(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("workers=%d obs=%v: %v", w, withObs, err)
			}
			out := serializeReport(t, rep)
			if baseline == nil {
				baseline = out
				continue
			}
			if !bytes.Equal(out, baseline) {
				t.Errorf("workers=%d obs=%v: report differs from baseline", w, withObs)
			}
			if withObs {
				if got := o.Reg.Counter("tdat_conns_analyzed_total").Value(); got != int64(len(rep.Transfers)) {
					t.Errorf("workers=%d: conns_analyzed = %d, want %d", w, got, len(rep.Transfers))
				}
				if o.Reg.Gauge("tdat_conns_in_flight").Value() != 0 {
					t.Errorf("workers=%d: conns_in_flight gauge not drained", w)
				}
			}
		}
	}
}

func TestPanicRecoveredIntoReport(t *testing.T) {
	// One connection's analysis panicking must cost exactly that connection:
	// the rest of the run completes, the failure lands on the report with
	// the 4-tuple, and the panic counter ticks — at any worker count. The
	// victim's payload views are cleared all the same, since the next
	// capture refills their blocks.
	const conns = 6
	pkts := multiConnPackets(t, conns)
	data, _ := writePcap(t, pkts, 0)
	for _, w := range []int{1, 3} {
		o := obs.New()
		a := New(Config{Workers: w, Obs: o})
		var victim string
		var victimConn *flows.Connection
		rep, err := a.AnalyzePcapWith(bytes.NewReader(data), func(c *flows.Connection) *TransferReport {
			// Deterministic victim: the lowest sender address.
			if c.Sender.Addr == netip.AddrFrom4([4]byte{10, 1, 0, 1}) {
				victim = c.Sender.String() + "->" + c.Receiver.String()
				victimConn = c
				panic("synthetic analysis bug")
			}
			return a.AnalyzeConnection(c)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(rep.Transfers) != conns-1 {
			t.Errorf("workers=%d: transfers = %d, want %d", w, len(rep.Transfers), conns-1)
		}
		if len(rep.Failures) != 1 {
			t.Fatalf("workers=%d: failures = %d, want 1", w, len(rep.Failures))
		}
		f := rep.Failures[0]
		if f.Conn != victim {
			t.Errorf("workers=%d: failure conn = %q, want %q", w, f.Conn, victim)
		}
		if !strings.Contains(f.Panic, "synthetic analysis bug") {
			t.Errorf("workers=%d: failure panic = %q", w, f.Panic)
		}
		if got := o.Reg.Counter("tdat_analysis_panics_total").Value(); got != 1 {
			t.Errorf("workers=%d: panics counter = %d, want 1", w, got)
		}
		if o.Reg.Gauge("tdat_conns_in_flight").Value() != 0 {
			t.Errorf("workers=%d: conns_in_flight gauge not drained after panic", w)
		}
		if len(victimConn.Data) == 0 {
			t.Fatalf("workers=%d: the victim carried no data", w)
		}
		for i, d := range victimConn.Data {
			if d.Payload != nil {
				t.Fatalf("workers=%d: the panicked analysis left the payload of data event %d", w, i)
			}
		}
	}
}

// writePcap serializes packets as a pcap stream, injecting an undecodable
// garbage record after every interval good records when interval > 0.
func writePcap(tb testing.TB, pkts []flows.TimedPacket, interval int) ([]byte, int) {
	tb.Helper()
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	corrupt := 0
	for i, tp := range pkts {
		frame, err := tp.Pkt.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.WritePacket(tp.Time, frame); err != nil {
			tb.Fatal(err)
		}
		if interval > 0 && i%interval == interval-1 {
			if err := w.WritePacket(tp.Time, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
				tb.Fatal(err)
			}
			corrupt++
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), corrupt
}

func TestStreamingPcapMatchesSlicePath(t *testing.T) {
	pkts := multiConnPackets(t, 4)
	data, _ := writePcap(t, pkts, 0)
	want := serializeReport(t, New(Config{Workers: 1}).AnalyzePackets(pkts))
	for _, w := range []int{1, 4} {
		rep, err := New(Config{Workers: w}).AnalyzePcap(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := serializeReport(t, rep); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: streaming report differs from slice path", w)
		}
	}
}

func TestShardedAnalysisByteIdentical(t *testing.T) {
	// The worker count must never change the streamed path's output: the
	// merge orders reports by the demuxer's creation index. Swept over a
	// clean capture and one with timestamp regressions, where the
	// regression count and the per-connection re-sort must not depend on
	// the worker count either.
	const conns = 8
	pkts := multiConnPackets(t, conns)
	clean, _ := writePcap(t, pkts, 0)

	// Disordered variant: at a coarse stride, swap a packet with the first
	// strictly-later one so the capture clock genuinely regresses (the
	// merged trace has many timestamp ties, which adjacent swaps wouldn't
	// disturb).
	shuffled := append([]flows.TimedPacket(nil), pkts...)
	for i := 5; i < len(shuffled); i += 29 {
		for j := i + 1; j < len(shuffled) && j < i+8; j++ {
			if shuffled[j].Time > shuffled[i].Time {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				break
			}
		}
	}
	disordered, _ := writePcap(t, shuffled, 0)

	for name, data := range map[string][]byte{"clean": clean, "disordered": disordered} {
		var baseline []byte
		var baseRegress int64
		for _, w := range []int{1, 2, 4} {
			rep, err := New(Config{Workers: w}).AnalyzePcap(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if len(rep.Transfers) != conns {
				t.Fatalf("%s workers=%d: transfers = %d, want %d", name, w, len(rep.Transfers), conns)
			}
			out := serializeReport(t, rep)
			if baseline == nil {
				baseline = out
				baseRegress = rep.Degradation.TimestampRegressions
				continue
			}
			if !bytes.Equal(out, baseline) {
				t.Errorf("%s workers=%d: report differs from workers=1 baseline", name, w)
			}
			if rep.Degradation.TimestampRegressions != baseRegress {
				t.Errorf("%s workers=%d: regressions = %d, want %d",
					name, w, rep.Degradation.TimestampRegressions, baseRegress)
			}
		}
		if name == "disordered" && baseRegress == 0 {
			t.Error("disordered capture produced no timestamp regressions; test is vacuous")
		}
	}
}

func TestDecodeErrorsDropNoConnections(t *testing.T) {
	// Undecodable records mid-trace (tcpdump corruption) must be counted
	// and skipped without losing any other connection's analysis, at any
	// worker count.
	const conns = 4
	pkts := multiConnPackets(t, conns)
	data, corrupt := writePcap(t, pkts, 100)
	if corrupt == 0 {
		t.Fatal("no corrupt records injected")
	}
	var baseline []byte
	for _, w := range []int{1, 3} {
		rep, err := New(Config{Workers: w}).AnalyzePcap(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.SkippedPackets != corrupt {
			t.Errorf("workers=%d: skipped = %d, want %d", w, rep.SkippedPackets, corrupt)
		}
		if len(rep.Transfers) != conns {
			t.Errorf("workers=%d: transfers = %d, want %d", w, len(rep.Transfers), conns)
		}
		for _, tr := range rep.Transfers {
			if tr.Conn.Profile.TotalDataPackets == 0 {
				t.Errorf("workers=%d: transfer %s lost its data packets", w, tr.Conn.Sender)
			}
		}
		out := serializeReport(t, rep)
		if baseline == nil {
			baseline = out
		} else if !bytes.Equal(out, baseline) {
			t.Errorf("workers=%d: report differs across worker counts", w)
		}
	}
}

func TestDemuxerEmitsCompletedConnectionsEarly(t *testing.T) {
	// A reset-split capture (tuple reuse) must surface the first
	// incarnation before Finish, so analysis overlaps ingest.
	tr := tracegen.RunWithReset(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 70, Routes: 8_000,
		PacingTimer: 200_000, PacingBudget: 24,
		Horizon: 120_000_000,
	}, 700_000)
	pkts := tr.Packets()

	early := 0
	var got []*flows.Connection
	d := flows.NewDemuxer(flows.Options{}, func(idx int, c *flows.Connection) {
		got = append(got, c)
	})
	for _, tp := range pkts {
		d.Add(tp)
	}
	early = len(got)
	total := d.Finish()
	if early == 0 {
		t.Error("no connection emitted before Finish (reset split should complete the first incarnation early)")
	}
	if total != 2 || len(got) != 2 {
		t.Fatalf("total = %d, emitted = %d, want 2 raw connections", total, len(got))
	}
	// The demuxer path must agree with the batch extractor.
	want := flows.Extract(pkts)
	if len(want) != len(got) {
		t.Fatalf("extract found %d connections, demuxer %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Profile != got[i].Profile {
			t.Errorf("connection %d profile differs between demuxer and Extract", i)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	square := func(v int) int { return v * v }
	want := MapOrdered(1, in, square)
	for _, w := range []int{0, 2, 7, 200} {
		got := MapOrdered(w, in, square)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len = %d", w, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
	if MapOrdered(4, nil, square) != nil {
		t.Error("empty input should return nil")
	}
}

// TestEarlyEmitSharedBlocksByteIdentical runs a reset-split capture merged
// in time with a second session through the streamed path at several
// worker counts. The first incarnation is emitted early, so workers read
// its payloads while the demuxer keeps copying the other connections'
// packets into the same shared blocks; the reports must not depend on the
// worker count. Run it under -race.
func TestEarlyEmitSharedBlocksByteIdentical(t *testing.T) {
	reset := tracegen.RunWithReset(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 71, Routes: 4_000,
		PacingTimer: 200_000, PacingBudget: 24,
		Horizon: 120_000_000,
	}, 700_000)
	pkts := reset.Packets()
	addr := netip.MustParseAddr("10.1.9.1")
	for _, tp := range tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 72, Routes: 4_000}).Packets() {
		if tp.Pkt.TCP.SrcPort == 179 {
			tp.Pkt.IP.Src = addr
		} else {
			tp.Pkt.IP.Dst = addr
		}
		pkts = append(pkts, tp)
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
	d := flows.NewDemuxer(flows.Options{}, func(int, *flows.Connection) {})
	for _, tp := range pkts {
		d.Add(tp)
	}
	if d.Finish(); d.Stats().EarlyEmits == 0 {
		t.Fatal("no connection emitted before Finish")
	}
	data, _ := writePcap(t, pkts, 0)

	var baseline []byte
	for _, w := range []int{1, 2, 4} {
		rep, err := New(Config{Workers: w}).AnalyzePcap(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(rep.Transfers) != 3 {
			t.Fatalf("workers=%d: transfers = %d, want 3", w, len(rep.Transfers))
		}
		out := serializeReport(t, rep)
		if baseline == nil {
			baseline = out
		} else if !bytes.Equal(out, baseline) {
			t.Errorf("workers=%d: report differs from workers=1 baseline", w)
		}
	}
}

// TestAnalyzePacketsSortsByTime checks that AnalyzePackets groups packets
// in time order, not slice order: a reset-split capture whose second
// session comes first in the slice gets the report of the sorted slice,
// with no timestamp regression, and the slice is left as it was. The same
// packets streamed in slice order through AnalyzePcap, which does not
// sort, count regressions, so the input is disordered where it matters.
func TestAnalyzePacketsSortsByTime(t *testing.T) {
	sorted := tracegen.RunWithReset(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 70, Routes: 2_000,
		PacingTimer: 200_000, PacingBudget: 24,
	}, 700_000).Packets()
	split := 0
	for i, tp := range sorted {
		if i > 0 && tp.Pkt.TCP.HasFlag(packet.FlagSYN) && !tp.Pkt.TCP.HasFlag(packet.FlagACK) {
			split = i
		}
	}
	if split == 0 {
		t.Fatal("no second session in the capture")
	}
	disordered := append(slices.Clone(sorted[split:]), sorted[:split]...)
	first := disordered[0]

	want := New(Config{}).AnalyzePackets(sorted)
	if len(want.Transfers) != 2 {
		t.Fatalf("sorted capture: %d transfers, want 2", len(want.Transfers))
	}
	got := New(Config{}).AnalyzePackets(disordered)
	if !bytes.Equal(serializeReport(t, got), serializeReport(t, want)) {
		t.Error("a time-disordered slice is analyzed unlike the same packets in time order")
	}
	if n := got.Degradation.TimestampRegressions; n != 0 {
		t.Errorf("%d timestamp regressions after the sort", n)
	}
	if disordered[0] != first {
		t.Error("AnalyzePackets reordered its caller's slice")
	}

	data, _ := writePcap(t, disordered, 0)
	streamed, err := New(Config{}).AnalyzePcap(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Degradation.TimestampRegressions == 0 {
		t.Error("the disordered capture streams without a regression; the test is vacuous")
	}
}
