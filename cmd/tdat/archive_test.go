package main

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/mrt"
	"tdat/internal/pcapio"
	"tdat/internal/tracegen"
)

// collectorAddr is the collector side of every simulated session.
var collectorAddr = netip.MustParseAddr("10.0.0.2")

// routerAddr is the address router i sends from.
func routerAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 2, 0, byte(i) + 1}) }

// simulateRouters runs each scenario as its own router (routerAddr(i)) and
// returns the merged capture in time order and the collector's archive of
// every session, router by router.
func simulateRouters(scs []tracegen.Scenario) ([]flows.TimedPacket, []mrt.Record) {
	var pkts []flows.TimedPacket
	var recs []mrt.Record
	for i, sc := range scs {
		tr := tracegen.Run(sc)
		addr := routerAddr(i)
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
	return pkts, recs
}

// writeInputs encodes pkts as dir/capture.pcap and recs, in the order
// given, as dir/archive.mrt.
func writeInputs(tb testing.TB, dir string, pkts []flows.TimedPacket, recs []mrt.Record) (pcapPath, mrtPath string) {
	tb.Helper()
	var pbuf, mbuf bytes.Buffer
	pw := pcapio.NewWriter(&pbuf)
	for _, tp := range pkts {
		frame, err := tp.Pkt.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		if err := pw.WritePacket(tp.Time, frame); err != nil {
			tb.Fatal(err)
		}
	}
	mw := mrt.NewWriter(&mbuf)
	for _, r := range recs {
		if err := mw.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		tb.Fatal(err)
	}
	pcapPath, mrtPath = filepath.Join(dir, "capture.pcap"), filepath.Join(dir, "archive.mrt")
	if err := os.WriteFile(pcapPath, pbuf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(mrtPath, mbuf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return pcapPath, mrtPath
}

// archiveGoldenInputs writes the capture and archive the -mrt goldens are
// taken from: three routers with a paced, a clean and a bandwidth-limited
// transfer. Just after the first router's last archived UPDATE come three
// records the Quagga pipeline must skip: a KEEPALIVE, an UPDATE that only
// withdraws, and an UPDATE announcing a new prefix behind a broken marker.
// Were any of them taken for an announcement, the first transfer's end
// would move onto it.
func archiveGoldenInputs(t *testing.T) (pcapPath, mrtPath string) {
	t.Helper()
	pkts, recs := simulateRouters([]tracegen.Scenario{
		{Kind: tracegen.KindPaced, Seed: 11, Routes: 600},
		{Kind: tracegen.KindClean, Seed: 12, Routes: 500},
		{Kind: tracegen.KindBandwidth, Seed: 13, Routes: 400, UpstreamRate: 60_000},
	})
	last := -1
	for i, r := range recs {
		if r.PeerIP != routerAddr(0) {
			continue
		}
		if m, err := bgp.Parse(r.Raw); err == nil && m.Type() == bgp.TypeUpdate {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("first router archived no UPDATE")
	}
	novel := []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")}
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{65001}, NextHop: routerAddr(0)}
	var skipped []mrt.Record
	for i, m := range []bgp.Message{
		&bgp.Keepalive{},
		&bgp.Update{Withdrawn: novel},
		&bgp.Update{Attrs: attrs, NLRI: novel},
	} {
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		rec := recs[last]
		rec.TimeMicros += int64(i+1) * 100_000
		rec.Raw = raw
		skipped = append(skipped, rec)
	}
	skipped[2].Raw[0] = 0 // break the marker
	recs = append(recs[:last+1], append(skipped, recs[last+1:]...)...)
	return writeInputs(t, t.TempDir(), pkts, recs)
}

// TestGoldenArchive pins the Quagga pipeline (tdat -mrt) end to end: the
// text and JSON reports over a multi-router capture and its collector
// archive, byte-identical at every worker count and equal to the
// checked-in goldens (rerun with -update to accept a deliberate change).
func TestGoldenArchive(t *testing.T) {
	pcapPath, mrtPath := archiveGoldenInputs(t)
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"archive.golden", nil},
		{"archive.json.golden", []string{"-json"}},
	} {
		render := func(workers string) string {
			var out, errBuf bytes.Buffer
			args := append([]string{"-mrt", mrtPath, "-workers", workers, "-log-level", "error"}, tc.flags...)
			if code := run(append(args, pcapPath), &out, &errBuf); code != 0 {
				t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, errBuf.String())
			}
			return out.String()
		}
		got := render("1")
		for _, w := range []string{"2", "8"} {
			if alt := render(w); alt != got {
				t.Errorf("%s: output differs between -workers 1 and -workers %s", tc.golden, w)
			}
		}
		golden := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", golden, len(got))
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/tdat -run TestGoldenArchive -update` to seed it)", err)
		}
		if got != string(want) {
			t.Errorf("-mrt output differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s",
				golden, got, want)
		}
	}
}

// TestArchiveDamaged: a truncated archive is refused under -strict with an
// ErrStrict-wrapped error and exit 1, and analyzed up to the damage with a
// warning otherwise.
func TestArchiveDamaged(t *testing.T) {
	pkts, recs := simulateRouters([]tracegen.Scenario{
		{Kind: tracegen.KindClean, Seed: 21, Routes: 300},
		{Kind: tracegen.KindClean, Seed: 22, Routes: 300},
	})
	pcapPath, mrtPath := writeInputs(t, t.TempDir(), pkts, recs)
	data, err := os.ReadFile(mrtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mrtPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	read := strconv.Itoa(len(recs) - 1)

	var out, errBuf bytes.Buffer
	if code := run([]string{"-strict", "-mrt", mrtPath, pcapPath}, &out, &errBuf); code != 1 {
		t.Errorf("-strict exit = %d, want 1; stderr:\n%s", code, errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("-strict refusal wrote a report:\n%s", out.String())
	}
	f, err := os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := analyzeWithArchive(core.New(core.Config{}), f, mrtPath, true); !errors.Is(err, core.ErrStrict) {
		t.Errorf("strict error = %v, want core.ErrStrict", err)
	}

	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-mrt", mrtPath, pcapPath}, &out, &errBuf); code != 0 {
		t.Fatalf("lenient exit = %d, stderr:\n%s", code, errBuf.String())
	}
	if !strings.HasPrefix(out.String(), "2 connection(s)") {
		t.Errorf("lenient report:\n%s", out.String())
	}
	if log := errBuf.String(); !strings.Contains(log, "damaged MRT archive") || !strings.Contains(log, "records="+read) {
		t.Errorf("lenient run did not warn with the %s records read; stderr:\n%s", read, log)
	}
}

// archiveBench is the 32-session capture of the root package's parallel
// benchmarks with the collector's archive of it, merged in time order.
var archiveBench = sync.OnceValues(func() ([]flows.TimedPacket, []mrt.Record) {
	scs := make([]tracegen.Scenario, 32)
	for i := range scs {
		scs[i] = tracegen.Scenario{Seed: int64(8000 + i), Routes: 2_000 + 250*(i%4)}
		switch i % 3 {
		case 0:
			scs[i].Kind, scs[i].PacingTimer, scs[i].PacingBudget = tracegen.KindPaced, 200_000, 24
		case 1:
			scs[i].Kind = tracegen.KindClean
		default:
			scs[i].Kind, scs[i].UpstreamRate = tracegen.KindBandwidth, 120_000
		}
	}
	pkts, recs := simulateRouters(scs)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TimeMicros < recs[j].TimeMicros })
	return pkts, recs
})

// BenchmarkAnalyzeWithArchive prices the Quagga pipeline (tdat -mrt) at
// workers=1: reading and bucketing the collector archive, scoping it per
// connection, and finding each transfer end from it.
//
//	go test -run='^$' -bench=BenchmarkAnalyzeWithArchive -benchmem ./cmd/tdat
func BenchmarkAnalyzeWithArchive(b *testing.B) {
	pkts, recs := archiveBench()
	pcapPath, mrtPath := writeInputs(b, b.TempDir(), pkts, recs)
	f, err := os.Open(pcapPath)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	a := core.New(core.Config{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		rep, err := analyzeWithArchive(a, f, mrtPath, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Transfers) != 32 {
			b.Fatalf("transfers = %d, want 32", len(rep.Transfers))
		}
	}
	b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "conns/sec")
}
