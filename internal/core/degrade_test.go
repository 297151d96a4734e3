package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tdat/internal/flows"
	"tdat/internal/packet"
	"tdat/internal/tracegen"
	"tdat/internal/traceutil"
)

// corpusTrace loads one committed adversarial pcap from the shared corpus.
func corpusTrace(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "pcapio", "testdata", "adversarial", name))
	if err != nil {
		t.Fatalf("reading corpus trace: %v", err)
	}
	return data
}

var corpusNames = []string{
	"truncated_header.pcap",
	"truncated_record.pcap",
	"zero_snaplen.pcap",
	"corrupt_bgp_length.pcap",
	"clock_regression.pcap",
}

// TestCorpusDegradesGracefully runs the full lenient pipeline over every
// damage class of the adversarial corpus, at one worker and at several: each
// trace must complete without panicking and account for its damage in a
// non-empty degradation report.
func TestCorpusDegradesGracefully(t *testing.T) {
	for _, name := range corpusNames {
		for _, workers := range []int{1, 4} {
			t.Run(name, func(t *testing.T) {
				data := corpusTrace(t, name)
				a := New(Config{Workers: workers})
				rep, err := a.AnalyzePcap(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("lenient analysis failed: %v", err)
				}
				if rep.Degradation.Empty() {
					t.Fatal("damaged trace produced an empty degradation report")
				}
				var buf bytes.Buffer
				if err := rep.Degradation.WriteText(&buf); err != nil {
					t.Fatalf("WriteText: %v", err)
				}
				if !strings.HasPrefix(buf.String(), "degraded input:") {
					t.Errorf("unexpected report rendering:\n%s", buf.String())
				}
			})
		}
	}
}

// TestCorpusDegradationKinds pins each damage class to the degradation
// dimension it must show up under.
func TestCorpusDegradationKinds(t *testing.T) {
	check := map[string]func(t *testing.T, d *Degradation){
		"truncated_header.pcap": func(t *testing.T, d *Degradation) {
			if len(d.RecordErrors) == 0 {
				t.Error("no RecordErrors for a truncated file header")
			}
		},
		"truncated_record.pcap": func(t *testing.T, d *Degradation) {
			if len(d.RecordErrors) != 1 {
				t.Fatalf("RecordErrors = %v, want exactly one", d.RecordErrors)
			}
			if d.RecordErrors[0].Index <= 0 || d.RecordErrors[0].Offset <= 24 {
				t.Errorf("damage not located: %+v", d.RecordErrors[0])
			}
		},
		"zero_snaplen.pcap": func(t *testing.T, d *Degradation) {
			if d.UndecodableRecords == 0 {
				t.Error("zero-snaplen records decoded despite empty frames")
			}
		},
		"corrupt_bgp_length.pcap": func(t *testing.T, d *Degradation) {
			for _, ci := range d.ConnIssues {
				if ci.Kind == "bgp-framing" {
					return
				}
			}
			t.Errorf("no bgp-framing issue recorded: %+v", d.ConnIssues)
		},
		"clock_regression.pcap": func(t *testing.T, d *Degradation) {
			if d.TimestampRegressions == 0 {
				t.Error("clock regressions not counted")
			}
		},
	}
	for _, name := range corpusNames {
		t.Run(name, func(t *testing.T) {
			rep, err := New(Config{Workers: 1}).AnalyzePcap(bytes.NewReader(corpusTrace(t, name)))
			if err != nil {
				t.Fatalf("lenient analysis failed: %v", err)
			}
			check[name](t, &rep.Degradation)
		})
	}
}

// TestStrictRefusesCorpus checks -strict semantics: every damaged trace is
// refused with an ErrStrict-wrapped error instead of a degraded report.
func TestStrictRefusesCorpus(t *testing.T) {
	for _, name := range corpusNames {
		t.Run(name, func(t *testing.T) {
			_, err := New(Config{Strict: true}).AnalyzePcap(bytes.NewReader(corpusTrace(t, name)))
			if !errors.Is(err, ErrStrict) {
				t.Fatalf("err = %v, want ErrStrict", err)
			}
		})
	}
}

// TestStrictAcceptsCleanTrace checks strict mode is transparent on a
// healthy capture — byte-identical output, empty degradation. It drives the
// pcap path, the only one that enforces strict mode.
func TestStrictAcceptsCleanTrace(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 8_000, 1460)
	b.SteadyTransfer(20_000, 8_000, 4, 4, 65535)
	data, _ := writePcap(t, b.Pkts, 0)
	lenient, err := New(Config{Workers: 1}).AnalyzePcap(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := New(Config{Workers: 1, Strict: true}).AnalyzePcap(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("strict mode refused a clean trace: %v", err)
	}
	if len(strict.Transfers) == 0 {
		t.Fatal("no transfers")
	}
	if !bytes.Equal(serializeReport(t, lenient), serializeReport(t, strict)) {
		t.Error("strict report differs from lenient report")
	}
	if !strict.Degradation.Empty() {
		t.Errorf("clean trace reported degradation: %+v", strict.Degradation)
	}
}

// TestLongerRetransmissionIsNoConcession: the sender of upstream-loss
// session 512010 retransmits a segment longer than its first copy, and only
// the longer copy carries the tail. The capture is complete, so every
// message must be recovered and nothing conceded.
func TestLongerRetransmissionIsNoConcession(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Routes: 1500, Seed: 512010})
	data, _ := writePcap(t, tr.Packets(), 0)
	rep, err := New(Config{Workers: 1}).AnalyzePcap(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transfers) != 1 {
		t.Fatalf("%d transfers, want 1", len(rep.Transfers))
	}
	if tr := rep.Transfers[0]; tr.Messages != 377 || tr.ReassemblyError != "" {
		t.Errorf("%d messages, reassembly error %q; want 377", tr.Messages, tr.ReassemblyError)
	}
	if !rep.Degradation.Empty() {
		t.Errorf("complete capture reported degradation: %+v", rep.Degradation)
	}
}

// TestPreAnchorRetransmissionAnalyzed: a capture that starts after the
// sender's first two data segments, then catches a late retransmission of
// the second one, whose bytes all predate the stream's anchor. The
// connection must be analyzed, not fail.
func TestPreAnchorRetransmissionAnalyzed(t *testing.T) {
	pkts := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 11, Routes: 2_000}).Packets()
	var data []int
	for i, tp := range pkts {
		if tp.Pkt.TCP.SrcPort == 179 && len(tp.Pkt.Payload) > 0 {
			data = append(data, i)
		}
	}
	retx := *pkts[data[1]].Pkt
	late := flows.TimedPacket{Time: pkts[len(pkts)-1].Time + 1_000, Pkt: &retx}
	rep := New(Config{Workers: 1}).AnalyzePackets(append(slices.Clone(pkts[data[2]:]), late))
	if len(rep.Failures) != 0 || len(rep.Transfers) != 1 {
		t.Fatalf("%d transfers, failures %+v; want one transfer", len(rep.Transfers), rep.Failures)
	}
	if tr := rep.Transfers[0]; tr.ReassemblyError != "" || tr.Messages == 0 {
		t.Errorf("%d messages, reassembly error %q", tr.Messages, tr.ReassemblyError)
	}
}

// TestConnectionCapDegrades checks the demuxer's connection cap
// (Config.Flows.MaxTracked): a flood of distinct tuples stays bounded, the
// evictions are counted, and every evicted connection is still analyzed.
func TestConnectionCapDegrades(t *testing.T) {
	b := traceutil.New()
	// 8 concurrent connections on distinct ports, none of which ever
	// finishes — the demuxer must evict to stay under the cap.
	for i := 0; i < 8; i++ {
		ep := flows.Endpoint{Addr: traceutil.SenderEP.Addr, Port: uint16(5000 + i)}
		b.Add(Micros(i)*1_000, ep, traceutil.ReceiverEP, 0, 0, packet.FlagSYN, 65535, 0)
		b.Add(Micros(i)*1_000+500, ep, traceutil.ReceiverEP, 1, 1, packet.FlagACK, 65535, 100)
	}
	cfg := Config{Workers: 1}
	cfg.Flows.MaxTracked = 3
	rep := New(cfg).AnalyzePackets(b.Pkts)
	if rep.Degradation.EvictedConnections == 0 {
		t.Fatal("no evictions under a cap smaller than the live connection count")
	}
	if got := len(rep.Transfers); got != 8 {
		t.Errorf("transfers = %d, want all 8 (evicted ones still analyzed)", got)
	}
}

// TestReassemblyCapTruncates checks MaxReassemblyBytes: a transfer larger
// than the cap is decoded up to the cap and the excess is accounted as a
// reassembly-cap concession.
func TestReassemblyCapTruncates(t *testing.T) {
	data := corpusTrace(t, "clock_regression.pcap") // intact payload bytes
	rep, err := New(Config{Workers: 1, MaxReassemblyBytes: 64}).AnalyzePcap(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ci := range rep.Degradation.ConnIssues {
		if ci.Kind == "reassembly-cap" {
			found = true
		}
	}
	if !found {
		t.Errorf("no reassembly-cap issue under a 64-byte cap: %+v", rep.Degradation.ConnIssues)
	}
}
