package core

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tdat/internal/detect"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/packet"
	"tdat/internal/tracegen"
)

// verdict is what the analysis concludes about one transfer, with every
// absolute time left out.
type verdict struct {
	V              factors.Vector
	G              factors.GroupVector
	MajorGroups    []factors.Group
	DominantFactor map[factors.Group]factors.Factor
	Timer          *detect.TimerGapResult
	ConsecLoss     detect.ConsecutiveLossResult
	ZeroAckBug     bool
	Messages       int
	Duration       Micros
	MCTUpdates     int
	MCTUnique      int
}

// verdicts returns the verdict of every transfer in rep, in report order.
func verdicts(t *testing.T, rep *Report) []verdict {
	t.Helper()
	if len(rep.Failures) > 0 {
		t.Fatalf("analysis failed: %+v", rep.Failures)
	}
	out := make([]verdict, len(rep.Transfers))
	for i, tr := range rep.Transfers {
		out[i] = verdict{
			V:              tr.Factors.V,
			G:              tr.Factors.G,
			MajorGroups:    tr.Factors.MajorGroups,
			DominantFactor: tr.Factors.DominantFactor,
			Timer:          tr.Timer,
			ConsecLoss:     tr.ConsecLoss,
			ZeroAckBug:     tr.ZeroAckBug,
			Messages:       tr.Messages,
			Duration:       tr.Duration(),
			MCTUpdates:     -1,
			MCTUnique:      -1,
		}
		if tr.MCT != nil {
			out[i].MCTUpdates, out[i].MCTUnique = tr.MCT.Updates, tr.MCT.UniquePrefixes
		}
	}
	return out
}

// TestTimeShiftKeepsVerdicts holds the analysis to time translation: a
// capture whose every packet time is shifted by the same amount, from a
// microsecond to past the year 2020 in Unix microseconds, gets the same
// verdict for every transfer. Verdicts depend on when packets arrive
// relative to each other, never on the clock's origin. The seeds of each
// kind also get verdicts that differ from one another, so the comparison
// can fail.
func TestTimeShiftKeepsVerdicts(t *testing.T) {
	kinds := []tracegen.Kind{
		tracegen.KindClean, tracegen.KindPaced, tracegen.KindSlowReceiver, tracegen.KindSmallWindow,
		tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss, tracegen.KindBandwidth, tracegen.KindZeroAckBug,
	}
	shifts := []Micros{1, 3_600_000_000, 1_700_000_000_000_000}
	for _, kind := range kinds {
		var seen [][]verdict
		for seed := int64(1); seed <= 3; seed++ {
			pkts := tracegen.Run(tracegen.Scenario{Kind: kind, Seed: seed, Routes: 1_500}).Packets()
			want := verdicts(t, New(Config{}).AnalyzePackets(pkts))
			if len(want) == 0 {
				t.Fatalf("%v seed %d: no transfer", kind, seed)
			}
			for _, other := range seen {
				if reflect.DeepEqual(other, want) {
					t.Errorf("%v seed %d: verdict %+v repeats an earlier seed's", kind, seed, want)
				}
			}
			seen = append(seen, want)
			for _, d := range shifts {
				shifted := make([]flows.TimedPacket, len(pkts))
				for i, p := range pkts {
					shifted[i] = flows.TimedPacket{Time: p.Time + d, Pkt: p.Pkt}
				}
				if got := verdicts(t, New(Config{}).AnalyzePackets(shifted)); !reflect.DeepEqual(got, want) {
					t.Errorf("%v seed %d shifted by %d µs:\n got %+v\nwant %+v", kind, seed, d, got, want)
				}
			}
		}
	}
}

// metamorphicKinds are the tracegen pathologies the metamorphic relations
// below are checked over, one capture of each.
var metamorphicKinds = []tracegen.Kind{
	tracegen.KindClean, tracegen.KindPaced, tracegen.KindSlowReceiver, tracegen.KindSmallWindow,
	tracegen.KindUpstreamLoss, tracegen.KindDownstreamLoss, tracegen.KindBandwidth, tracegen.KindZeroAckBug,
}

// bothPaths analyzes pkts through AnalyzePackets and, written out as a
// pcap capture, through AnalyzePcap, and returns the two reports.
func bothPaths(t *testing.T, pkts []flows.TimedPacket) map[string]*Report {
	t.Helper()
	data, _ := writePcap(t, pkts, 0)
	fromPcap, err := New(Config{}).AnalyzePcap(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Report{"AnalyzePackets": New(Config{}).AnalyzePackets(pkts), "AnalyzePcap": fromPcap}
}

// reportText renders every transfer of rep as its text report.
func reportText(t *testing.T, rep *Report) string {
	t.Helper()
	if len(rep.Failures) > 0 || len(rep.Transfers) == 0 {
		t.Fatalf("%d transfers, failures %+v", len(rep.Transfers), rep.Failures)
	}
	var buf bytes.Buffer
	for _, tr := range rep.Transfers {
		if err := tr.WriteText(&buf, false); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// rotateISNs returns a copy of pkts whose two sequence spaces are rotated:
// the router's (port 179) sequence numbers, and the collector's ACKs and
// SACK edges of them, by router; the collector's sequence numbers and the
// router's ACKs of them by collector. Each packet is copied before it is
// rewritten, since tracegen's traces share theirs.
func rotateISNs(pkts []flows.TimedPacket, router, collector uint32) []flows.TimedPacket {
	out := make([]flows.TimedPacket, len(pkts))
	for i, tp := range pkts {
		p := *tp.Pkt
		own, peer := collector, router
		if p.TCP.SrcPort == 179 {
			own, peer = router, collector
		}
		p.TCP.Seq += own
		if p.TCP.HasFlag(packet.FlagACK) {
			p.TCP.Ack += peer
		}
		p.TCP.Options = slices.Clone(p.TCP.Options)
		for j, o := range p.TCP.Options {
			if o.Kind != packet.OptSACK {
				continue
			}
			edges := slices.Clone(o.Data)
			for k := 0; k+4 <= len(edges); k += 4 {
				binary.BigEndian.PutUint32(edges[k:], binary.BigEndian.Uint32(edges[k:])+peer)
			}
			p.TCP.Options[j].Data = edges
		}
		out[i] = flows.TimedPacket{Time: tp.Time, Pkt: &p}
	}
	return out
}

// TestISNRotationKeepsReports holds the analysis to sequence-space
// rotation: adding a constant to each direction's sequence numbers (and to
// the other side's ACKs of them) leaves every text report byte-identical,
// through AnalyzePackets and AnalyzePcap. One rotation puts the router's
// sequence numbers past 2^32 halfway through its table, so the stream
// wraps mid-transfer. The kinds' reports also differ from one another, so
// the comparison can fail.
func TestISNRotationKeepsReports(t *testing.T) {
	seen := map[string]tracegen.Kind{}
	for i, kind := range metamorphicKinds {
		pkts := tracegen.Run(tracegen.Scenario{Kind: kind, Seed: int64(i) + 1, Routes: 1_500}).Packets()
		var isn, sent uint32
		for _, tp := range pkts {
			if p := tp.Pkt; p.TCP.SrcPort == 179 && p.TCP.HasFlag(packet.FlagSYN) {
				isn = p.TCP.Seq
			}
		}
		for _, tp := range pkts {
			if p := tp.Pkt; p.TCP.SrcPort == 179 && len(p.Payload) > 0 {
				sent = max(sent, p.TCP.Seq-isn+uint32(len(p.Payload)))
			}
		}
		// The router's ISN lands half its stream short of 2^32.
		wrap := -isn - sent/2
		wrapped := false
		for _, tp := range rotateISNs(pkts, wrap, 0) {
			if p := tp.Pkt; p.TCP.SrcPort == 179 && len(p.Payload) > 0 && p.TCP.Seq < isn+wrap {
				wrapped = true
			}
		}
		if !wrapped {
			t.Fatalf("%v: rotation %#x does not wrap the router's stream", kind, wrap)
		}
		want := bothPaths(t, pkts)
		for path, rep := range want {
			text := reportText(t, rep)
			if other, dup := seen[path+text]; dup {
				t.Errorf("%v: %s report repeats %v's", kind, path, other)
			}
			seen[path+text] = kind
		}
		for _, rot := range [][2]uint32{{0x9E3779B9, 0x7F4A7C15}, {wrap, 0xFFFFFFF0}} {
			for path, rep := range bothPaths(t, rotateISNs(pkts, rot[0], rot[1])) {
				if got, w := reportText(t, rep), reportText(t, want[path]); got != w {
					t.Errorf("%v: %s report changed under rotation %#x/%#x:\n got %s\nwant %s",
						kind, path, rot[0], rot[1], got, w)
				}
			}
		}
	}
}

// TestInterleavingKeepsVerdicts holds the analysis to interleaving
// independence: captures of eight transfers, each given its own router
// and collector addresses and merged by time into one capture, get for
// each transfer the verdict its capture gets alone, through AnalyzePackets
// and AnalyzePcap. The eight solo verdicts differ from one another, so a
// transfer matched to the wrong verdict fails.
func TestInterleavingKeepsVerdicts(t *testing.T) {
	var merged []flows.TimedPacket
	solo := map[netip.Addr]verdict{}
	for i, kind := range metamorphicKinds {
		router := netip.AddrFrom4([4]byte{10, 3, 0, byte(i) + 1})
		collector := netip.AddrFrom4([4]byte{10, 4, 0, byte(i) + 1})
		var pkts []flows.TimedPacket
		for _, tp := range tracegen.Run(tracegen.Scenario{Kind: kind, Seed: int64(i) + 1, Routes: 1_500}).Packets() {
			p := *tp.Pkt
			if p.TCP.SrcPort == 179 {
				p.IP.Src, p.IP.Dst = router, collector
			} else {
				p.IP.Src, p.IP.Dst = collector, router
			}
			pkts = append(pkts, flows.TimedPacket{Time: tp.Time, Pkt: &p})
		}
		for path, rep := range bothPaths(t, pkts) {
			v := verdicts(t, rep)
			if len(v) != 1 {
				t.Fatalf("%v: %s found %d transfers, want 1", kind, path, len(v))
			}
			if prev, ok := solo[router]; ok && !reflect.DeepEqual(prev, v[0]) {
				t.Fatalf("%v: the solo verdicts of AnalyzePackets and AnalyzePcap differ", kind)
			}
			solo[router] = v[0]
		}
		for other, v := range solo {
			if other != router && reflect.DeepEqual(v, solo[router]) {
				t.Errorf("%v: solo verdict repeats the one of router %v", kind, other)
			}
		}
		merged = append(merged, pkts...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
	for path, rep := range bothPaths(t, merged) {
		got := verdicts(t, rep)
		if len(got) != len(metamorphicKinds) {
			t.Fatalf("%s: %d transfers in the merged capture, want %d", path, len(got), len(metamorphicKinds))
		}
		for i, tr := range rep.Transfers {
			router := tr.Conn.Sender.Addr
			if !reflect.DeepEqual(got[i], solo[router]) {
				t.Errorf("%s: transfer from %v interleaved:\n got %+v\nwant %+v", path, router, got[i], solo[router])
			}
		}
	}
}
