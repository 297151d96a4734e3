package tracegen

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/bgpsim"
	"tdat/internal/mrt"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
)

func TestTableProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	table := Table(rnd, 1000)
	if len(table) != 1000 {
		t.Fatalf("table size = %d", len(table))
	}
	groups := map[string]bool{}
	for _, r := range table {
		if r.Attrs == nil {
			t.Fatal("route without attributes")
		}
		if len(r.Attrs.ASPath) < 2 || len(r.Attrs.ASPath) > 7 {
			t.Errorf("AS path length %d outside 2..7", len(r.Attrs.ASPath))
		}
		groups[r.Attrs.Key()] = true
	}
	// Roughly one attribute group per 4 routes.
	if len(groups) < 200 || len(groups) > 300 {
		t.Errorf("attribute groups = %d, want ≈250", len(groups))
	}
	// The table must serialize into many reasonable-size updates.
	updates, err := bgp.PackTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) < 100 {
		t.Errorf("packed into %d updates", len(updates))
	}
}

func TestTableDeterministic(t *testing.T) {
	a := Table(rand.New(rand.NewSource(5)), 100)
	b := Table(rand.New(rand.NewSource(5)), 100)
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Attrs.Key() != b[i].Attrs.Key() {
			t.Fatal("same seed produced different tables")
		}
	}
}

func TestRunCompletesEveryKind(t *testing.T) {
	kinds := []Kind{
		KindClean, KindPaced, KindSlowReceiver, KindSmallWindow,
		KindUpstreamLoss, KindDownstreamLoss, KindBandwidth, KindZeroAckBug,
	}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			tr := Run(Scenario{Kind: k, Seed: 11, Routes: 4_000})
			if tr.RoutesDelivered != 4_000 {
				t.Errorf("delivered %d of 4000 routes", tr.RoutesDelivered)
			}
			if len(tr.Captures) == 0 {
				t.Error("no captures")
			}
			if tr.GroundDuration <= 0 {
				t.Error("no ground duration")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Scenario{Kind: KindUpstreamLoss, Seed: 21, Routes: 4_000})
	b := Run(Scenario{Kind: KindUpstreamLoss, Seed: 21, Routes: 4_000})
	if len(a.Captures) != len(b.Captures) || a.GroundDuration != b.GroundDuration {
		t.Errorf("same seed diverged: %d/%d captures, %d/%d µs",
			len(a.Captures), len(b.Captures), a.GroundDuration, b.GroundDuration)
	}
}

// TestKindStrings: every kind has its own name, ParseKind inverts String,
// and an out-of-range kind is "unknown", which ParseKind rejects.
func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindClean: "clean", KindPaced: "paced", KindSlowReceiver: "slow-receiver",
		KindSmallWindow: "small-window", KindUpstreamLoss: "upstream-loss",
		KindDownstreamLoss: "downstream-loss", KindBandwidth: "bandwidth",
		KindZeroAckBug: "zero-ack-bug", KindHeavyTailApp: "heavy-tail-app",
		KindBimodalApp: "bimodal-app", KindVaryingRate: "varying-rate",
		KindFanout: "fanout", Kind(99): "unknown", Kind(-1): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
		got, err := ParseKind(want)
		if want == "unknown" {
			if err == nil {
				t.Errorf("ParseKind(%q) = %v, want an error", want, got)
			}
		} else if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", want, got, err, k)
		}
	}
}

// TestDatasetProfileGenerate: a profile's picks, each run with the
// profile's overrides, make a dataset of complete transfers.
func TestDatasetProfileGenerate(t *testing.T) {
	p := ISPAQuagga(6, 3, 77)
	picks := p.Picks()
	if len(picks) != 6 {
		t.Fatalf("drew %d picks", len(picks))
	}
	for i, pk := range picks {
		if pk.Index != i {
			t.Errorf("pick %d has index %d", i, pk.Index)
		}
		if tr := RunWithProfile(pk.Scenario, p); tr.RoutesDelivered != pk.Router.Routes {
			t.Errorf("transfer %d delivered %d of %d routes", i, tr.RoutesDelivered, pk.Router.Routes)
		}
		if pk.Router.RTT < 2_000 || pk.Router.RTT > 30_000 {
			t.Errorf("router RTT %d outside profile range", pk.Router.RTT)
		}
	}
}

// TestTraceWritePcap: the pcap stream holds every capture at its capture
// time and decodes back to the same packets.
func TestTraceWritePcap(t *testing.T) {
	tr := Run(Scenario{Kind: KindPaced, Seed: 12, Routes: 1_000})
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := pcapio.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(tr.Captures) {
		t.Fatalf("%d records for %d captures", len(recs), len(tr.Captures))
	}
	for i, rec := range recs {
		c := tr.Captures[i]
		var p packet.Packet
		if err := packet.DecodeInto(rec.Data, &p); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.TimeMicros != c.Time || p.TCP.Seq != c.Pkt.TCP.Seq || len(p.Payload) != len(c.Pkt.Payload) {
			t.Fatalf("record %d: time %d seq %d len %d, want %d %d %d", i,
				rec.TimeMicros, p.TCP.Seq, len(p.Payload), c.Time, c.Pkt.TCP.Seq, len(c.Pkt.Payload))
		}
	}
}

// TestTraceWriteMRT: the archive round-trips through MRT with the router
// as peer and the collector as local end, read from the router's SYN
// (fanout replicas do not move them), and several traces share one
// writer.
func TestTraceWriteMRT(t *testing.T) {
	a := Run(Scenario{Kind: KindClean, Seed: 13, Routes: 800})
	b := Run(Scenario{Kind: KindFanout, Seed: 14, Routes: 400, GroupMembers: 6})
	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf)
	for _, tr := range []*Trace{a, b} {
		if err := tr.WriteMRT(mw); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := mrt.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]bgpsim.ArchiveEntry(nil), a.Archive...), b.Archive...)
	if len(recs) != len(want) {
		t.Fatalf("%d records for %d archived updates", len(recs), len(want))
	}
	router, collector := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	for i, r := range recs {
		if r.PeerIP != router || r.LocalIP != collector {
			t.Fatalf("record %d: peer %v local %v", i, r.PeerIP, r.LocalIP)
		}
		if r.TimeMicros != want[i].Time || r.PeerAS != want[i].PeerAS || !bytes.Equal(r.Raw, want[i].Raw) {
			t.Fatalf("record %d differs from the archive", i)
		}
	}
	// An archive with no capture to take the session's ends from is an
	// error, not a record with made-up addresses.
	if err := (&Trace{Archive: a.Archive}).WriteMRT(mrt.NewWriter(io.Discard)); err == nil {
		t.Error("WriteMRT without a capture succeeded")
	}
}

func TestRunPeerGroupGroundTruth(t *testing.T) {
	pg := RunPeerGroup(3, 2, 8_000, 1_000_000, 30_000_000)
	if len(pg.Members) != 2 || pg.Healthy != pg.Members[0] || pg.Faulty != pg.Members[1] {
		t.Fatalf("members %d: healthy and faulty are not members 0 and 1", len(pg.Members))
	}
	if pg.Healthy.RoutesDelivered != 8_000 {
		t.Errorf("healthy delivered %d", pg.Healthy.RoutesDelivered)
	}
	if pg.HoldExpiry < 30_000_000 || pg.HoldExpiry > 70_000_000 {
		t.Errorf("hold expiry at %d µs with a 30s hold", pg.HoldExpiry)
	}
	// The healthy transfer must have stalled roughly the blocking period.
	if pg.Healthy.GroundDuration < 25_000_000 {
		t.Errorf("healthy ground duration %d µs shows no blocking", pg.Healthy.GroundDuration)
	}
}

func TestRunIncastSharedBottleneck(t *testing.T) {
	traces := RunIncast(9, 4, 4_000, 100, 100_000)
	if len(traces) != 4 {
		t.Fatalf("traces = %d", len(traces))
	}
	for i, tr := range traces {
		if tr.RoutesDelivered != 4_000 {
			t.Errorf("conn %d delivered %d of 4000", i, tr.RoutesDelivered)
		}
	}
}

func TestRunChurnDeliversBurst(t *testing.T) {
	ct := RunChurn(Scenario{Kind: KindPaced, Seed: 50, Routes: 4_000,
		PacingTimer: 100_000, PacingBudget: 32}, 5_000_000, 0.25)
	if ct.ChurnStart == 0 || ct.ChurnEnd <= ct.ChurnStart {
		t.Fatalf("churn window [%d, %d]", ct.ChurnStart, ct.ChurnEnd)
	}
	// The burst re-announces 25% of the table on top of the initial 100%.
	if ct.RoutesDelivered < 4_000+900 {
		t.Errorf("delivered %d routes, want initial 4000 + ~1000 churn", ct.RoutesDelivered)
	}
	// There must be a quiet idle period between transfer end and churn.
	var lastBefore Micros
	for _, e := range ct.Archive {
		if e.Time < ct.ChurnStart {
			lastBefore = e.Time
		}
	}
	if ct.ChurnStart-lastBefore < 4_000_000 {
		t.Errorf("idle before churn only %d µs", ct.ChurnStart-lastBefore)
	}
}

// TestRunPeerGroupNAllMembersBlocked: with four members, every healthy
// one waits out the vendor member's hold timer.
func TestRunPeerGroupNAllMembersBlocked(t *testing.T) {
	pg := RunPeerGroup(60, 4, 8_000, 1_000_000, 30_000_000)
	traces := pg.Members
	if len(traces) != 4 || pg.Faulty != traces[3] {
		t.Fatalf("traces = %d, faulty is not the last", len(traces))
	}
	// Every healthy member (0..2) delivers the full table but only after
	// the dead member's hold expiry (~31 s).
	for i, tr := range traces[:3] {
		if tr.RoutesDelivered != 8_000 {
			t.Errorf("member %d delivered %d", i, tr.RoutesDelivered)
		}
		if tr.GroundDuration < 25_000_000 {
			t.Errorf("member %d finished at %.1fs without blocking",
				i, float64(tr.GroundDuration)/1e6)
		}
		if syn := tr.Captures[0].Pkt.IP.Dst; syn != netip.AddrFrom4([4]byte{10, 0, 0, byte(2 + i)}) {
			t.Errorf("member %d dialed collector %v", i, syn)
		}
	}
	// The dead member received only the pre-kill prefix (if any).
	if pg.Faulty.RoutesDelivered >= 8_000 {
		t.Errorf("dead member delivered %d", pg.Faulty.RoutesDelivered)
	}
}
