package tracegen

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tdat/internal/netem"
	"tdat/internal/tcpsim"
	"tdat/internal/timerange"
)

var update = flag.Bool("update", false, "rewrite the golden trace hashes from current simulator output")

// goldenGrid is the committed seed grid whose Reno traces are pinned by
// testdata/trace_hashes.txt. It covers every scenario kind (including a
// scripted loss episode) at two seeds, so a sender-side refactor that
// changes any emitted packet — content, order, or timing — flips a hash.
func goldenGrid() map[string]Scenario {
	grid := map[string]Scenario{}
	kinds := []Kind{
		KindClean, KindPaced, KindSlowReceiver, KindSmallWindow,
		KindUpstreamLoss, KindDownstreamLoss, KindBandwidth, KindZeroAckBug,
	}
	for _, k := range kinds {
		for _, seed := range []int64{1, 2} {
			name := fmt.Sprintf("%s-seed%d", k, seed)
			grid[name] = Scenario{Kind: k, Seed: seed, Routes: 2_000}
		}
	}
	// A flapping downstream link exercises the RTO go-back-N repair path.
	grid["loss-episode-seed1"] = Scenario{
		Kind:   KindDownstreamLoss,
		Seed:   1,
		Routes: 4_000,
		LossEpisodes: []timerange.Range{
			timerange.R(250_000, 600_000),
			timerange.R(1_650_000, 2_000_000),
		},
	}
	return grid
}

// hashTrace digests everything the simulator emitted: every sniffed packet
// (time, direction, full wire bytes) and every archived BGP message (time,
// raw payload), plus the ground duration. Two traces hash equal iff the
// simulator produced byte-identical output on an identical schedule.
func hashTrace(t *testing.T, tr *Trace) string {
	t.Helper()
	h := sha256.New()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	u64(uint64(len(tr.Captures)))
	for _, c := range tr.Captures {
		u64(uint64(c.Time))
		u64(uint64(c.Dir))
		wire, err := c.Pkt.Marshal()
		if err != nil {
			t.Fatalf("marshal captured packet: %v", err)
		}
		u64(uint64(len(wire)))
		h.Write(wire)
	}
	u64(uint64(len(tr.Archive)))
	for _, e := range tr.Archive {
		u64(uint64(e.Time))
		u64(uint64(len(e.Raw)))
		h.Write(e.Raw)
	}
	u64(uint64(tr.GroundDuration))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenTraceHashes is the refactor invariant for the sender stack: the
// default (Reno) simulator output over the committed seed grid must stay
// byte-identical to the hashes recorded before the CongestionControl
// extraction. Rerun with -update only for a deliberate behavior change.
func TestGoldenTraceHashes(t *testing.T) {
	got := map[string]string{}
	for n, sc := range goldenGrid() {
		got[n] = hashTrace(t, Run(sc))
	}
	checkGolden(t, "trace_hashes.txt", "the golden Reno seed grid", "TestGoldenTraceHashes", got)
}

// runnerGrid names one run of each entry point beyond Run's Reno grid —
// churn, reset, peer group, incast, the dataset profiles' picks, and the
// fanout and diversity kinds — each feeding everything it returns into a
// digest.
func runnerGrid() map[string]func(d *runnerDigest) {
	grid := map[string]func(d *runnerDigest){
		"churn-paced": func(d *runnerDigest) {
			ct := RunChurn(Scenario{Kind: KindPaced, Seed: 50, Routes: 2_000,
				PacingTimer: 100_000, PacingBudget: 32}, 5_000_000, 0.25)
			d.trace(ct.Trace)
			d.u64(uint64(ct.ChurnStart), uint64(ct.ChurnEnd))
		},
		"churn-clean-cubic": func(d *runnerDigest) {
			ct := RunChurn(Scenario{Kind: KindClean, Seed: 52, Routes: 1_500,
				Stack: tcpsim.StackCubic}, 2_000_000, 0.1)
			d.trace(ct.Trace)
			d.u64(uint64(ct.ChurnStart), uint64(ct.ChurnEnd))
		},
		"reset-paced": func(d *runnerDigest) {
			d.trace(RunWithReset(Scenario{Kind: KindPaced, Seed: 70, Routes: 3_000,
				Horizon: 120_000_000}, 700_000))
		},
		"peergroup": func(d *runnerDigest) {
			pg := RunPeerGroup(3, 2, 3_000, 1_000_000, 30_000_000)
			d.trace(pg.Healthy)
			d.trace(pg.Faulty)
			d.u64(uint64(pg.KillAt), uint64(pg.HoldExpiry))
		},
		"incast": func(d *runnerDigest) {
			for _, tr := range RunIncast(9, 3, 2_000, 100, 100_000) {
				d.trace(tr)
			}
		},
		// The horizon ends this run mid-transfer (4,984 of 8,000 routes).
		"horizon-bound-slow-receiver": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindSlowReceiver, Seed: 9, Routes: 8_000, Horizon: 3_500_000}))
		},
		// The last update is archived at 4.819 s, just before the first
		// 5 s chunk ends; its delayed ACK (5.019 s) makes the capture only
		// through the drain tail.
		"drain-tail-small-window": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindSmallWindow, Seed: 1, Routes: 1_700, RTT: 500_000}))
		},
		"fanout": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindFanout, Seed: 7, Routes: 1_200, GroupMembers: 24}))
		},
		"fanout-default-group": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindFanout, Seed: 8, Routes: 600}))
		},
		"heavy-tail-app": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindHeavyTailApp, Seed: 3, Routes: 1_500}))
		},
		"bimodal-app": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindBimodalApp, Seed: 4, Routes: 1_500}))
		},
		"varying-rate-step": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindVaryingRate, Seed: 5, Routes: 1_500}))
		},
		"varying-rate-sawtooth": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindVaryingRate, Seed: 5, Routes: 1_500, RateProfile: "sawtooth"}))
		},
		"upstream-burst-loss-sack": func(d *runnerDigest) {
			d.trace(Run(Scenario{Kind: KindUpstreamLoss, Seed: 6, Routes: 2_000, Stack: tcpsim.StackSACK,
				BurstLoss: &netem.GEParams{PGoodBad: 0.05, PBadGood: 0.25, DropBad: 0.9}}))
		},
	}
	// Small dataset profiles: their picks cover the profile-wide receive
	// buffer and RTO backoff overrides.
	for _, p := range []DatasetProfile{ISPAVendor(2, 2, 31), ISPAQuagga(2, 2, 32), RouteViews(3, 2, 33)} {
		for _, pk := range p.Picks() {
			p, pk := p, pk
			grid[fmt.Sprintf("%s-pick%d", p.Name, pk.Index)] = func(d *runnerDigest) {
				d.trace(RunWithProfile(pk.Scenario, p))
			}
		}
	}
	return grid
}

// runnerDigest hashes everything a runner returns: per trace, hashTrace's
// digest plus the kind, RoutesDelivered, RouterStats and Truth; per run,
// the runner's extra instants.
type runnerDigest struct {
	t *testing.T
	h hash.Hash
}

func (d *runnerDigest) u64(vs ...uint64) {
	var scratch [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(scratch[:], v)
		d.h.Write(scratch[:])
	}
}

func (d *runnerDigest) trace(tr *Trace) {
	d.h.Write([]byte(hashTrace(d.t, tr)))
	d.u64(uint64(tr.Kind), uint64(tr.RoutesDelivered))
	fmt.Fprintf(d.h, "%+v", tr.RouterStats)
	if tr.Truth == nil {
		d.u64(0)
		return
	}
	d.u64(1)
	tt := tr.Truth
	for _, at := range [][]Micros{tt.UpstreamDrops, tt.DownstreamDrops, tt.AckDrops, tt.Timeouts, tt.BugDrops} {
		d.u64(uint64(len(at)))
		for _, v := range at {
			d.u64(uint64(v))
		}
	}
	for _, set := range []*timerange.Set{tt.ZeroWindow, tt.AdvBlocked, tt.AppIdle, tt.GroupBlocked} {
		d.u64(uint64(set.Len()))
		for _, r := range set.Ranges() {
			d.u64(uint64(r.Start), uint64(r.End))
		}
	}
}

// TestGoldenRunnerHashes pins every runner's output, so rewiring how a
// runner builds, runs or finishes its trace must keep each byte and each
// instant. Rerun with -update only for a deliberate behavior change.
func TestGoldenRunnerHashes(t *testing.T) {
	got := map[string]string{}
	for n, run := range runnerGrid() {
		d := &runnerDigest{t: t, h: sha256.New()}
		run(d)
		got[n] = fmt.Sprintf("%x", d.h.Sum(nil))
	}
	checkGolden(t, "runner_hashes.txt", "every runner", "TestGoldenRunnerHashes", got)
}

// checkGolden compares got against testdata/file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, what, test string, got map[string]string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	regen := fmt.Sprintf("go test ./internal/tracegen -run %s -update", test)

	if *update {
		var b strings.Builder
		fmt.Fprintf(&b, "# SHA-256 trace hashes for %s (see golden_test.go).\n", what)
		fmt.Fprintf(&b, "# Regenerate with: %s\n", regen)
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d scenarios)", golden, len(names))
		return
	}

	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (run `%s` to seed it)", err, regen)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, n := range names {
		w, ok := want[n]
		if !ok {
			t.Errorf("scenario %s missing from %s (rerun with -update)", n, golden)
			continue
		}
		if got[n] != w {
			t.Errorf("scenario %s: trace hash changed\n  got  %s\n  want %s\n(the simulator's output is a refactor invariant; rerun with -update only for a deliberate behavior change)",
				n, got[n], w)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("golden file pins unknown scenario %s (rerun with -update)", n)
		}
	}
}
