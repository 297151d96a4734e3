package oracle

import (
	"fmt"
	"sort"

	"tdat/internal/core"
	"tdat/internal/factors"
	"tdat/internal/netem"
	"tdat/internal/series"
	"tdat/internal/tcpsim"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// Config tunes the validation sweep. The zero value selects the full
// default sweep.
type Config struct {
	// Seed offsets every scenario seed, so CI can rotate inputs.
	Seed int64
	// Quick caps the sweep at one representative case per scenario kind
	// (the CI mode; the full grid is for local investigation).
	Quick bool
	// Workers is the analyzer pool size (0 = GOMAXPROCS). Every case is
	// re-analyzed at a different worker count and the factor vectors
	// compared, so the sweep doubles as the worker-invariance check.
	Workers int
	// Routes is the per-scenario table size (default 8000; quick halves it).
	Routes int
	// Explain records per-case evidence: the analyzer's rule evaluations
	// (core.Config.Explain) plus truth-vs-inference interval diffs, surfaced
	// by Result.WriteExplainFailures on a floor breach.
	Explain bool
	// Stacks lists the sender-stack personalities to sweep (nil = Reno
	// only). The Reno sweep populates the Result's top-level fields — the
	// scores the historical floors gate — and every other stack lands in
	// Result.PerStack with its own scorecard.
	Stacks []tcpsim.Stack
	// NoDimensions skips the adversarial-diversity sweep (DimensionCases →
	// Result.PerDimension). The default runs it; tests that re-run the
	// sweep many times and only examine the base grid set this to stay
	// fast. It never changes the embedded Reno scorecard.
	NoDimensions bool
}

func (c Config) withDefaults() Config {
	if c.Routes == 0 {
		c.Routes = 8_000
		if c.Quick {
			c.Routes = 4_000
		}
	}
	return c
}

// The scorer's base tolerances. baseIntervalTol (25 ms) is the
// interval-matching tolerance: every passive inference dates events from
// wire arrivals that trail the simulator's internal instant by propagation
// and ACK latency. baseLossTol (4 s) is the loss-event tolerance: an
// RTO-repaired drop becomes visible only at the retransmission, one
// backed-off RTO (minimum 1 s, doubling) after the drop.
const (
	baseIntervalTol Micros = 25_000
	baseLossTol     Micros = 4_000_000
)

// intervalTol returns the effective interval tolerance for a scenario:
// max(baseIntervalTol, 4×RTT), capped at RTT+200 ms. The cap matters on
// very-long-delay paths: at 500 ms+ RTT an uncapped 4×RTT window (2 s+)
// would absorb whole stall episodes and make the interval scores
// vacuously perfect. It is inactive below 100 ms RTT, leaving the
// historical grid byte-identical.
func intervalTol(sc tracegen.Scenario) Micros {
	t := 4 * sc.RTT
	if t > sc.RTT+200_000 {
		t = sc.RTT + 200_000
	}
	return max(t, baseIntervalTol)
}

// lossTol returns the effective loss-event tolerance for a scenario:
// baseLossTol plus 4×(RTT−100 ms) on long-delay paths, since RTO repair
// latency scales with RTT once above the 1 s minimum RTO; a fixed window
// would misscore genuine repairs as spurious at 500 ms+ RTT. Below 100 ms
// RTT this is exactly the base, leaving the historical grid byte-identical.
func lossTol(sc tracegen.Scenario) Micros {
	t := baseLossTol
	if sc.RTT > 100_000 {
		t += 4 * (sc.RTT - 100_000)
	}
	return t
}

// ExpectedGroup maps each simulated pathology to the factor group T-DAT
// should blame. KindClean transfers are mildly pacing-limited by
// construction (routers never blast at line rate), so sender is correct
// there too.
func ExpectedGroup(k tracegen.Kind) factors.Group {
	switch k {
	case tracegen.KindPaced, tracegen.KindClean,
		tracegen.KindHeavyTailApp, tracegen.KindBimodalApp, tracegen.KindFanout:
		return factors.GroupSender
	case tracegen.KindSlowReceiver, tracegen.KindSmallWindow,
		tracegen.KindDownstreamLoss, tracegen.KindZeroAckBug:
		return factors.GroupReceiver
	default: // upstream loss, bandwidth, varying rate
		return factors.GroupNetwork
	}
}

// Case is one sweep scenario with its expected verdicts.
type Case struct {
	Name     string
	Scenario tracegen.Scenario
	Expected factors.Group
	// Dimension tags the adversarial-diversity axis this case stresses
	// (empty for the historical base grid). Cases sharing a dimension are
	// scored together into one Result.PerDimension entry.
	Dimension string
	// CheckTimer asserts the pacing-timer detector finds the scenario's
	// timer within 20%.
	CheckTimer bool
	// CheckConsec asserts the consecutive-loss detector reports ≥1 episode.
	CheckConsec bool
	// CheckBug asserts the ZeroAckBug conflict detector fires.
	CheckBug bool
}

// Cases builds the sweep grid: scenario kind × the parameter each kind is
// sensitive to (pacing/MRAI timer, receive buffer, loss rate, link rate) ×
// RTT. Quick mode keeps one representative case per kind.
func Cases(cfg Config) []Case {
	cfg = cfg.withDefaults()
	var out []Case
	add := func(name string, sc tracegen.Scenario, mut func(*Case)) {
		sc.Seed += cfg.Seed
		sc.Routes = cfg.Routes
		c := Case{Name: name, Scenario: sc, Expected: ExpectedGroup(sc.Kind)}
		if mut != nil {
			mut(&c)
		}
		out = append(out, c)
	}
	timer := func(c *Case) { c.CheckTimer = true }

	if cfg.Quick {
		add("clean", tracegen.Scenario{Kind: tracegen.KindClean, Seed: 11}, nil)
		add("paced-200ms", tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 12}, timer)
		add("slow-receiver", tracegen.Scenario{Kind: tracegen.KindSlowReceiver, Seed: 13}, nil)
		add("small-window", tracegen.Scenario{Kind: tracegen.KindSmallWindow, Seed: 14, RTT: 30_000}, nil)
		add("upstream-loss", tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 15}, nil)
		add("downstream-loss", tracegen.Scenario{Kind: tracegen.KindDownstreamLoss, Seed: 16}, nil)
		add("bandwidth", tracegen.Scenario{Kind: tracegen.KindBandwidth, Seed: 17, UpstreamRate: 60_000}, nil)
		add("zero-ack-bug", tracegen.Scenario{Kind: tracegen.KindZeroAckBug, Seed: 18},
			func(c *Case) { c.CheckBug = true })
		add("loss-episode", lossEpisodeScenario(19), func(c *Case) {
			c.CheckConsec = true
			// The table must outlast all eight flaps for the run to chain.
			c.Scenario.Routes *= 8
		})
		return out
	}

	for _, rtt := range []Micros{8_000, 30_000} {
		tag := fmt.Sprintf("rtt%dms", rtt/1_000)
		add("clean-"+tag, tracegen.Scenario{Kind: tracegen.KindClean, Seed: 21, RTT: rtt}, nil)
		for _, pt := range []Micros{100_000, 200_000, 400_000} {
			add(fmt.Sprintf("paced-%dms-%s", pt/1_000, tag),
				tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 23, PacingTimer: pt, RTT: rtt}, timer)
		}
		for _, rate := range []int64{15_000, 25_000} {
			add(fmt.Sprintf("slow-receiver-%dk-%s", rate/1_000, tag),
				tracegen.Scenario{Kind: tracegen.KindSlowReceiver, Seed: 25, CollectorRate: rate, RTT: rtt}, nil)
		}
		// Loss below ~5% over a table this size is a handful of drops — too
		// few for the loss group to dominate the verdict (and with an
		// unlucky seed, zero drops); the grid starts where the pathology
		// has statistical weight.
		for _, loss := range []float64{0.06, 0.12} {
			add(fmt.Sprintf("upstream-loss-%02.0f-%s", loss*100, tag),
				tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 27, LossRate: loss, RTT: rtt}, nil)
			add(fmt.Sprintf("downstream-loss-%02.0f-%s", loss*100, tag),
				tracegen.Scenario{Kind: tracegen.KindDownstreamLoss, Seed: 29, LossRate: loss, RTT: rtt}, nil)
		}
		add("bandwidth-"+tag,
			tracegen.Scenario{Kind: tracegen.KindBandwidth, Seed: 31, UpstreamRate: 60_000, RTT: rtt}, nil)
	}
	// Small windows only bind when the bandwidth-delay product exceeds them.
	for _, rtt := range []Micros{30_000, 80_000} {
		for _, buf := range []int{8_192, 16_384} {
			add(fmt.Sprintf("small-window-%dk-rtt%dms", buf/1024, rtt/1_000),
				tracegen.Scenario{Kind: tracegen.KindSmallWindow, Seed: 33, RecvBuf: buf, RTT: rtt}, nil)
		}
	}
	add("zero-ack-bug", tracegen.Scenario{Kind: tracegen.KindZeroAckBug, Seed: 35},
		func(c *Case) { c.CheckBug = true })
	add("loss-episode", lossEpisodeScenario(37), func(c *Case) {
		c.CheckConsec = true
		c.Scenario.Routes *= 8
	})
	return out
}

// DimensionCases builds the adversarial-diversity grid: one group of cases
// per stress axis beyond the base grid's reach. Each dimension lands in its
// own Result.PerDimension scorecard so a regression on, say, 500 ms paths
// cannot hide inside an aggregate over easy cases. Quick mode keeps one
// representative case per dimension.
func DimensionCases(cfg Config) []Case {
	cfg = cfg.withDefaults()
	var out []Case
	add := func(dim, name string, sc tracegen.Scenario, mut func(*Case)) {
		sc.Seed += cfg.Seed
		if sc.Routes == 0 {
			sc.Routes = cfg.Routes
		}
		c := Case{Name: name, Scenario: sc, Expected: ExpectedGroup(sc.Kind), Dimension: dim}
		if mut != nil {
			mut(&c)
		}
		out = append(out, c)
	}
	timer := func(c *Case) { c.CheckTimer = true }
	// Burst loss at the tracegen-test operating point: ~15% stationary loss
	// arriving in multi-packet bursts (mean bad dwell 4 packets, 90% drop).
	ge := &netem.GEParams{PGoodBad: 0.05, PBadGood: 0.25, DropBad: 0.9}

	// More routes at the frontier operating points: at 500 ms+ RTT a single
	// frontier drop repaired by one long-backoff RTO leaves only one missing
	// IP ID — below the silent-loss scan's threshold — so a short transfer
	// can spend most of its life in an unattributable blackout. Tripling the
	// table makes steady-state behaviour (and multi-retry blackouts the scan
	// does catch) dominate the verdict. Same cure for the burst-loss seeds
	// whose Gilbert–Elliott chain starts in a lucky good-state dwell.
	routes3 := func(c *Case) { c.Scenario.Routes *= 3 }

	if cfg.Quick {
		add("long-rtt", "upstream-loss-rtt500ms",
			tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 41, RTT: 500_000, LossRate: 0.06}, routes3)
		// Second long-rtt case so quick mode (the CI gate) also exercises
		// the timer detector at the 500 ms masking bound.
		add("long-rtt", "paced-2000ms-rtt500ms",
			tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 42, PacingTimer: 2_000_000, RTT: 500_000}, timer)
		add("varying-rate", "sawtooth-rtt30ms",
			tracegen.Scenario{Kind: tracegen.KindVaryingRate, Seed: 43, RateProfile: "sawtooth", RTT: 30_000}, nil)
		add("burst-loss", "ge-upstream",
			tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 45, BurstLoss: ge}, nil)
		add("heavy-tail-app", "pareto",
			tracegen.Scenario{Kind: tracegen.KindHeavyTailApp, Seed: 47}, nil)
		add("bimodal-app", "bimodal",
			tracegen.Scenario{Kind: tracegen.KindBimodalApp, Seed: 49}, nil)
		add("fanout", "members-120",
			tracegen.Scenario{Kind: tracegen.KindFanout, Seed: 51}, nil)
		return out
	}

	for _, rtt := range []Micros{500_000, 1_000_000} {
		tag := fmt.Sprintf("rtt%dms", rtt/1_000)
		add("long-rtt", "clean-"+tag,
			tracegen.Scenario{Kind: tracegen.KindClean, Seed: 41, RTT: rtt}, nil)
		// A pacing timer is detectable only above ~2.6×RTT + delayed-ACK:
		// below that, the Nagle runt's ack re-anchors each tick within the
		// ack-shift cap (1.5×RTT) and the cadence dissolves (DESIGN.md §17).
		// The grid points sit just above the bound for each RTT.
		pt := Micros(2_000_000)
		if rtt >= 1_000_000 {
			pt = 3_500_000
		}
		add("long-rtt", fmt.Sprintf("paced-%dms-%s", pt/1_000, tag),
			tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 43, PacingTimer: pt, RTT: rtt}, timer)
		add("long-rtt", "upstream-loss-"+tag,
			tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 45, LossRate: 0.06, RTT: rtt}, routes3)
		add("long-rtt", "small-window-"+tag,
			tracegen.Scenario{Kind: tracegen.KindSmallWindow, Seed: 47, RecvBuf: 16_384, RTT: rtt}, routes3)
	}
	// Trough spacing must stay within the bandwidth detector's ≤4×RTT
	// gap veto; at 8 ms RTT the sawtooth's idle troughs exceed it and the
	// case degenerates to app-limited by design, so the grid starts at 30 ms.
	for _, profile := range []string{"step", "sawtooth"} {
		for _, rtt := range []Micros{30_000, 80_000} {
			add("varying-rate", fmt.Sprintf("%s-rtt%dms", profile, rtt/1_000),
				tracegen.Scenario{Kind: tracegen.KindVaryingRate, Seed: 53, RateProfile: profile, RTT: rtt}, nil)
		}
	}
	// A gentler process (longer good dwell, shallower bad-state drop) pairs
	// with the stress point so the dimension covers both burst regimes.
	mild := &netem.GEParams{PGoodBad: 0.02, PBadGood: 0.2, DropBad: 0.7}
	add("burst-loss", "ge-upstream", tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 55, BurstLoss: ge}, nil)
	add("burst-loss", "ge-downstream", tracegen.Scenario{Kind: tracegen.KindDownstreamLoss, Seed: 57, BurstLoss: ge}, routes3)
	add("burst-loss", "ge-upstream-mild", tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 59, BurstLoss: mild}, nil)
	for _, seed := range []int64{61, 63} {
		add("heavy-tail-app", fmt.Sprintf("pareto-s%d", seed),
			tracegen.Scenario{Kind: tracegen.KindHeavyTailApp, Seed: seed}, nil)
		add("bimodal-app", fmt.Sprintf("bimodal-s%d", seed),
			tracegen.Scenario{Kind: tracegen.KindBimodalApp, Seed: seed}, nil)
	}
	add("fanout", "members-120", tracegen.Scenario{Kind: tracegen.KindFanout, Seed: 65}, nil)
	add("fanout", "members-240",
		tracegen.Scenario{Kind: tracegen.KindFanout, Seed: 67, GroupMembers: 240}, nil)
	return out
}

// lossEpisodeScenario scripts a flapping receiver-local interface: starting
// mid-transfer (t=250ms, once slow start has grown the flight to dozens of
// segments), the downstream link goes dark for 350 ms every 1.4 s, eight
// times. Each flap wipes the flight in transit, forcing a timeout and a
// go-back-N repair burst; the flaps sit closer together than the detector's
// chain gap (max(3·RTT, 3 s)), so the retransmission instants chain into
// one long run — the repetitive-retransmission signature the
// consecutive-loss detector hunts (§IV-B).
func lossEpisodeScenario(seed int64) tracegen.Scenario {
	const (
		first  = 250_000
		period = 1_400_000
		dark   = 350_000
		flaps  = 8
	)
	wins := make([]timerange.Range, flaps)
	for i := range wins {
		start := timerange.Micros(first + i*period)
		wins[i] = timerange.R(start, start+dark)
	}
	return tracegen.Scenario{
		Kind:         tracegen.KindDownstreamLoss,
		Seed:         seed,
		LossEpisodes: wins,
	}
}

// caseOutcome is the per-case summary kept for the report.
type caseOutcome struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Expected string `json:"expected"`
	Got      string `json:"got"`
	Correct  bool   `json:"correct"`
	// SeriesF1 holds this case's per-series F1 for every series the case
	// exercised — the drill-down when an aggregate score drops.
	SeriesF1 map[string]float64 `json:"series_f1,omitempty"`
}

// scoreCase runs one case through the analyzer and folds its scores into
// the accumulators. It returns the violations it detected.
func (v *validator) scoreCase(c Case) []string {
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf("%s: "+format, append([]any{c.Name}, args...)...))
	}

	tr := tracegen.Run(c.Scenario)
	rep := v.analyzer.AnalyzePackets(tr.Packets())
	if len(rep.Transfers) != 1 {
		fail("expected 1 transfer, got %d", len(rep.Transfers))
		return violations
	}
	t := rep.Transfers[0]
	w := t.Transfer
	truth := tr.Truth
	sc := c.Scenario.WithDefaults()
	tol, eventTol := intervalTol(sc), lossTol(sc)

	// Interval series vs truth sets; each case scores locally first so the
	// outcome can carry its own F1 breakdown.
	caseF1 := map[string]float64{}
	var diffs []SeriesDiff
	interval := func(name string, acc *intervalAccum, inferred, truthSet *timerange.Set) {
		var local intervalAccum
		local.add(inferred, truthSet, tol, w)
		if local.runs > 0 {
			caseF1[name] = local.score().F1
		}
		acc.merge(local)
		if v.cfg.Explain && local.runs > 0 {
			diffs = append(diffs, diffSeries(name, local.score().F1, inferred, truthSet, tol, w))
		}
	}
	interval("zero-window", &v.zeroWindow, t.Catalog.Get(series.ZeroAdvWindow), truth.ZeroWindow)
	// The raw AdvBndOut series deliberately overlaps loss recovery: while
	// sndUna is frozen at a hole, the outstanding data fills the advertised
	// window and the flight rule fires, but the binding constraint is the
	// loss, not the receiver. The pipeline resolves that overlap by
	// precedence (recovery is the transport's fault — see the SendAppLimited
	// subtraction in series/generate.go), so the oracle scores the
	// post-precedence window signal (DESIGN.md §7, §12).
	advInferred := t.Catalog.Get(series.AdvBndOut).
		Subtract(t.Catalog.Get(series.LossRecovery))
	interval("adv-blocked", &v.advBlocked, advInferred, truth.AdvBlocked)
	// On the wire a peer-group slack stall is indistinguishable from timer
	// pacing — the sender goes quiet with an open window — so the app-idle
	// truth is the union of both sender-side causes. For everything but
	// fanout GroupBlocked is empty and this is exactly truth.AppIdle.
	truthIdle := truth.AppIdle.Union(truth.GroupBlocked)
	interval("app-idle", &v.appIdle, t.Catalog.Get(series.SendAppLimited), truthIdle)

	// Loss events vs recovery intervals.
	event := func(name string, acc *eventAccum, inferred *timerange.Set, events []Micros) {
		var local eventAccum
		local.add(inferred, events, eventTol, w)
		if local.runs > 0 {
			caseF1[name] = local.score().F1
		}
		acc.merge(local)
		if v.cfg.Explain && local.runs > 0 {
			diffs = append(diffs, diffSeries(name, local.score().F1, inferred, eventSet(events, w), eventTol, w))
		}
	}
	event("upstream-loss", &v.upLoss, t.Catalog.Get(series.UpstreamLoss), truth.UpstreamDrops)
	event("downstream-loss", &v.downLoss, t.Catalog.Get(series.DownstreamLoss), truth.DownstreamDrops)

	// Dominant-group confusion matrix.
	got, _ := t.Factors.Dominant()
	v.confusion[c.Expected][got]++
	v.outcomes = append(v.outcomes, caseOutcome{
		Name:     c.Name,
		Kind:     c.Scenario.Kind.String(),
		Expected: c.Expected.String(),
		Got:      got.String(),
		Correct:  got == c.Expected,
		SeriesF1: caseF1,
	})
	if got != c.Expected {
		fail("dominant group %s, expected %s (G=%s)", got, c.Expected, t.Factors.G)
	}
	if v.cfg.Explain {
		v.caseEvidence = append(v.caseEvidence, CaseEvidence{
			Case:        c.Name,
			Kind:        c.Scenario.Kind.String(),
			Expected:    c.Expected.String(),
			Got:         got.String(),
			GroupRatios: t.Factors.G.String(),
			SeriesDiffs: diffs,
			Evidence:    t.Evidence,
		})
	}

	// Detection checks.
	v.scoreDetection(c, t, fail)

	// Per-factor delay-ratio error against truth ratios.
	dur := float64(w.Len())
	if dur > 0 {
		truthApp := float64(clip(truthIdle, w).Size()) / dur
		v.factorErr["bgp-sender-app"].add(t.Factors.V.At(factors.SenderApp) - truthApp)
		truthAdv := float64(clip(truth.AdvBlocked, w).Size()) / dur
		inferredAdv := float64(clip(advInferred, w).Size()) / dur
		v.factorErr["adv-bounded"].add(inferredAdv - truthAdv)
	}

	// Factor-ratio invariants: every ratio in [0,1]; each group ratio
	// bounded below by its largest member (union ⊇ member) and above by the
	// member sum (union ⊆ concatenation).
	violations = append(violations, checkFactorInvariants(c.Name, t.Factors)...)

	// Worker invariance: the alternate pool size must produce the identical
	// verdict.
	alt := v.altAnalyzer.AnalyzePackets(tr.Packets())
	if len(alt.Transfers) != 1 {
		fail("alternate worker count produced %d transfers", len(alt.Transfers))
	} else if a := alt.Transfers[0]; a.Factors.V != t.Factors.V || a.Factors.G != t.Factors.G {
		fail("factor vectors differ across worker counts: %s vs %s", t.Factors.V, a.Factors.V)
	}
	return violations
}

// scoreDetection applies the per-case detector assertions.
func (v *validator) scoreDetection(c Case, t *core.TransferReport, fail func(string, ...any)) {
	if c.CheckTimer {
		v.detectChecked++
		sc := c.Scenario.WithDefaults()
		switch {
		case t.Timer == nil:
			fail("pacing timer not detected (want %d ms)", sc.PacingTimer/1_000)
		case abs64(t.Timer.TimerMicros-sc.PacingTimer) > sc.PacingTimer/5:
			fail("pacing timer %d ms, want %d ms ±20%%", t.Timer.TimerMicros/1_000, sc.PacingTimer/1_000)
		default:
			v.detectPassed++
		}
	}
	if c.CheckConsec {
		v.detectChecked++
		if t.ConsecLoss.Episodes < 1 {
			fail("consecutive-loss episode not detected (max run %d)", t.ConsecLoss.MaxRun)
		} else {
			v.detectPassed++
		}
	}
	if c.CheckBug {
		v.detectChecked++
		if !t.ZeroAckBug {
			fail("ZeroAckBug conflict not detected")
		} else {
			v.detectPassed++
		}
	}
}

// checkFactorInvariants verifies the report-level algebra the paper's delay
// ratios must obey regardless of scenario.
func checkFactorInvariants(name string, rep *factors.Report) []string {
	var out []string
	const eps = 1e-9
	groups := map[factors.Group][]factors.Factor{}
	for f := factors.SenderApp; f <= factors.NetLoss; f++ {
		r := rep.V.At(f)
		if r < -eps || r > 1+eps {
			out = append(out, fmt.Sprintf("%s: factor %s ratio %.4f outside [0,1]", name, f, r))
		}
		g := factors.GroupOf(f)
		groups[g] = append(groups[g], f)
	}
	// Walk groups in enum order, not map order, so invariant-failure
	// messages line up byte-for-byte across runs.
	keys := make([]factors.Group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, g := range keys {
		members := groups[g]
		gr := rep.G.At(g)
		if gr < -eps || gr > 1+eps {
			out = append(out, fmt.Sprintf("%s: group %s ratio %.4f outside [0,1]", name, g, gr))
		}
		sum, max := 0.0, 0.0
		for _, f := range members {
			r := rep.V.At(f)
			sum += r
			if r > max {
				max = r
			}
		}
		if gr < max-eps {
			out = append(out, fmt.Sprintf("%s: group %s ratio %.4f below largest member %.4f", name, g, gr, max))
		}
		if gr > sum+eps {
			out = append(out, fmt.Sprintf("%s: group %s ratio %.4f above member sum %.4f", name, g, gr, sum))
		}
	}
	return out
}

func abs64(v Micros) Micros {
	if v < 0 {
		return -v
	}
	return v
}
