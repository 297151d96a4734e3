package oracle

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"tdat/internal/tcpsim"
	"tdat/internal/timerange"
)

// TestQuickSweepMeetsFloors is the in-tree copy of the CI accuracy gate:
// the quick sweep must clear every default floor.
func TestQuickSweepMeetsFloors(t *testing.T) {
	res := Run(Config{Quick: true})
	if breaches := res.Check(DefaultFloors()); len(breaches) > 0 {
		var buf bytes.Buffer
		res.WriteText(&buf)
		t.Fatalf("quick sweep breaches floors:\n%s\n\nscorecard:\n%s",
			strings.Join(breaches, "\n"), buf.String())
	}
	if res.Cases == 0 || res.Conf.Total != res.Cases {
		t.Fatalf("confusion total %d != cases %d", res.Conf.Total, res.Cases)
	}
}

// TestSweepDeterministic: the sweep is a pure function of its config — two
// runs must render byte-identical scorecards (text and JSON).
func TestSweepDeterministic(t *testing.T) {
	render := func() (string, string) {
		res := Run(Config{Quick: true})
		var txt, js bytes.Buffer
		res.WriteText(&txt)
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	txt1, js1 := render()
	txt2, js2 := render()
	if txt1 != txt2 {
		t.Errorf("text scorecards differ:\n--- run 1\n%s\n--- run 2\n%s", txt1, txt2)
	}
	if js1 != js2 {
		t.Errorf("JSON reports differ")
	}
}

// TestToleranceMonotonic: widening the interval-matching tolerance can only
// admit more matched time, so the interval scorer's precision, recall and
// F1 never fall as the tolerance grows. Each trial micro-averages one to
// three runs of random inferred and truth sets inside random windows.
func TestToleranceMonotonic(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	randSet := func() *timerange.Set {
		s := timerange.NewSet()
		for i := rnd.Intn(8); i > 0; i-- {
			start := Micros(rnd.Intn(1_000_000))
			s.Add(timerange.R(start, start+1+Micros(rnd.Intn(100_000))))
		}
		return s
	}
	type run struct {
		inferred, truth *timerange.Set
		w               timerange.Range
	}
	for trial := 0; trial < 500; trial++ {
		runs := make([]run, 1+rnd.Intn(3))
		for i := range runs {
			runs[i] = run{randSet(), randSet(),
				timerange.R(Micros(rnd.Intn(200_000)), Micros(800_000+rnd.Intn(400_000)))}
		}
		var prev IntervalScore
		for i, tol := range []Micros{0, 1_000, 10_000, 25_000, 80_000, 300_000} {
			var a intervalAccum
			for _, r := range runs {
				a.add(r.inferred, r.truth, tol, r.w)
			}
			s := a.score()
			if i > 0 && (s.Precision < prev.Precision || s.Recall < prev.Recall || s.F1 < prev.F1) {
				t.Fatalf("trial %d: widening the tolerance to %d µs lowered the score from %+v to %+v",
					trial, tol, prev, s)
			}
			prev = s
		}
	}
}

// TestScoresBounded: every reported rate is a probability.
func TestScoresBounded(t *testing.T) {
	res := Run(Config{Quick: true})
	check := func(name string, v float64) {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v outside [0,1]", name, v)
		}
	}
	for _, s := range res.Series {
		check(s.Name+".precision", s.Precision)
		check(s.Name+".recall", s.Recall)
		check(s.Name+".f1", s.F1)
	}
	check("confusion.accuracy", res.Conf.Accuracy)
	check("detect.rate", res.Detect.Rate)
	for _, f := range res.Factors {
		if f.MAE < 0 || f.Max < f.MAE {
			t.Errorf("factor %s: MAE %v, max %v inconsistent", f.Name, f.MAE, f.Max)
		}
	}
}

func TestParseFloors(t *testing.T) {
	in := `
# comment
series.zero-window.f1 0.85
confusion.accuracy 0.9
detect.rate 1.0
factor.bgp-sender-app.mae 0.2
violations.max 3
`
	fl, err := ParseFloors(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if fl.SeriesF1["zero-window"] != 0.85 {
		t.Errorf("series floor = %v", fl.SeriesF1["zero-window"])
	}
	if fl.ConfusionAccuracy != 0.9 || fl.DetectRate != 1.0 {
		t.Errorf("accuracy/detect floors = %v/%v", fl.ConfusionAccuracy, fl.DetectRate)
	}
	if fl.FactorMAE["bgp-sender-app"] != 0.2 {
		t.Errorf("factor ceiling = %v", fl.FactorMAE["bgp-sender-app"])
	}
	if !fl.hasMaxViolations || fl.MaxViolations != 3 {
		t.Errorf("violations.max = %v (set %v)", fl.MaxViolations, fl.hasMaxViolations)
	}
}

func TestParseFloorsErrors(t *testing.T) {
	for _, bad := range []string{
		"series.zero-window.f1",        // missing value
		"series.zero-window.f1 x",      // non-numeric
		"unknown.key 1.0",              // unknown key
		"series.zero-window.f1 0.9 ex", // trailing field
	} {
		if _, err := ParseFloors(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseFloors(%q) accepted", bad)
		}
	}
}

func TestCheckReportsBreaches(t *testing.T) {
	res := &Result{Scores: Scores{
		Series: []SeriesScore{{Name: "zero-window", Kind: "interval", F1: 0.5, Runs: 1}},
		Conf:   Confusion{Total: 4, Correct: 2, Accuracy: 0.5},
		Detect: Detection{Checked: 2, Passed: 1, Rate: 0.5},
		Factors: []FactorError{
			{Name: "bgp-sender-app", MAE: 0.4, Max: 0.4, Runs: 1},
		},
		Violations: []string{"case-x: boom"},
	}}
	breaches := res.Check(DefaultFloors())
	want := []string{
		"series adv-blocked: not scored",
		"series zero-window: F1 0.500 below floor",
		"confusion accuracy 0.500 below floor",
		"detection rate 0.500 below floor",
		"factor adv-bounded: not scored",
		"factor bgp-sender-app: MAE 0.4000 above ceiling",
		"1 violations exceed the allowed 0",
	}
	for _, w := range want {
		found := false
		for _, b := range breaches {
			if strings.Contains(b, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("breach %q not reported; got %v", w, breaches)
		}
	}
	if got := res.Check(Floors{}); len(got) != 0 {
		t.Errorf("empty floors produced breaches: %v", got)
	}
}

// TestMultiStackSweep: sweeping extra stacks must leave the Reno scorecard
// byte-identical to a Reno-only run (per-stack accumulators are isolated)
// and put every non-Reno stack under PerStack.
func TestMultiStackSweep(t *testing.T) {
	// NoDimensions: the adversarial-dimension sweep is Reno-only by
	// construction (covered by TestDimensionSweep); skipping it here keeps
	// the double full-grid run cheap.
	solo := Run(Config{Quick: true, NoDimensions: true})
	multi := Run(Config{Quick: true, NoDimensions: true, Stacks: []tcpsim.Stack{tcpsim.StackReno, tcpsim.StackSACK}})

	var soloTxt, multiTop bytes.Buffer
	solo.WriteText(&soloTxt)
	renoOnly := &Result{Quick: multi.Quick, Seed: multi.Seed, Scores: multi.Scores}
	renoOnly.WriteText(&multiTop)
	if soloTxt.String() != multiTop.String() {
		t.Errorf("Reno scorecard changed when swept alongside sack:\n--- solo\n%s\n--- multi\n%s",
			soloTxt.String(), multiTop.String())
	}

	if len(multi.PerStack) != 1 || multi.PerStack[0].Stack != "sack" {
		t.Fatalf("PerStack = %+v, want exactly one sack entry", multi.PerStack)
	}
	if multi.PerStack[0].Cases != multi.Cases {
		t.Errorf("sack swept %d cases, reno %d", multi.PerStack[0].Cases, multi.Cases)
	}
	if _, ok := multi.StackByName("sack"); !ok {
		t.Error("StackByName(sack) missed")
	}
}

// TestDimensionSweep: every adversarial-diversity axis appears exactly once
// in grid order with a complete scorecard, NoDimensions suppresses the axis
// sweeps without perturbing the embedded Reno scorecard, and the quick sweep
// clears the committed per-dimension floors.
func TestDimensionSweep(t *testing.T) {
	res := Run(Config{Quick: true})
	wantDims := []string{
		"long-rtt", "varying-rate", "burst-loss",
		"heavy-tail-app", "bimodal-app", "fanout",
	}
	if len(res.PerDimension) != len(wantDims) {
		t.Fatalf("swept %d dimensions, want %d: %+v",
			len(res.PerDimension), len(wantDims), res.PerDimension)
	}
	for i, d := range res.PerDimension {
		if d.Dimension != wantDims[i] {
			t.Errorf("dimension[%d] = %s, want %s", i, d.Dimension, wantDims[i])
		}
		if d.Cases == 0 || d.Conf.Total != d.Cases {
			t.Errorf("dimension %s: confusion total %d != cases %d",
				d.Dimension, d.Conf.Total, d.Cases)
		}
	}
	if _, ok := res.DimensionByName("long-rtt"); !ok {
		t.Error("DimensionByName(long-rtt) missed")
	}
	if _, ok := res.DimensionByName("no-such-axis"); ok {
		t.Error("DimensionByName invented an axis")
	}

	bare := Run(Config{Quick: true, NoDimensions: true})
	if bare.PerDimension != nil {
		t.Errorf("NoDimensions still swept %d dimensions", len(bare.PerDimension))
	}
	var withTxt, bareTxt bytes.Buffer
	renoOnly := &Result{Quick: res.Quick, Seed: res.Seed, Scores: res.Scores}
	renoOnly.WriteText(&withTxt)
	bare.WriteText(&bareTxt)
	if withTxt.String() != bareTxt.String() {
		t.Errorf("Reno scorecard changed when dimensions were swept:\n--- with\n%s\n--- without\n%s",
			withTxt.String(), bareTxt.String())
	}

	// The committed floor file must hold against the quick sweep — the
	// in-tree copy of the CI dimension gate. Per-stack floors are dropped
	// because this run sweeps Reno only.
	f, err := os.Open("../../scripts/validatefloor.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fl, err := ParseFloors(f)
	if err != nil {
		t.Fatal(err)
	}
	fl.PerStack = nil
	if breaches := res.Check(fl); len(breaches) > 0 {
		t.Errorf("quick sweep breaches committed dimension floors:\n%s",
			strings.Join(breaches, "\n"))
	}
}

// TestParseFloorsPerDimension: the dim.<name>.<key> syntax lands in
// Floors.PerDimension and bad dimension keys are rejected.
func TestParseFloorsPerDimension(t *testing.T) {
	in := `
series.zero-window.f1 0.95
dim.long-rtt.series.app-idle.f1 0.93
dim.long-rtt.violations.max 1
dim.varying-rate.confusion.accuracy 0.95
`
	fl, err := ParseFloors(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	lr := fl.PerDimension["long-rtt"]
	if lr == nil || lr.SeriesF1["app-idle"] != 0.93 {
		t.Fatalf("long-rtt floors = %+v", lr)
	}
	if !lr.hasMaxViolations || lr.MaxViolations != 1 {
		t.Errorf("long-rtt violations.max = %v (set %v)", lr.MaxViolations, lr.hasMaxViolations)
	}
	if vr := fl.PerDimension["varying-rate"]; vr == nil || vr.ConfusionAccuracy != 0.95 {
		t.Errorf("varying-rate floors = %+v", vr)
	}
	for _, bad := range []string{"dim. 1.0", "dim.long-rtt 1.0", "dim.long-rtt.bogus 1.0"} {
		if _, err := ParseFloors(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseFloors(%q) accepted", bad)
		}
	}
}

// TestCheckPerDimension: per-dimension floors gate the matching PerDimension
// scorecard with a prefixed breach message, and floors for an unswept
// dimension breach.
func TestCheckPerDimension(t *testing.T) {
	res := &Result{
		Scores: Scores{
			Series: []SeriesScore{{Name: "app-idle", Kind: "interval", F1: 0.99, Runs: 1}},
			Conf:   Confusion{Total: 1, Correct: 1, Accuracy: 1},
			Detect: Detection{Checked: 1, Passed: 1, Rate: 1},
		},
		PerDimension: []DimensionResult{{Dimension: "long-rtt", Scores: Scores{
			Series: []SeriesScore{{Name: "app-idle", Kind: "interval", F1: 0.60, Runs: 1}},
			Conf:   Confusion{Total: 1, Correct: 1, Accuracy: 1},
			Detect: Detection{Checked: 1, Passed: 1, Rate: 1},
		}}},
	}
	fl := Floors{
		SeriesF1: map[string]float64{"app-idle": 0.90},
		PerDimension: map[string]*Floors{
			"long-rtt": {SeriesF1: map[string]float64{"app-idle": 0.90}},
			"fanout":   {SeriesF1: map[string]float64{"app-idle": 0.50}},
		},
	}
	breaches := res.Check(fl)
	want := []string{
		"dim long-rtt: series app-idle: F1 0.600 below floor 0.90",
		"dimension fanout: floors set but dimension not swept",
	}
	for _, w := range want {
		found := false
		for _, b := range breaches {
			if strings.Contains(b, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("breach %q not reported; got %v", w, breaches)
		}
	}
	for _, b := range breaches {
		if !strings.Contains(b, "dim") && strings.Contains(b, "app-idle") {
			t.Errorf("reno scorecard breached spuriously: %v", b)
		}
	}
}

// TestParseFloorsPerStack: the stack.<name>.<key> syntax lands in
// Floors.PerStack and bad stack keys are rejected.
func TestParseFloorsPerStack(t *testing.T) {
	in := `
series.zero-window.f1 0.95
stack.cubic.series.adv-blocked.f1 0.80
stack.cubic.violations.max 2
stack.stretch-ack.confusion.accuracy 0.60
`
	fl, err := ParseFloors(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cubic := fl.PerStack["cubic"]
	if cubic == nil || cubic.SeriesF1["adv-blocked"] != 0.80 {
		t.Fatalf("cubic floors = %+v", cubic)
	}
	if !cubic.hasMaxViolations || cubic.MaxViolations != 2 {
		t.Errorf("cubic violations.max = %v (set %v)", cubic.MaxViolations, cubic.hasMaxViolations)
	}
	if sa := fl.PerStack["stretch-ack"]; sa == nil || sa.ConfusionAccuracy != 0.60 {
		t.Errorf("stretch-ack floors = %+v", sa)
	}
	for _, bad := range []string{"stack. 1.0", "stack.cubic 1.0", "stack.cubic.bogus 1.0"} {
		if _, err := ParseFloors(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseFloors(%q) accepted", bad)
		}
	}
}

// TestCheckPerStack: per-stack floors gate the matching PerStack scorecard
// with a prefixed breach message, and floors for an unswept stack breach.
func TestCheckPerStack(t *testing.T) {
	res := &Result{
		Scores: Scores{
			Series: []SeriesScore{{Name: "zero-window", Kind: "interval", F1: 0.99, Runs: 1}},
			Conf:   Confusion{Total: 1, Correct: 1, Accuracy: 1},
			Detect: Detection{Checked: 1, Passed: 1, Rate: 1},
		},
		PerStack: []StackResult{{Stack: "cubic", Scores: Scores{
			Series: []SeriesScore{{Name: "zero-window", Kind: "interval", F1: 0.70, Runs: 1}},
			Conf:   Confusion{Total: 1, Correct: 1, Accuracy: 1},
			Detect: Detection{Checked: 1, Passed: 1, Rate: 1},
		}}},
	}
	fl := Floors{
		SeriesF1: map[string]float64{"zero-window": 0.90},
		PerStack: map[string]*Floors{
			"cubic":      {SeriesF1: map[string]float64{"zero-window": 0.90}},
			"rate-paced": {SeriesF1: map[string]float64{"zero-window": 0.50}},
		},
	}
	breaches := res.Check(fl)
	want := []string{
		"stack cubic: series zero-window: F1 0.700 below floor 0.90",
		"stack rate-paced: floors set but stack not swept",
	}
	for _, w := range want {
		found := false
		for _, b := range breaches {
			if strings.Contains(b, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("breach %q not reported; got %v", w, breaches)
		}
	}
	for _, b := range breaches {
		if strings.Contains(b, "stack") == false && strings.Contains(b, "zero-window") {
			t.Errorf("reno scorecard breached spuriously: %v", b)
		}
	}
}

// TestWriteStackTable: the markdown generator marks scores that fail the
// default Reno gate and renders one column per stack.
func TestWriteStackTable(t *testing.T) {
	res := &Result{
		Scores: Scores{
			Series:  []SeriesScore{{Name: "zero-window", Kind: "interval", F1: 0.99, Runs: 1}},
			Factors: []FactorError{{Name: "bgp-sender-app", MAE: 0.05, Runs: 1}},
			Conf:    Confusion{Total: 1, Correct: 1, Accuracy: 1},
			Detect:  Detection{Checked: 1, Passed: 1, Rate: 1},
		},
		PerStack: []StackResult{{Stack: "stretch-ack", Scores: Scores{
			Series:  []SeriesScore{{Name: "zero-window", Kind: "interval", F1: 0.42, Runs: 1}},
			Factors: []FactorError{{Name: "bgp-sender-app", MAE: 0.30, Runs: 1}},
			Conf:    Confusion{Total: 1, Correct: 0, Accuracy: 0},
			Detect:  Detection{Checked: 1, Passed: 1, Rate: 1},
		}}},
	}
	var buf bytes.Buffer
	res.WriteStackTable(&buf)
	out := buf.String()
	for _, want := range []string{
		"| inference | reno | stretch-ack |",
		"0.990 ✓",
		"**0.420 ✗**",
		"**0.300 ✗**",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stack table missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkOracleSweep times one full quick sweep — the CI validate job's
// dominant cost (tracked in BENCH_validate.json).
func BenchmarkOracleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Run(Config{Quick: true})
		if res.Cases == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkOracleSweepDimensions times the quick adversarial-dimension grid
// alone (Reno, no base cases): the 500 ms+ RTT and fanout scenarios dominate
// the sweep's added cost, and this isolates that share. CI archives it in
// BENCH_validate.json via the shared -bench regex; like the stack benchmark
// below it stays out of the benchfloor gate.
func BenchmarkOracleSweepDimensions(b *testing.B) {
	cfg := Config{Quick: true}.withDefaults()
	for i := 0; i < b.N; i++ {
		scores, _ := runCases(cfg, DimensionCases(cfg), tcpsim.StackReno)
		if scores.Cases == 0 {
			b.Fatal("empty dimension sweep")
		}
	}
}

// BenchmarkOracleSweepStacks times the quick sweep under each sender stack
// separately. CI archives these alongside BenchmarkOracleSweep in
// BENCH_validate.json (the -bench regex matches both); they are kept out of
// the benchfloor gate — stack cost is informational, not a regression gate.
func BenchmarkOracleSweepStacks(b *testing.B) {
	for _, st := range tcpsim.AllStacks() {
		b.Run(st.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := Run(Config{Quick: true, Stacks: []tcpsim.Stack{st}})
				if res.Cases == 0 && len(res.PerStack) == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}
