package knee

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fitRMSE returns the root-mean-square error of the least-squares line
// through pts, refitted in full: the textbook form Find's running moments
// are held to.
func fitRMSE(pts []Point) float64 {
	n := float64(len(pts))
	if len(pts) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	var slope, icept float64
	if den != 0 {
		slope = (n*sxy - sx*sy) / den
		icept = (sy - slope*sx) / n
	} else {
		icept = sy / n
	}
	var se float64
	for _, p := range pts {
		d := p.Y - (slope*p.X + icept)
		se += d * d
	}
	return math.Sqrt(se / n)
}

// splitTotal is the reference's weighted RMSE of the split after index c.
func splitTotal(pts []Point, c int) float64 {
	n := float64(len(pts))
	left, right := pts[:c+1], pts[c+1:]
	return float64(len(left))/n*fitRMSE(left) + float64(len(right))/n*fitRMSE(right)
}

// findQuadratic is the L-method as first written: refit both lines at
// every split, O(n²). Find must pick the same index.
func findQuadratic(pts []Point) (int, bool) {
	n := len(pts)
	if n < 4 {
		return 0, false
	}
	best := math.Inf(1)
	bestIdx := -1
	for c := 1; c < n-2; c++ {
		if total := splitTotal(pts, c); total < best {
			best = total
			bestIdx = c
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx, true
}

// FindQuadratic exports the reference to the package's external tests.
var FindQuadratic = findQuadratic

func TestFindOnSharpElbow(t *testing.T) {
	// y = 0 for x < 50, then y rises steeply: knee near 50.
	var pts []Point
	for i := 0; i < 100; i++ {
		y := 0.0
		if i >= 50 {
			y = float64(i-50) * 10
		}
		pts = append(pts, Point{X: float64(i), Y: y})
	}
	idx, ok := Find(pts)
	if !ok {
		t.Fatal("no knee found")
	}
	if idx < 40 || idx > 60 {
		t.Errorf("knee index = %d, want ≈50", idx)
	}
}

func TestFindTooShort(t *testing.T) {
	if _, ok := Find([]Point{{0, 0}, {1, 1}, {2, 2}}); ok {
		t.Error("found knee in 3 points")
	}
}

func TestKneeValue(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 100}, {5, 200}, {6, 300}}
	idx, ok := Find(pts)
	if !ok {
		t.Fatal("no knee")
	}
	if v := pts[idx].X; v < 2 || v > 4 {
		t.Errorf("knee X = %v, want ≈3", v)
	}
}

// bimodalGaps is the paced-sender shape: half sub-millisecond intra-burst
// gaps, half gaps at a 200 ms timer with ±4 ms jitter.
func bimodalGaps(rnd *rand.Rand, n int) []float64 {
	gaps := make([]float64, 0, n)
	for len(gaps) < n {
		gaps = append(gaps, rnd.Float64()*800) // 0–0.8 ms
		if len(gaps) < n {
			gaps = append(gaps, 200_000+rnd.Float64()*8000-4000) // ≈200 ms ±4 ms
		}
	}
	return gaps
}

func TestGapKneeDetectsTimer(t *testing.T) {
	timer, ok := GapKnee(bimodalGaps(rand.New(rand.NewSource(1)), 120), 3)
	if !ok {
		t.Fatal("timer not detected")
	}
	if timer < 180_000 || timer > 220_000 {
		t.Errorf("timer = %v µs, want ≈200000", timer)
	}
}

func TestGapKneeRejectsSmoothDistribution(t *testing.T) {
	// RTT-dominated gaps around 10 ms with mild noise: no timer step.
	rnd := rand.New(rand.NewSource(2))
	var gaps []float64
	for i := 0; i < 100; i++ {
		gaps = append(gaps, 9_000+rnd.Float64()*2_000)
	}
	if timer, ok := GapKnee(gaps, 3); ok {
		t.Errorf("false timer %v detected in smooth distribution", timer)
	}
}

func TestGapKneeRejectsTinyInput(t *testing.T) {
	if _, ok := GapKnee([]float64{1, 2, 3}, 3); ok {
		t.Error("detected timer in 3 gaps")
	}
}

func TestGapKneeMinorityTimer(t *testing.T) {
	// Even when timer gaps are only ~30% of the distribution, the step
	// should be found.
	rnd := rand.New(rand.NewSource(3))
	var gaps []float64
	for i := 0; i < 70; i++ {
		gaps = append(gaps, rnd.Float64()*1000)
	}
	for i := 0; i < 30; i++ {
		gaps = append(gaps, 100_000+rnd.Float64()*4000)
	}
	timer, ok := GapKnee(gaps, 3)
	if !ok {
		t.Fatal("timer not detected")
	}
	if timer < 90_000 || timer > 110_000 {
		t.Errorf("timer = %v, want ≈100000", timer)
	}
}

// fit runs the moments over pts.
func fit(pts []Point) float64 {
	var m moments
	for _, p := range pts {
		m.add(p)
	}
	return m.rmse()
}

func TestFitRMSEPerfectLine(t *testing.T) {
	pts := []Point{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	if got := fit(pts); got > 1e-9 {
		t.Errorf("RMSE of perfect line = %v", got)
	}
	if got := fit(pts[:1]); got != 0 {
		t.Errorf("RMSE of single point = %v", got)
	}
	// Vertical degenerate input must not divide by zero: the fit is the
	// horizontal line at the mean, as in the reference.
	vertical := []Point{{1, 0}, {1, 10}}
	if got, want := fit(vertical), fitRMSE(vertical); math.Abs(got-want) > 1e-9 {
		t.Errorf("degenerate RMSE = %v, want %v", got, want)
	}
	// Off-line points agree with the refitted reference.
	noisy := []Point{{0, 200_113}, {1, 199_870}, {2, 200_402}, {3, 201_007}, {4, 199_512}}
	if got, want := fit(noisy), fitRMSE(noisy); math.Abs(got-want) > 1e-9*want {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
}

// curveFromBytes decodes a fuzz input into a rank → value curve: the first
// byte selects sorting (as GapKnee builds its curve) when odd, and every
// following three bytes are one non-negative integer value. The curve is
// cut at 512 points.
func curveFromBytes(data []byte) []Point {
	if len(data) == 0 {
		return nil
	}
	sorted := data[0]&1 == 1
	data = data[1:]
	ys := make([]float64, 0, len(data)/3)
	for len(data) >= 3 && len(ys) < 512 {
		ys = append(ys, float64(binary.LittleEndian.Uint32(append(data[:3:3], 0))))
		data = data[3:]
	}
	if sorted {
		sort.Float64s(ys)
	}
	pts := make([]Point, len(ys))
	for i, y := range ys {
		pts[i] = Point{X: float64(i), Y: y}
	}
	return pts
}

// checkFind holds Find to findQuadratic on one curve: the same index, or,
// where floating point breaks an exact tie the other way, an index the
// reference scores within 1e-9 relative of its own choice.
func checkFind(tb testing.TB, pts []Point) {
	tb.Helper()
	got, gotOK := Find(pts)
	want, wantOK := findQuadratic(pts)
	if gotOK != wantOK {
		tb.Fatalf("Find ok=%v, reference ok=%v on %d points", gotOK, wantOK, len(pts))
	}
	if !gotOK || got == want {
		return
	}
	a, b := splitTotal(pts, got), splitTotal(pts, want)
	if math.Abs(a-b) > 1e-9*max(math.Abs(a), math.Abs(b)) {
		tb.Fatalf("Find picked %d (reference total %v), reference picked %d (total %v) on %d points",
			got, a, want, b, len(pts))
	}
}

// FuzzFind holds the O(n) Find to the O(n²) reference on arbitrary curves
// of 4–512 integer points, sorted and not. CI runs it for a short smoke
// window; run locally with
//
//	go test -run='^$' -fuzz=FuzzFind -fuzztime=30s ./internal/knee
func FuzzFind(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 9, 0, 0, 1, 0, 0, 7, 0, 0, 3, 0, 0, 5, 0, 0})
	f.Add([]byte{1, 0x40, 0x0d, 0x03, 0x50, 0x0d, 0x03, 0x10, 0, 0, 0x20, 0, 0, 0x30, 0, 0, 0x42, 0x0d, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if pts := curveFromBytes(data); len(pts) >= 4 {
			checkFind(t, pts)
		}
	})
}

// BenchmarkGapKnee runs the timer knee over a paper-scale curve: 3,113
// periods of the bimodal paced shape. The O(n²) reference took ~18 ms
// here; scripts/benchcheck.sh gates the O(n) pass.
//
//	go test -run='^$' -bench=BenchmarkGapKnee -benchmem ./internal/knee
func BenchmarkGapKnee(b *testing.B) {
	gaps := bimodalGaps(rand.New(rand.NewSource(1)), 3113)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := GapKnee(gaps, 3); !ok {
			b.Fatal("timer not detected")
		}
	}
}
