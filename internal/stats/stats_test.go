package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almost(got, tt.want) {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("single-sample StdDev = %v", got)
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {110, 50}, {12.5, 15},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almost(got, tt.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty Percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v", pts)
	}
	for i := range pts {
		if !almost(pts[i].X, want[i].X) || !almost(pts[i].P, want[i].P) {
			t.Errorf("CDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rnd.Intn(50))
		for i := range xs {
			xs[i] = rnd.Float64() * 100
		}
		pts := CDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P <= pts[i-1].P {
				return false
			}
		}
		return len(pts) > 0 && almost(pts[len(pts)-1].P, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStretchRatio(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"basic", []float64{10, 50, 20}, 5},
		{"equal", []float64{7, 7}, 1},
		{"single", []float64{3}, 0},
		{"zero floor", []float64{0, 10}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := StretchRatio(tt.in); !almost(got, tt.want) {
				t.Errorf("StretchRatio = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSlowOutliers(t *testing.T) {
	// One extreme outlier among uniform values.
	xs := []float64{10, 11, 9, 10, 12, 10, 11, 100}
	got := SlowOutliers(xs, 2)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("SlowOutliers = %v, want [7]", got)
	}
	// No outliers: fall back to the maximum.
	uniform := []float64{10, 20, 15}
	got = SlowOutliers(uniform, 3)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("fallback SlowOutliers = %v, want [1]", got)
	}
	if got := SlowOutliers(nil, 3); got != nil {
		t.Errorf("empty SlowOutliers = %v", got)
	}
	// A single sample selects itself.
	if got := SlowOutliers([]float64{4}, 3); len(got) != 1 || got[0] != 0 {
		t.Errorf("single SlowOutliers = %v", got)
	}
}
