// Package knee implements the L-method of Salvador & Chan ("Determining the
// number of clusters/segments in hierarchical clustering/segmentation
// algorithms", ICTAI 2004), which T-DAT uses to find the knee of a
// sorted-gap-length curve and thereby infer BGP pacing-timer values
// (paper §IV-B, Fig 17).
//
// The L-method fits two straight lines to the left and right portions of an
// evaluation curve and picks the split point minimizing the total weighted
// RMSE; the split is the knee. Find scores every split in O(n) from running
// least-squares moments. The textbook form, which refits both lines at each
// split in O(n²), lives only in the package tests, as the reference Find is
// held to.
package knee

import (
	"math"
	"sort"
)

// Point is one sample of the evaluation graph.
type Point struct {
	X float64
	Y float64
}

// moments are the centred running moments of a point set, updated one
// point at a time (Welford): centring keeps the sums small where raw
// Σy² and Σxy would cancel at gap magnitudes (y ≈ 2·10⁵ µs).
type moments struct {
	n             float64
	mx, my        float64
	cxx, cxy, cyy float64
}

func (m *moments) add(p Point) {
	m.n++
	dx := p.X - m.mx
	m.mx += dx / m.n
	dy := p.Y - m.my
	m.my += dy / m.n
	m.cxx += dx * (p.X - m.mx)
	m.cxy += dx * (p.Y - m.my)
	m.cyy += dy * (p.Y - m.my)
}

// rmse returns the root-mean-square error of the least-squares line through
// the points added so far. When every X is equal the line is horizontal at
// the mean, as the closed-form fit's zero denominator makes it.
func (m *moments) rmse() float64 {
	if m.n < 2 {
		return 0
	}
	sse := m.cyy
	if m.cxx != 0 {
		sse -= m.cxy * m.cxy / m.cxx
	}
	return math.Sqrt(max(sse, 0) / m.n)
}

// Find locates the knee of the curve and returns its index; ok is false when
// the curve is too short (< 4 points) to split.
func Find(pts []Point) (idx int, ok bool) {
	n := len(pts)
	if n < 4 {
		return 0, false
	}
	// Split c is the last index of the left segment; both segments need at
	// least two points. suffix[s] is the RMSE of the fit through pts[s:].
	suffix := make([]float64, n)
	var m moments
	for s := n - 1; s >= 2; s-- {
		m.add(pts[s])
		suffix[s] = m.rmse()
	}
	best := math.Inf(1)
	bestIdx := -1
	m = moments{}
	m.add(pts[0])
	for c := 1; c < n-2; c++ {
		m.add(pts[c])
		lw := float64(c+1) / float64(n)
		rw := float64(n-c-1) / float64(n)
		total := lw*m.rmse() + rw*suffix[c+1]
		if total < best {
			best = total
			bestIdx = c
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx, true
}

// GapKnee sorts gap lengths ascending, builds the evaluation curve
// (rank → gap length), and returns the knee gap value — the inferred timer.
// It reports ok=false when there are too few gaps or the curve has no
// meaningful bend (the knee explains < minJump× the median gap).
func GapKnee(gaps []float64, minJump float64) (float64, bool) {
	if len(gaps) < 8 {
		return 0, false
	}
	s := append([]float64(nil), gaps...)
	sort.Float64s(s)
	pts := make([]Point, len(s))
	for i, g := range s {
		pts[i] = Point{X: float64(i), Y: g}
	}
	idx, ok := Find(pts)
	if !ok {
		return 0, false
	}
	// Report the characteristic plateau value: the median of the gaps above
	// the knee, which is more robust than the exact knee sample.
	tail := s[idx+1:]
	if len(tail) == 0 {
		return 0, false
	}
	tailMed := tail[len(tail)/2]
	below := s[:idx+1]
	belowMed := below[len(below)/2]
	// A real pacing timer produces a sharp step: the plateau must stand well
	// clear of the gaps below the knee. A smooth (RTT-dominated)
	// distribution has tailMed ≈ belowMed and is rejected. The floor keeps
	// sub-100 µs transmission jitter from faking a step.
	if belowMed < 100 {
		belowMed = 100
	}
	if tailMed < minJump*belowMed {
		return 0, false
	}
	return tailMed, true
}
