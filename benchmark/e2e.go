package main

import (
	"fmt"
	"runtime"
	"time"

	"tdat/benchmark/result"
	"tdat/internal/core"
)

// setupRuns is how many times set-up builds the inputs; setup_s is the
// median.
const setupRuns = 5

// bench is one workload after set-up: its inputs and the reference the
// outputs of every later run are checked against.
type bench struct {
	w   Workload
	in  *Inputs
	ref *reference
	// setupS holds the set-up times, in seconds.
	setupS []float64
	// deterministic reports that every set-up built identical bytes.
	deterministic bool
}

// setup builds the workload's inputs setupRuns times, each followed by a
// workers=1 analysis, the first of them cold; the last is the reference.
func setup(w Workload) (*bench, error) {
	b := &bench{w: w, deterministic: true}
	var first [32]byte
	var rep *core.Report
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		in, err := buildInputs(w)
		if err != nil {
			return nil, err
		}
		rep, err = w.analyze(w.newAnalyzer(1), in)
		if err != nil {
			return nil, fmt.Errorf("%s: reference analysis: %w", w.Name, err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if h := in.hash(); i == 0 {
			first = h
		} else if h != first {
			b.deterministic = false
		}
		b.in = in
	}
	ref, err := newReference(b.in, rep)
	if err != nil {
		return nil, err
	}
	b.ref = ref
	if b.in.Pcap, err = offHeap(b.in.Pcap); err != nil {
		return nil, err
	}
	if b.in.MRT, err = offHeap(b.in.MRT); err != nil {
		return nil, err
	}
	return b, nil
}

// tally accumulates checked connection analyses.
type tally struct{ attempted, failed int }

func (t *tally) add(in *Inputs, ref *reference, rep *core.Report, digests bool) error {
	a, f, err := check(in, ref, rep, digests)
	t.attempted += a
	t.failed += f
	return err
}

// e2eResult is the outcome of the timed phase.
type e2eResult struct {
	samplesMs []float64
	// scaledMs holds the same run times scaled to the reference host, each
	// by the calibration runs around it.
	scaledMs  []float64
	conns     int // connection analyses timed
	mallocs   uint64
	allocated uint64
	retained  float64 // MB
}

// timed warms the analyzer up for window/5, then analyzes the capture
// back to back for window. Only the analysis call is timed; the MemStats
// reads around it, the output check and the calibration kernel run every
// calEvery are not. Every run is checked against the reference, the first
// and last also by rendering.
func (b *bench) timed(window time.Duration, cal *calibrator, t *tally) (e2eResult, error) {
	a := b.w.newAnalyzer(b.w.Workers)
	for start := time.Now(); time.Since(start) < window/5; {
		if _, err := b.w.analyze(a, b.in); err != nil {
			return e2eResult{}, err
		}
	}
	var r e2eResult
	var m0, m1 runtime.MemStats
	// calMs holds the calibration kernel's times; calAt[k] is the index of
	// the first calibration run after timed run k.
	var calMs []float64
	var calAt []int
	start := time.Now()
	lastCal := start.Add(-calEvery)
	for first := true; first || time.Since(start) < window; first = false {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rep, err := b.w.analyze(a, b.in)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return e2eResult{}, err
		}
		r.samplesMs = append(r.samplesMs, float64(d.Nanoseconds())/1e6)
		calAt = append(calAt, len(calMs))
		r.conns += len(b.in.Routers)
		r.mallocs += m1.Mallocs - m0.Mallocs
		r.allocated += m1.TotalAlloc - m0.TotalAlloc
		last := time.Since(start) >= window
		if err := t.add(b.in, b.ref, rep, first || last); err != nil {
			return e2eResult{}, err
		}
		if time.Since(lastCal) >= calEvery {
			calMs = append(calMs, cal.once(b.w.Workers))
			lastCal = time.Now()
		}
	}
	// Each run is scaled by the median of the five calibration runs
	// nearest it: the host's speed over about a second, which follows the
	// host's phases without taking on one kernel run's noise.
	for k, ms := range r.samplesMs {
		j := min(calAt[k], len(calMs)-1)
		near := calMs[max(0, j-2):min(len(calMs), j+3)]
		r.scaledMs = append(r.scaledMs, ms*calScale(result.Median(near)))
	}
	r.retained = b.retained(a)
	return r, nil
}

// retained measures the live heap one returned report holds after full
// collections, as the median of three analyses. Two collections on each
// side also empty the sync.Pool victim caches.
func (b *bench) retained(a *core.Analyzer) float64 {
	var vals []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		rep, _ := b.w.analyze(a, b.in) // the timed runs already checked the error
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(rep)
		vals = append(vals, float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/(1<<20))
	}
	return result.Median(vals)
}

// e2eMetrics turns the timed phase into the end-to-end metrics, with times
// scaled to the reference host: the runs' by the calibration around each,
// set-up's by setupCalMs, the snapshot taken just before it. wall holds
// the same time metrics unscaled.
func (b *bench) e2eMetrics(r e2eResult, setupCalMs float64) (metrics, wall map[string]result.Metric) {
	conns := float64(r.conns)
	times := func(samples []float64, setupScale float64) map[string]result.Metric {
		var sum float64
		for _, s := range samples {
			sum += s
		}
		return map[string]result.Metric{
			"setup_s":     {Value: result.Median(b.setupS) * setupScale, Unit: "s"},
			"run_ms_p50":  {Value: result.Median(samples), Unit: "ms"},
			"run_ms_p90":  {Value: result.Percentile(samples, 0.9), Unit: "ms"},
			"conns_per_s": {Value: conns / (sum / 1e3), Unit: "conns/s"},
		}
	}
	metrics = times(r.scaledMs, calScale(setupCalMs))
	metrics["allocs_per_conn"] = result.Metric{Value: float64(r.mallocs) / conns, Unit: "count"}
	metrics["alloc_kb_per_conn"] = result.Metric{Value: float64(r.allocated) / 1024 / conns, Unit: "KB"}
	metrics["retained_mb"] = result.Metric{Value: r.retained, Unit: "MB"}
	return metrics, times(r.samplesMs, 1)
}
