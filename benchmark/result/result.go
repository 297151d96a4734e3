// Package result defines the benchmark's file formats — the metric
// declaration in BENCHMARK.json and the result sets written by -json — and
// the order statistics both the benchmark and its compare tool report.
package result

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Spec is the part of BENCHMARK.json that names the workloads and the
// metrics every run reports.
type Spec struct {
	Workloads []WorkloadID `json:"workloads"`
	EndToEnd  []MetricSpec `json:"end_to_end"`
	PerLayer  []MetricSpec `json:"per_layer"`
}

// WorkloadID names one workload and records why it is in the benchmark.
type WorkloadID struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric. Bound is the largest relative worsening
// of the median that is not a regression; per-layer metrics have none.
type MetricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadSpec reads a BENCHMARK.json file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Set is the result of one benchmark invocation, as written by -json.
type Set struct {
	Seed    int64  `json:"seed"`
	Seconds int    `json:"seconds"`
	Go      string `json:"go"`
	NProc   int    `json:"nproc"`
	// HostCalMs holds the host calibration kernel's time before and after
	// each workload; HostDrift is set when they spread by more than
	// DriftLimit, so a slow host is not mistaken for a slow analyzer.
	HostCalMs []float64  `json:"host_cal_ms"`
	HostDrift bool       `json:"host_drift"`
	Workloads []Workload `json:"workloads"`
}

// DriftLimit is the relative spread of host calibrations within one set
// beyond which the set is marked host_drift.
const DriftLimit = 0.10

// Workload is one workload's outcome within a set.
type Workload struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	// Attempted and Failed count connection analyses checked against the
	// reference; FailShare is their ratio.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailShare float64 `json:"fail_share"`
	// Samples is the number of timed whole-capture analyses behind the
	// run-time percentiles.
	Samples int               `json:"samples"`
	Metrics map[string]Metric `json:"metrics"`
	// Wall holds the end-to-end time metrics as measured, before scaling
	// to the reference host.
	Wall map[string]Metric `json:"wall,omitempty"`
}

// ReadSet reads a result set written by -json.
func ReadSet(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Drifted reports whether calibration times spread by more than
// DriftLimit of the fastest one.
func Drifted(cal []float64) bool {
	if len(cal) < 2 {
		return false
	}
	lo, hi := cal[0], cal[0]
	for _, c := range cal[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo > 0 && (hi-lo)/lo > DriftLimit
}

// Median returns the median of values (the mean of the middle two for an
// even count), leaving values unmodified.
func Median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th quantile (0 ≤ p ≤ 1) of values, linearly
// interpolated between order statistics.
func Percentile(values []float64, p float64) float64 {
	s := sorted(values)
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// Quartiles returns the first and third quartiles of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), so
// spreads computed here match ones computed from the same values there.
// With fewer than two values both quartiles are the single value.
func Quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
