// Package explain records the structured evidence behind every detection
// and factor attribution the analyzer makes. The paper's contribution is
// *explaining* slow transfers; this package makes the analyzer explain
// itself: each rule that fires (or is vetoed) leaves an Evidence record —
// the rule identifier, the measurements it compared, the thresholds it
// applied, and the timerange intervals that contributed — so a verdict like
// "bgp-sender-app 0.82" can be traced back to the exact idle gaps that
// produced it without re-deriving the analysis by hand.
//
// Evidence capture is optional and nil-safe in the same style as
// internal/obs: a nil *Recorder makes every method a no-op, so the
// explain-off hot path costs one pointer test and zero allocations
// (regression-gated by the benchfloor allocs/op ceilings). Recording is a
// pure function of the connection — no clocks, no map iteration into
// output — so the rendered evidence is byte-identical at any worker count
// and with observability on or off.
package explain

import (
	"fmt"
	"io"
	"strconv"

	"tdat/internal/timerange"
)

// Micros aliases the trace time unit.
type Micros = timerange.Micros

// KV is one named scalar measurement or threshold. Values render with
// strconv.FormatFloat 'g' precision, which is deterministic.
type KV struct {
	K string  `json:"k"`
	V float64 `json:"v"`
}

// Span is one contributing time range (µs since capture epoch).
type Span struct {
	Start Micros `json:"start_us"`
	End   Micros `json:"end_us"`
}

// MaxRanges caps how many ranges one IntervalSet carries verbatim; the
// Count and SizeMicros fields always describe the full set, so capping
// loses locality detail but never totals.
const MaxRanges = 8

// IntervalSet is a named set of contributing intervals — a series, a
// numerator, an exclusion — with its full size and count even when the
// enumerated ranges are capped at MaxRanges.
type IntervalSet struct {
	Name       string `json:"name"`
	SizeMicros Micros `json:"size_us"`
	Count      int    `json:"count"`
	Ranges     []Span `json:"ranges,omitempty"`
}

// Capture snapshots a timerange set as an IntervalSet, keeping at most
// MaxRanges enumerated ranges.
func Capture(name string, s *timerange.Set) IntervalSet {
	out := IntervalSet{Name: name}
	if s == nil {
		return out
	}
	ranges := s.Ranges()
	out.Count = len(ranges)
	out.SizeMicros = s.Size()
	n := len(ranges)
	if n > MaxRanges {
		n = MaxRanges
	}
	if n > 0 {
		out.Ranges = make([]Span, n)
		for i := 0; i < n; i++ {
			out.Ranges[i] = Span{Start: ranges[i].Start, End: ranges[i].End}
		}
	}
	return out
}

// Rule outcomes. "fired" means the rule detected what it hunts; "scored"
// means it produced a ratio or measurement; "rejected" means its inputs
// failed a qualification threshold; "vetoed" means a counter-signal
// suppressed an otherwise-matching detection.
const (
	OutcomeFired    = "fired"
	OutcomeScored   = "scored"
	OutcomeRejected = "rejected"
	OutcomeVetoed   = "vetoed"
)

// Evidence is the structured record behind one rule evaluation.
type Evidence struct {
	// Rule identifies the rule, namespaced by package:
	// "series.bandwidth-limited", "factors.ratio/bgp-sender-app",
	// "detect.timer-gaps", ...
	Rule string `json:"rule"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Score is the rule's scalar result (a ratio, a timer period in µs, an
	// episode count — the rule documents its unit in Detail).
	Score float64 `json:"score"`
	// Inputs are the measurements the rule compared.
	Inputs []KV `json:"inputs,omitempty"`
	// Thresholds are the cutoffs it compared them against.
	Thresholds []KV `json:"thresholds,omitempty"`
	// Intervals are the time ranges that contributed (numerators,
	// exclusions, matched gaps).
	Intervals []IntervalSet `json:"intervals,omitempty"`
	// Detail is a one-line human rendering of the decision.
	Detail string `json:"detail,omitempty"`
}

// Recorder accumulates Evidence for one connection's analysis. The nil
// Recorder is the disabled fast path: Enabled reports false and every
// method is a no-op, so instrumented code guards evidence construction with
// one pointer test.
type Recorder struct {
	ev []Evidence
}

// New creates an enabled Recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether evidence is being captured; callers use it to
// skip building Evidence values nobody will read.
func (r *Recorder) Enabled() bool { return r != nil }

// Add appends one evidence record. No-op on a nil Recorder.
func (r *Recorder) Add(e Evidence) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, e)
}

// Evidence returns the records in the order they were added (nil on a nil
// Recorder).
func (r *Recorder) Evidence() []Evidence {
	if r == nil {
		return nil
	}
	return r.ev
}

// fmtF renders a float deterministically and compactly.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// fmtSec renders a µs quantity in seconds with ms resolution.
func fmtSec(m Micros) string { return strconv.FormatFloat(float64(m)/1e6, 'f', 3, 64) + "s" }

// WriteText renders evidence records human-readably and deterministically:
// one block per record, fields in fixed order, indented under prefix.
func WriteText(w io.Writer, prefix string, evs []Evidence) error {
	for _, e := range evs {
		if _, err := fmt.Fprintf(w, "%s[%s] %s score=%s", prefix, e.Rule, e.Outcome, fmtF(e.Score)); err != nil {
			return err
		}
		if e.Detail != "" {
			if _, err := fmt.Fprintf(w, " — %s", e.Detail); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
		if len(e.Inputs) > 0 {
			fmt.Fprintf(w, "%s  inputs:", prefix)
			for _, kv := range e.Inputs {
				fmt.Fprintf(w, " %s=%s", kv.K, fmtF(kv.V))
			}
			fmt.Fprintln(w)
		}
		if len(e.Thresholds) > 0 {
			fmt.Fprintf(w, "%s  thresholds:", prefix)
			for _, kv := range e.Thresholds {
				fmt.Fprintf(w, " %s=%s", kv.K, fmtF(kv.V))
			}
			fmt.Fprintln(w)
		}
		for _, is := range e.Intervals {
			fmt.Fprintf(w, "%s  intervals %s: n=%d size=%s", prefix, is.Name, is.Count, fmtSec(is.SizeMicros))
			if len(is.Ranges) > 0 {
				fmt.Fprint(w, " [")
				for i, r := range is.Ranges {
					if i > 0 {
						fmt.Fprint(w, " ")
					}
					fmt.Fprintf(w, "%s-%s", fmtSec(r.Start), fmtSec(r.End))
				}
				if is.Count > len(is.Ranges) {
					fmt.Fprintf(w, " +%d more", is.Count-len(is.Ranges))
				}
				fmt.Fprint(w, "]")
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
