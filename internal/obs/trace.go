package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace_event (catapult JSON) record — the format
// Perfetto and chrome://tracing load. Ts/Pid/Tid are intentionally not
// omitempty: the schema check (and strict viewers) require name/ph/ts/pid/
// tid on every event, including metadata and instant events at ts 0.
type TraceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"` // µs
	Dur  int64  `json:"dur,omitempty"`
	Pid  int64  `json:"pid"`
	Tid  int64  `json:"tid"`
	// ID correlates async begin/end pairs (ph "b"/"e").
	ID int64 `json:"id,omitempty"`
	// Args serialize with sorted keys (encoding/json), so traces stay
	// deterministic for deterministic inputs.
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the catapult JSON envelope.
type traceFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// WriteTrace serializes events as a catapult JSON object. The event order
// is preserved (viewers sort by ts themselves).
func WriteTrace(w io.Writer, events []TraceEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events})
}

// MetaEvent builds a metadata record (ph "M") — process_name/thread_name
// labels for the lanes a trace uses.
func MetaEvent(name string, pid, tid int64, label string) TraceEvent {
	return TraceEvent{
		Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": label},
	}
}

// SpanSchemaVersion is the span-log JSONL schema version, written as each
// record's "v" field.
const SpanSchemaVersion = 2

// SpanRecord is one span-log line: a pipeline-stage execution with its
// start offset (µs since the run began), duration, and work counters.
type SpanRecord struct {
	V           int    `json:"v"`
	Stage       Stage  `json:"stage"`
	Conn        string `json:"conn"`
	StartMicros int64  `json:"start_us"`
	DurMicros   int64  `json:"dur_us"`
	Bytes       int64  `json:"bytes"`
	Packets     int64  `json:"packets"`
}

// KeepSpans makes o retain every finished span in memory (in addition to
// any span log), so the run can be exported as a trace afterwards. Call it
// before analysis starts.
func (o *Obs) KeepSpans() {
	if o == nil {
		return
	}
	o.spanMu.Lock()
	o.keepSpans = true
	o.spanMu.Unlock()
}

// Spans returns a copy of the retained span records (nil unless KeepSpans
// was called). Completion order under a worker pool is nondeterministic;
// SpanTraceEvents sorts before rendering.
func (o *Obs) Spans() []SpanRecord {
	if o == nil {
		return nil
	}
	o.spanMu.Lock()
	defer o.spanMu.Unlock()
	return append([]SpanRecord(nil), o.spans...)
}

// stageLane maps a stage to its trace lane (tid), in pipeline order.
// Unknown stages (a future schema) land on a trailing lane.
func stageLane(st Stage) int64 {
	for i, s := range Stages {
		if s == st {
			return int64(i)
		}
	}
	return int64(len(Stages))
}

// SpanTraceEvents renders pipeline spans as complete events (ph "X") under
// one process: one lane per stage, labeled via thread_name metadata. Spans
// are sorted by (start, stage, conn) first so the output is stable for a
// given span set regardless of completion order.
func SpanTraceEvents(spans []SpanRecord, pid int64) []TraceEvent {
	sorted := append([]SpanRecord(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.StartMicros != b.StartMicros {
			return a.StartMicros < b.StartMicros
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Conn < b.Conn
	})
	out := make([]TraceEvent, 0, len(sorted)+len(Stages)+1)
	out = append(out, MetaEvent("process_name", pid, 0, "tdat pipeline"))
	for i, st := range Stages {
		out = append(out, MetaEvent("thread_name", pid, int64(i), string(st)))
	}
	for _, s := range sorted {
		dur := s.DurMicros
		if dur < 1 {
			dur = 1 // zero-width spans vanish in viewers
		}
		ev := TraceEvent{
			Name: string(s.Stage), Cat: "pipeline", Ph: "X",
			Ts: s.StartMicros, Dur: dur, Pid: pid, Tid: stageLane(s.Stage),
		}
		if s.Conn != "" || s.Bytes != 0 || s.Packets != 0 {
			ev.Args = map[string]any{}
			if s.Conn != "" {
				ev.Args["conn"] = s.Conn
			}
			if s.Bytes != 0 {
				ev.Args["bytes"] = s.Bytes
			}
			if s.Packets != 0 {
				ev.Args["packets"] = s.Packets
			}
		}
		out = append(out, ev)
	}
	return out
}
