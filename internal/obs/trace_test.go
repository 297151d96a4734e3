package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeTrace parses catapult JSON into raw maps so tests can check key
// presence (struct decoding would hide a missing field behind a zero value).
func decodeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	return f.TraceEvents
}

// requireSchema asserts the trace_event contract: every event carries
// name/ph/ts/pid/tid.
func requireSchema(t *testing.T, events []map[string]any) {
	t.Helper()
	for i, ev := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
	}
}

func TestWriteTraceSchema(t *testing.T) {
	spans := []SpanRecord{
		{Stage: StageSeries, Conn: "a->b", StartMicros: 10, DurMicros: 5, Bytes: 100, Packets: 3},
		{Stage: StageDecode, StartMicros: 0, DurMicros: 2},
		{Stage: StageMerge, StartMicros: 20}, // zero duration → min width 1
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, SpanTraceEvents(spans, 1)); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	requireSchema(t, events)
	// Metadata (process + one thread per stage) precedes the spans.
	wantEvents := 1 + len(Stages) + len(spans)
	if len(events) != wantEvents {
		t.Fatalf("got %d events, want %d", len(events), wantEvents)
	}
	// Spans sort by start: decode(0) before series(10) before merge(20).
	var names []string
	for _, ev := range events {
		if ev["ph"] == "X" {
			names = append(names, ev["name"].(string))
		}
	}
	if got := strings.Join(names, ","); got != "decode,series,merge" {
		t.Errorf("span order %q, want decode,series,merge", got)
	}
}

func TestSpanTraceEventsDeterministicOrder(t *testing.T) {
	spans := []SpanRecord{
		{Stage: StageSeries, Conn: "b->c", StartMicros: 5, DurMicros: 1},
		{Stage: StageFactors, Conn: "a->b", StartMicros: 5, DurMicros: 1},
		{Stage: StageSeries, Conn: "a->b", StartMicros: 5, DurMicros: 1},
	}
	render := func(s []SpanRecord) string {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, SpanTraceEvents(s, 1)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(spans)
	// Any completion order produces identical bytes.
	shuffled := []SpanRecord{spans[2], spans[0], spans[1]}
	if got := render(shuffled); got != want {
		t.Errorf("trace depends on span completion order:\n%s\nvs\n%s", got, want)
	}
}

func TestKeepSpansRetention(t *testing.T) {
	o := New()
	if got := o.Spans(); got != nil {
		t.Fatalf("spans retained without KeepSpans: %v", got)
	}
	o.KeepSpans()
	if !o.SpanLogEnabled() {
		t.Error("SpanLogEnabled false with KeepSpans on")
	}
	o.StartSpan(StageSeries, "a->b").EndN(10, 2)
	o.StartSpan(StageDetect, "a->b").End()
	spans := o.Spans()
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	if spans[0].Stage != StageSeries || spans[0].Bytes != 10 || spans[0].Packets != 2 {
		t.Errorf("first span = %+v", spans[0])
	}
	if spans[0].V != SpanSchemaVersion {
		t.Errorf("span schema v = %d, want %d", spans[0].V, SpanSchemaVersion)
	}
	// Nil receiver no-ops.
	var nilObs *Obs
	nilObs.KeepSpans()
	if nilObs.Spans() != nil {
		t.Error("nil Obs retained spans")
	}
}

func TestSpanLogRoundTrip(t *testing.T) {
	// The JSONL EndN writes must parse back into the record shape
	// SpanRecord declares.
	o := New()
	var log bytes.Buffer
	o.SetSpanLog(&log)
	o.StartSpan(StageSeries, "a->b").EndN(64, 1)
	var rec SpanRecord
	if err := json.Unmarshal(log.Bytes(), &rec); err != nil {
		t.Fatalf("span log line does not parse: %v\n%s", err, log.String())
	}
	if rec.V != SpanSchemaVersion {
		t.Errorf("logged v = %d, want %d", rec.V, SpanSchemaVersion)
	}
	if rec.Stage != StageSeries || rec.Conn != "a->b" || rec.Bytes != 64 || rec.Packets != 1 {
		t.Errorf("round-tripped record = %+v", rec)
	}
	// The CI smoke grep anchors on the literal stage key.
	if !strings.Contains(log.String(), `"stage":"series"`) {
		t.Errorf("span log lost the stage key: %s", log.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{100, 1000})
	h.Observe(40)
	h.Observe(400)
	h.Observe(4000)
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 550},   // second obs: midway through (100,1000]
		{0.95, 1000}, // +Inf bucket clamps to the last finite bound
		{0.99, 1000},
		{0, 0}, // target 0 lands in the first bucket at its lower edge
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Empty and nil histograms.
	if got := newHistogram([]int64{10}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v, want 0", got)
	}
	// Out-of-range q clamps.
	if got := h.Quantile(2); got != 1000 {
		t.Errorf("Quantile(2) = %v, want 1000", got)
	}
}
