package asciiplot

import (
	"strings"
	"testing"

	"tdat/internal/flows"
	"tdat/internal/timerange"
	"tdat/internal/traceutil"
)

func TestSeriesRendersLanes(t *testing.T) {
	var sb strings.Builder
	rows := []Row{
		{Label: "full", Set: timerange.NewSet(timerange.R(0, 100))},
		{Label: "half", Set: timerange.NewSet(timerange.R(0, 50))},
		{Label: "empty", Set: timerange.NewSet()},
	}
	if err := Series(&sb, timerange.R(0, 100), rows, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // 3 lanes + axis
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "████████████████████") {
		t.Errorf("full lane not filled: %q", lines[0])
	}
	if !strings.Contains(lines[0], "100.0%") {
		t.Errorf("full lane missing ratio: %q", lines[0])
	}
	if !strings.Contains(lines[2], "····················") {
		t.Errorf("empty lane not blank: %q", lines[2])
	}
	if !strings.Contains(lines[2], "0.0%") {
		t.Errorf("empty lane ratio: %q", lines[2])
	}
	// Half lane: roughly 10 filled buckets.
	filled := strings.Count(lines[1], "█")
	if filled < 9 || filled > 11 {
		t.Errorf("half lane filled %d buckets: %q", filled, lines[1])
	}
}

func TestSeriesEmptySpan(t *testing.T) {
	var sb strings.Builder
	if err := Series(&sb, timerange.R(5, 5), nil, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty span") {
		t.Errorf("output = %q", sb.String())
	}
}

func TestTimeSequenceMarks(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, 1460)
	b.Data(20_000, 0, 1460)
	b.Data(250_000, 0, 1460) // retransmission → 'R'
	b.Ack(260_000, 1460, 65535)
	c := b.Extract()

	var sb strings.Builder
	if err := TimeSequence(&sb, c, 60, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "R") {
		t.Errorf("retransmission mark missing:\n%s", out)
	}
	if !strings.Contains(out, ".") || !strings.Contains(out, "a") {
		t.Errorf("data/ack marks missing:\n%s", out)
	}
	if !strings.Contains(out, "marks:") {
		t.Error("legend missing")
	}
}

func TestTimeSequenceNoData(t *testing.T) {
	c := &flows.Connection{}
	var sb strings.Builder
	if err := TimeSequence(&sb, c, 40, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data packets") {
		t.Errorf("output = %q", sb.String())
	}
}

func TestDefaultsAppliedForNonPositiveDims(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, 1460)
	b.Data(20_000, 0, 1460)
	c := b.Extract()
	var sb strings.Builder
	if err := TimeSequence(&sb, c, 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(sb.String(), "\n")) < 20 {
		t.Errorf("default dimensions not applied:\n%s", sb.String())
	}
	var sb2 strings.Builder
	if err := Series(&sb2, timerange.R(0, 10), []Row{{Label: "x", Set: timerange.NewSet()}}, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "·") {
		t.Error("default width not applied")
	}
}
