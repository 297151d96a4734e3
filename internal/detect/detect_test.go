package detect

import (
	"testing"

	"tdat/internal/series"
	"tdat/internal/timerange"
	"tdat/internal/traceutil"
)

const mss = 1460

func genCat(b *traceutil.Builder) *series.Catalog {
	return series.Generate(b.Extract(), series.Config{DisableShift: true})
}

// pacedBuilder emits n one-segment bursts separated by the timer.
func pacedBuilder(n int, timer traceutil.Micros) *traceutil.Builder {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	t0 := traceutil.Micros(20_000)
	off := int64(0)
	for i := 0; i < n; i++ {
		b.Data(t0, off, mss)
		off += mss
		b.Ack(t0+10_000, off, 65535)
		t0 += timer
	}
	return b
}

func TestTimerGapsDetects200ms(t *testing.T) {
	cat := genCat(pacedBuilder(40, 200_000))
	res, ok := TimerGapsEv(cat, timerange.Range{}, 0, nil)
	if !ok {
		t.Fatal("timer not detected")
	}
	if res.TimerMicros < 170_000 || res.TimerMicros > 210_000 {
		t.Errorf("timer = %d µs, want ≈190-200ms", res.TimerMicros)
	}
	if res.Gaps < 30 {
		t.Errorf("matched gaps = %d", res.Gaps)
	}
	if res.InducedDelay < 5_000_000 {
		t.Errorf("induced delay = %d µs, want several seconds", res.InducedDelay)
	}
}

func TestTimerGapsRejectsSteadyTransfer(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.SteadyTransfer(20_000, 10_000, 40, 4, 65535)
	cat := genCat(b)
	if res, ok := TimerGapsEv(cat, timerange.Range{}, 0, nil); ok {
		t.Errorf("false timer %d µs on an ACK-clocked transfer", res.TimerMicros)
	}
}

func TestTimerGapsNeedsRepetition(t *testing.T) {
	// Only two long gaps: not a timer.
	cat := genCat(pacedBuilder(3, 200_000))
	if _, ok := TimerGapsEv(cat, timerange.Range{}, 0, nil); ok {
		t.Error("timer detected from two gaps")
	}
}

func TestConsecutiveLossesCountsEpisode(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	// Ten successive retransmissions of the same segment (RTO backoff),
	// each captured (downstream loss).
	b.Data(20_000, 0, mss)
	tt := traceutil.Micros(220_000)
	for i := 0; i < 10; i++ {
		b.Data(tt, 0, mss)
		tt += 400_000
	}
	b.Ack(tt, mss, 65535)
	cat := genCat(b)
	res := ConsecutiveLossesEv(cat, timerange.Range{}, 0, nil)
	if res.Episodes != 1 {
		t.Fatalf("episodes = %d (maxRun=%d)", res.Episodes, res.MaxRun)
	}
	if res.MaxRun < 8 {
		t.Errorf("max run = %d", res.MaxRun)
	}
	if res.InducedDelay < 3_000_000 {
		t.Errorf("induced delay = %d", res.InducedDelay)
	}
}

func TestConsecutiveLossesBelowThreshold(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss)
	b.Data(240_000, 0, mss) // one retransmission
	b.Ack(250_000, mss, 65535)
	cat := genCat(b)
	res := ConsecutiveLossesEv(cat, timerange.Range{}, 0, nil)
	if res.Episodes != 0 {
		t.Errorf("episodes = %d, want 0", res.Episodes)
	}
	if res.MaxRun == 0 {
		t.Error("max run should still count the single loss")
	}
}

func TestConsecutiveLossesCustomThreshold(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss)
	for i := 0; i < 4; i++ {
		b.Data(220_000+traceutil.Micros(i)*400_000, 0, mss)
	}
	b.Ack(2_000_000, mss, 65535)
	cat := genCat(b)
	if res := ConsecutiveLossesEv(cat, timerange.Range{}, 3, nil); res.Episodes != 1 {
		t.Errorf("episodes at threshold 3 = %d", res.Episodes)
	}
	if res := ConsecutiveLossesEv(cat, timerange.Range{}, 0, nil); res.Episodes != 0 {
		t.Errorf("episodes at default threshold = %d", res.Episodes)
	}
}

func TestPeerGroupBlocking(t *testing.T) {
	// Healthy session: transfers, then a 150 s pause (only keepalives),
	// then resumes.
	healthy := traceutil.New()
	healthy.Handshake(0, 10_000, mss)
	end := healthy.SteadyTransfer(20_000, 10_000, 5, 2, 65535)
	// Pause with one keepalive exchange in the middle.
	off := int64(5 * 2 * mss)
	healthy.Data(end+60_000_000, off, 19)
	healthy.Ack(end+60_010_000, off+19, 65535)
	resume := end + 150_000_000
	healthy.Data(resume, off+19, mss)
	healthy.Ack(resume+10_000, off+19+mss, 65535)

	// Faulty sibling: a segment retransmitted unacknowledged through the
	// same period.
	faulty := traceutil.New()
	faulty.Handshake(0, 10_000, mss)
	faulty.Data(20_000, 0, mss)
	tt := end + 1_000_000
	for i := 0; i < 8; i++ {
		faulty.Data(tt, 0, mss)
		tt += 15_000_000
	}

	hc, fc := genCat(healthy), genCat(faulty)
	res, ok := PeerGroupBlocking(hc, fc, 0)
	if !ok {
		t.Fatal("blocking not detected")
	}
	if res.LongestPause < 30_000_000 {
		t.Errorf("longest pause = %d µs", res.LongestPause)
	}
}

func TestPeerGroupBlockingNegative(t *testing.T) {
	// Both sessions healthy: no long pause, no detection.
	a := traceutil.New()
	a.Handshake(0, 10_000, mss)
	a.SteadyTransfer(20_000, 10_000, 10, 2, 65535)
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.SteadyTransfer(20_000, 10_000, 10, 2, 65535)
	if _, ok := PeerGroupBlocking(genCat(a), genCat(b), 0); ok {
		t.Error("false peer-group blocking on healthy sessions")
	}
}

func TestZeroAckBugDetector(t *testing.T) {
	b := traceutil.New()
	b.Handshake(0, 10_000, mss)
	b.Data(20_000, 0, mss)
	b.Ack(30_000, mss, 0)
	b.Data(100_000, 2*mss, mss) // gap opens during zero window
	b.Data(700_000, mss, mss)   // repaired
	b.Ack(710_000, 3*mss, 0)
	b.Ack(900_000, 3*mss, 65535)
	cat := genCat(b)
	res, ok := ZeroAckBugEv(cat, nil)
	if !ok || res.Conflict.Empty() {
		t.Fatal("zero-ack bug not detected")
	}

	clean := traceutil.New()
	clean.Handshake(0, 10_000, mss)
	clean.SteadyTransfer(20_000, 10_000, 5, 2, 65535)
	if _, ok := ZeroAckBugEv(genCat(clean), nil); ok {
		t.Error("false zero-ack bug on a clean transfer")
	}
}

func TestGapLengthsSorted(t *testing.T) {
	cat := genCat(pacedBuilder(10, 200_000))
	gaps := GapLengths(cat, timerange.Range{})
	if len(gaps) < 9 {
		t.Fatalf("gaps = %d", len(gaps))
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatal("gap lengths not sorted")
		}
	}
}

func TestPeerGroupBlockingAny(t *testing.T) {
	healthy := traceutil.New()
	healthy.Handshake(0, 10_000, mss)
	end := healthy.SteadyTransfer(20_000, 10_000, 5, 2, 65535)
	off := int64(5 * 2 * mss)
	resume := end + 150_000_000
	healthy.Data(resume, off, mss)
	healthy.Ack(resume+10_000, off+mss, 65535)

	// Two siblings: one clean, one in retransmission agony during the pause.
	clean := traceutil.New()
	clean.Handshake(0, 10_000, mss)
	clean.SteadyTransfer(20_000, 10_000, 10, 2, 65535)

	faulty := traceutil.New()
	faulty.Handshake(0, 10_000, mss)
	faulty.Data(20_000, 0, mss)
	tt := end + 1_000_000
	for i := 0; i < 8; i++ {
		faulty.Data(tt, 0, mss)
		tt += 15_000_000
	}

	hc := genCat(healthy)
	sibs := []*series.Catalog{genCat(clean), genCat(faulty)}
	res, idx, ok := PeerGroupBlockingAny(hc, sibs, 0)
	if !ok {
		t.Fatal("multi-member blocking not detected")
	}
	if idx != 1 {
		t.Errorf("blamed sibling %d, want 1 (the faulty one)", idx)
	}
	if res.LongestPause < 30_000_000 {
		t.Errorf("longest pause = %d", res.LongestPause)
	}
	if _, _, ok := PeerGroupBlockingAny(hc, sibs[:1], 0); ok {
		t.Error("clean sibling alone should not explain the pause")
	}
}
