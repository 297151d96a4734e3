package ackshift

import (
	"testing"

	"tdat/internal/flows"
)

// conn builds a connection skeleton with a fixed RTT and the given events.
func conn(rtt Micros, data []flows.DataEvent, acks []flows.AckEvent) *flows.Connection {
	c := &flows.Connection{Data: data, Acks: acks}
	c.Profile.RTT = rtt
	return c
}

func TestShiftMovesAckBeforeReleasedData(t *testing.T) {
	// ACK at t=100 releases data seen at t=10100 (one 10 ms RTT later).
	rtt := Micros(10_000)
	data := []flows.DataEvent{
		{Time: 10_100, Seq: 1460, SeqEnd: 2920, Len: 1460, Kind: flows.DataNew},
	}
	acks := []flows.AckEvent{
		{Time: 100, Ack: 1460, Window: 65535},
	}
	shifted := Shift(conn(rtt, data, acks))
	if got := shifted[0].Time; got != 10_099 {
		t.Errorf("shifted ack time = %d, want 10099 (just before the release)", got)
	}
}

func TestShiftUsesFlightMinimum(t *testing.T) {
	// Two ACKs in one flight; the first has the tighter (smaller) d2. Both
	// must shift by the same amount.
	rtt := Micros(10_000)
	data := []flows.DataEvent{
		{Time: 10_000, Seq: 1000, SeqEnd: 2000, Len: 1000, Kind: flows.DataNew},
		{Time: 13_000, Seq: 2000, SeqEnd: 3000, Len: 1000, Kind: flows.DataNew},
	}
	acks := []flows.AckEvent{
		{Time: 100, Ack: 500, Window: 65535},  // d2 = 9900 to the 10 ms data
		{Time: 300, Ack: 1000, Window: 65535}, // d2 = 9700 — the flight minimum
	}
	shifted := Shift(conn(rtt, data, acks))
	d0 := shifted[0].Time - 100
	d1 := shifted[1].Time - 300
	if d0 != d1 {
		t.Errorf("flight members shifted differently: %d vs %d", d0, d1)
	}
	if d0 != 9699 {
		t.Errorf("shift = %d, want min d2 - 1 = 9699", d0)
	}
}

func TestSeparateFlightsShiftIndependently(t *testing.T) {
	rtt := Micros(10_000)
	data := []flows.DataEvent{
		{Time: 10_000, Seq: 1000, SeqEnd: 2000, Len: 1000, Kind: flows.DataNew},
		{Time: 40_000, Seq: 2000, SeqEnd: 3000, Len: 1000, Kind: flows.DataNew},
	}
	// Second ACK is 30 ms after the first: a new flight (gap > RTT/2).
	acks := []flows.AckEvent{
		{Time: 100, Ack: 1000, Window: 65535},
		{Time: 30_100, Ack: 2000, Window: 65535},
	}
	shifted := Shift(conn(rtt, data, acks))
	if shifted[0].Time != 10_000-1 {
		t.Errorf("first flight shifted to %d", shifted[0].Time)
	}
	if shifted[1].Time != 40_000-1 {
		t.Errorf("second flight shifted to %d", shifted[1].Time)
	}
}

func TestNoShiftWithoutRTT(t *testing.T) {
	data := []flows.DataEvent{{Time: 10_000, Seq: 0, SeqEnd: 1000, Len: 1000, Kind: flows.DataNew}}
	acks := []flows.AckEvent{{Time: 100, Ack: 0, Window: 65535}}
	shifted := Shift(conn(0, data, acks))
	if shifted[0].Time != 100 {
		t.Errorf("RTT-less connection was shifted: %d", shifted[0].Time)
	}
}

func TestNoShiftWhenSenderIdle(t *testing.T) {
	// The data following the ACK is far beyond 2×RTT: app-limited sender,
	// no causal release — the ACK must stay put.
	rtt := Micros(10_000)
	data := []flows.DataEvent{
		{Time: 500_000, Seq: 1000, SeqEnd: 2000, Len: 1000, Kind: flows.DataNew},
	}
	acks := []flows.AckEvent{{Time: 100, Ack: 1000, Window: 65535}}
	shifted := Shift(conn(rtt, data, acks))
	if shifted[0].Time != 100 {
		t.Errorf("idle-sender ACK shifted to %d", shifted[0].Time)
	}
}

func TestDupAcksDoNotDriveShift(t *testing.T) {
	rtt := Micros(10_000)
	data := []flows.DataEvent{
		// Retransmission arrives soon after the dups; it must not be used
		// as a release target.
		{Time: 2_000, Seq: 0, SeqEnd: 1000, Len: 1000, Kind: flows.DataRetransmit},
		{Time: 10_100, Seq: 1000, SeqEnd: 2000, Len: 1000, Kind: flows.DataNew},
	}
	acks := []flows.AckEvent{
		{Time: 100, Ack: 0, Window: 65535, Dup: true},
		{Time: 200, Ack: 0, Window: 65535, Dup: true},
	}
	shifted := Shift(conn(rtt, data, acks))
	if shifted[0].Time != 100 || shifted[1].Time != 200 {
		t.Errorf("dup acks shifted: %d, %d", shifted[0].Time, shifted[1].Time)
	}
}

func TestOriginalAcksUntouched(t *testing.T) {
	rtt := Micros(10_000)
	data := []flows.DataEvent{{Time: 10_100, Seq: 1460, SeqEnd: 2920, Len: 1460, Kind: flows.DataNew}}
	acks := []flows.AckEvent{{Time: 100, Ack: 1460, Window: 65535}}
	c := conn(rtt, data, acks)
	_ = Shift(c)
	if c.Acks[0].Time != 100 {
		t.Error("Shift mutated the connection's own ack slice")
	}
}

func TestEmptyInputsSafe(t *testing.T) {
	c := conn(10_000, nil, nil)
	if got := Shift(c); len(got) != 0 {
		t.Errorf("empty shift = %v", got)
	}
}

// TestFlightGapBoundary pins the flight split at RTT/2: two releasing ACKs
// 5 ms apart on a 10 ms path are one flight and shift together, by the
// smaller release delay; 5 ms and 1 µs apart, they are two flights and
// each shifts by its own.
func TestFlightGapBoundary(t *testing.T) {
	rtt := Micros(10_000)
	data := []flows.DataEvent{
		{Time: 10_100, Seq: 1000, SeqEnd: 2000, Len: 1000, Kind: flows.DataNew},
		{Time: 20_000, Seq: 2000, SeqEnd: 3000, Len: 1000, Kind: flows.DataNew},
	}
	for _, tc := range []struct {
		second    Micros
		oneFlight bool
	}{{5_100, true}, {5_101, false}} {
		acks := []flows.AckEvent{
			{Time: 100, Ack: 1000, Window: 65535},       // releases the 10.1 ms data
			{Time: tc.second, Ack: 2000, Window: 65535}, // releases the 20 ms data
		}
		shifted := Shift(conn(rtt, data, acks))
		if shifted[0].Time != 10_099 {
			t.Errorf("second ACK at %d: first shifted to %d, want 10099", tc.second, shifted[0].Time)
		}
		want := Micros(19_999) // its own release delay
		if tc.oneFlight {
			want = tc.second + 9_999 // the flight's minimum, the first ACK's
		}
		if shifted[1].Time != want {
			t.Errorf("second ACK at %d: shifted to %d, want %d", tc.second, shifted[1].Time, want)
		}
	}
}

// TestMaxShiftBoundary pins the shift cap at 1.5×RTT: data 15 ms after an
// ACK on a 10 ms path is still the ACK's release, and the ACK moves in
// front of it; 1 µs later, it is not, and the ACK stays put.
func TestMaxShiftBoundary(t *testing.T) {
	rtt := Micros(10_000)
	for _, tc := range []struct {
		release Micros
		want    Micros
	}{{15_100, 15_099}, {15_101, 100}} {
		data := []flows.DataEvent{{Time: tc.release, Seq: 1000, SeqEnd: 2000, Len: 1000, Kind: flows.DataNew}}
		acks := []flows.AckEvent{{Time: 100, Ack: 1000, Window: 65535}}
		if got := Shift(conn(rtt, data, acks))[0].Time; got != tc.want {
			t.Errorf("data at %d: ACK shifted to %d, want %d", tc.release, got, tc.want)
		}
	}
}
