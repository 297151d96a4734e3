package series

import (
	"testing"

	"tdat/internal/traceutil"
)

// The tests below pin each fixed threshold of series generation at its
// boundary: the value itself and the value one unit past it fall on
// opposite sides of the rule, so moving a constant by one unit fails a
// test. They spell the thresholds as literals, not as the constants, for
// the same reason.

// TestLargeWindowMarginBoundary: a window exactly 3·MSS below the largest
// advertised one is large, one byte less is mid.
func TestLargeWindowMarginBoundary(t *testing.T) {
	for _, tc := range []struct {
		win   uint16
		large bool
	}{{65535 - 3*mss, true}, {65535 - 3*mss - 1, false}} {
		b := traceutil.New()
		b.Handshake(0, 10_000, mss) // the SYN-ACK advertises 65535
		b.Data(20_000, 0, mss)
		b.Ack(30_000, mss, tc.win)
		b.Data(40_000, mss, mss)
		b.Ack(50_000, 2*mss, tc.win)
		cat := gen(t, b)
		if got := cat.Get(LargeAdvWindow).Contains(35_000); got != tc.large {
			t.Errorf("window %d: large = %v, want %v", tc.win, got, tc.large)
		}
		if got := cat.Get(MidAdvWindow).Contains(35_000); got == tc.large {
			t.Errorf("window %d: mid = %v, want %v", tc.win, got, !tc.large)
		}
	}
}

// TestWindowSlackBoundary: a flight whose peak outstanding bytes come
// within 3·MSS − 1 bytes of the advertised window filled it; one byte more
// room, and it did not.
func TestWindowSlackBoundary(t *testing.T) {
	for _, tc := range []struct {
		room    int // window minus the flight's peak outstanding bytes
		bounded bool
	}{{3*mss - 1, true}, {3 * mss, false}} {
		win := uint16(2*mss + tc.room)
		b := traceutil.New()
		b.Handshake(0, 10_000, mss)
		b.Ack(15_000, 0, win)
		b.Data(20_000, 0, mss)
		b.Data(20_100, mss, mss)
		b.Ack(30_000, 2*mss, win)
		cat := gen(t, b)
		if len(cat.Flights) != 1 {
			t.Fatalf("room %d: %d flights, want 1", tc.room, len(cat.Flights))
		}
		if f := cat.Flights[0]; f.MaxOut != 2*mss || f.AdvBounded != tc.bounded {
			t.Errorf("room %d: flight MaxOut %d AdvBounded %v, want %d %v",
				tc.room, f.MaxOut, f.AdvBounded, 2*mss, tc.bounded)
		}
	}
}

// TestAppIdleThresholdBoundary: 1 ms of sender silence between the
// handshake and the first data is not application idle; 1 ms and 1 µs is.
func TestAppIdleThresholdBoundary(t *testing.T) {
	const hsAck = 10_050 // the handshake ACK: SYN-ACK at 50, one RTT later
	for _, tc := range []struct {
		gap  traceutil.Micros
		idle bool
	}{{1_000, false}, {1_001, true}} {
		b := traceutil.New()
		b.Handshake(0, 10_000, mss)
		b.Data(hsAck+tc.gap, 0, mss)
		b.Ack(hsAck+tc.gap+10_000, mss, 65535)
		if got := gen(t, b).Get(SendAppLimited).Contains(hsAck); got != tc.idle {
			t.Errorf("gap %d µs: app-limited = %v, want %v", tc.gap, got, tc.idle)
		}
	}
}

// TestImmediateACKBoundary: a flight that follows its predecessor's
// completion ACK within max(2 ms, RTT/8) is ACK-clocked, and its wait is
// not application idle; one microsecond later, it is. The 8 ms RTT puts
// the rule on its 2 ms floor, the 80 ms RTT on RTT/8 = 10 ms.
func TestImmediateACKBoundary(t *testing.T) {
	for _, tc := range []struct {
		rtt, after traceutil.Micros
		idle       bool
	}{
		{8_000, 2_000, false}, {8_000, 2_001, true},
		{80_000, 10_000, false}, {80_000, 10_001, true},
	} {
		b := traceutil.New()
		b.Handshake(0, tc.rtt, mss)
		first := 2*tc.rtt + 1_000
		b.Data(first, 0, mss)
		ackAt := first + tc.rtt
		b.Ack(ackAt, mss, 65535)
		b.Data(ackAt+tc.after, mss, mss)
		b.Ack(ackAt+tc.after+tc.rtt, 2*mss, 65535)
		cat := gen(t, b)
		if len(cat.Flights) != 2 || cat.Flights[0].AckTime != ackAt {
			t.Fatalf("rtt %d: flights %+v, want two, the first acked at %d", tc.rtt, cat.Flights, ackAt)
		}
		if got := cat.Get(SendAppLimited).Contains(ackAt); got != tc.idle {
			t.Errorf("rtt %d, next flight %d µs after the ACK: app-limited = %v, want %v",
				tc.rtt, tc.after, got, tc.idle)
		}
	}
}

// TestKeepalivePayloadBoundary: two 100-byte segments in a row are a
// keepalive-only run; two 101-byte segments are data.
func TestKeepalivePayloadBoundary(t *testing.T) {
	for _, tc := range []struct {
		n         int
		keepalive bool
	}{{100, true}, {101, false}} {
		b := traceutil.New()
		b.Handshake(0, 10_000, mss)
		b.Data(20_000, 0, mss)
		b.Ack(30_000, mss, 65535)
		b.Data(1_000_000, mss, tc.n)
		b.Ack(1_010_000, int64(mss+tc.n), 65535)
		b.Data(2_000_000, int64(mss+tc.n), tc.n)
		b.Ack(2_010_000, int64(mss+2*tc.n), 65535)
		if got := !gen(t, b).Get(KeepaliveOnly).Empty(); got != tc.keepalive {
			t.Errorf("%d-byte segments: keepalive-only = %v, want %v", tc.n, got, tc.keepalive)
		}
	}
}

// TestBandwidthRunLenBoundary: five back-to-back full segments drained at
// the bottleneck clock over more than an RTT are bandwidth-limited; four
// are not, although they span the RTT too.
func TestBandwidthRunLenBoundary(t *testing.T) {
	for _, tc := range []struct {
		n       int
		limited bool
	}{{5, true}, {4, false}} {
		b := traceutil.New()
		b.Handshake(0, 5_000, mss)
		for i := 0; i < tc.n; i++ {
			b.Data(20_000+traceutil.Micros(i)*2_000, int64(i)*mss, mss)
		}
		b.Ack(20_000+traceutil.Micros(tc.n)*2_000+5_000, int64(tc.n)*mss, 65535)
		if got := !gen(t, b).Get(BandwidthLimited).Empty(); got != tc.limited {
			t.Errorf("%d-segment drain: bandwidth-limited = %v, want %v", tc.n, got, tc.limited)
		}
	}
}
