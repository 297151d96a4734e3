package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tdat/internal/packet"
	"tdat/internal/pcapio"
)

// goodUpdate is a valid UPDATE exercising every section: a withdrawal,
// every modeled attribute, and two announcements.
func goodUpdate(tb testing.TB) []byte {
	tb.Helper()
	u := &Update{
		Withdrawn: []Prefix{mustPrefix("192.0.2.0/24")},
		Attrs: &PathAttrs{
			Origin:    OriginIGP,
			ASPath:    []uint16{7018, 3356},
			NextHop:   netip.MustParseAddr("10.0.0.1"),
			HasMED:    true,
			MED:       5,
			HasLocal:  true,
			LocalPref: 100,
		},
		NLRI: []Prefix{mustPrefix("10.0.0.0/8"), mustPrefix("172.16.0.0/12")},
	}
	good, err := u.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return good
}

// parseSeeds are FuzzParse's seeds: a valid message, its bare header, the
// empty input, and two messages back to back.
func parseSeeds(tb testing.TB) [][]byte {
	good := goodUpdate(tb)
	return [][]byte{good, good[:19], {}, append(append([]byte(nil), good...), good...)}
}

// tableStream is a 2000-prefix table transfer packed into maximally filled
// UPDATEs, back to back, as a router sends it.
func tableStream(tb testing.TB) []byte {
	tb.Helper()
	attrs := &PathAttrs{Origin: OriginIGP, ASPath: []uint16{7018, 3356}, NextHop: netip.MustParseAddr("10.0.0.1")}
	routes := make([]Route, 2000)
	for i := range routes {
		routes[i] = Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), Attrs: attrs}
	}
	ups, err := PackTable(routes)
	if err != nil {
		tb.Fatal(err)
	}
	var stream []byte
	for _, u := range ups {
		raw, err := u.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		stream = append(stream, raw...)
	}
	return stream
}

// checkScanEquiv holds ScanStream to SplitStream+Parse on one input: the
// same message count, consumed offset and error, and exactly the keys of
// the parsed UPDATEs' NLRI, reported at the offsets where those UPDATEs
// end.
func checkScanEquiv(tb testing.TB, data []byte) {
	tb.Helper()
	msgs, consumed, err := SplitStream(data)
	var ends, counts []int
	keys, n, scanConsumed, scanErr := ScanStream(data, nil, func(end, nkeys int) {
		ends = append(ends, end)
		counts = append(counts, nkeys)
	})
	if n != len(msgs) || scanConsumed != consumed {
		tb.Fatalf("scan: %d messages, %d consumed; split: %d, %d", n, scanConsumed, len(msgs), consumed)
	}
	checkSameError(tb, "split", err, scanErr)
	var want []uint64
	var wantEnds, wantCounts []int
	off := 0
	for _, m := range msgs {
		off += int(binary.BigEndian.Uint16(data[off+16 : off+18]))
		if u, ok := m.(*Update); ok && len(u.NLRI) > 0 {
			for _, p := range u.NLRI {
				want = append(want, PrefixKey(p))
			}
			wantEnds, wantCounts = append(wantEnds, off), append(wantCounts, len(want))
		}
	}
	if !slices.Equal(keys, want) {
		tb.Fatalf("scan keys %x, parsed NLRI keys %x", keys, want)
	}
	if !slices.Equal(ends, wantEnds) || !slices.Equal(counts, wantCounts) {
		tb.Fatalf("scan reported updates at %v (key counts %v), want %v (%v)", ends, counts, wantEnds, wantCounts)
	}
}

// checkSameError fails tb unless the scan's error equals the reference
// path's: both nil, or the same text and the same codec sentinel.
func checkSameError(tb testing.TB, ref string, err, scanErr error) {
	tb.Helper()
	if (err == nil) != (scanErr == nil) || err != nil && err.Error() != scanErr.Error() {
		tb.Fatalf("scan error %v, %s error %v", scanErr, ref, err)
	}
	for _, sentinel := range []error{ErrTruncated, ErrBadMarker, ErrBadLength, ErrBadType, ErrBadMessage} {
		if errors.Is(err, sentinel) != errors.Is(scanErr, sentinel) {
			tb.Fatalf("errors.Is(%v): scan %v, %s %v", sentinel, errors.Is(scanErr, sentinel), ref, errors.Is(err, sentinel))
		}
	}
}

// checkMessageEquiv holds ScanMessage to Parse on one input: the same
// error, and the keys of the parsed UPDATE's NLRI appended after the keys
// already held, which stay untouched on error.
func checkMessageEquiv(tb testing.TB, data []byte) {
	tb.Helper()
	m, err := Parse(data)
	keys, scanErr := ScanMessage(data, []uint64{1})
	checkSameError(tb, "parse", err, scanErr)
	want := []uint64{1}
	if u, ok := m.(*Update); ok {
		for _, p := range u.NLRI {
			want = append(want, PrefixKey(p))
		}
	}
	if !slices.Equal(keys, want) {
		tb.Fatalf("ScanMessage keys %x, parsed NLRI keys %x", keys, want)
	}
}

// checkMessagesEquiv runs checkMessageEquiv on data and on every whole
// message framed at its start.
func checkMessagesEquiv(tb testing.TB, data []byte) {
	tb.Helper()
	checkMessageEquiv(tb, data)
	for off := 0; ; {
		n, _ := frameLen(data[off:])
		if n == 0 {
			return
		}
		checkMessageEquiv(tb, data[off:off+n])
		off += n
	}
}

// TestParseNeverPanics mutates valid messages and feeds noise: malformed
// BGP bytes in a reassembled stream must error, never crash — and the
// prefix scans of a stream and of one message must reach the same verdict
// as the parser.
func TestParseNeverPanics(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	good := goodUpdate(t)
	for i := 0; i < 5000; i++ {
		var data []byte
		switch i % 3 {
		case 0:
			data = make([]byte, rnd.Intn(100))
			rnd.Read(data)
		case 1:
			data = append([]byte(nil), good...)
			for j := 0; j < 1+rnd.Intn(6); j++ {
				data[rnd.Intn(len(data))] ^= byte(1 << rnd.Intn(8))
			}
		default:
			data = good[:rnd.Intn(len(good))]
		}
		checkMessagesEquiv(t, data)
		checkScanEquiv(t, data)
	}
}

// FuzzParse is the native fuzz target behind TestParseNeverPanics: any
// byte string must parse or error, never crash, and a message that parses
// and re-marshals must re-parse. CI runs this for a short smoke window on
// every push; run locally with
//
//	go test -run='^$' -fuzz=FuzzParse -fuzztime=30s ./internal/bgp
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err == nil && m != nil {
			if again, err := m.Marshal(); err == nil {
				if _, err := Parse(again); err != nil {
					t.Errorf("re-marshaled message failed to parse: %v", err)
				}
			}
		}
		_, _, _ = SplitStream(data)
	})
}

// FuzzScanEquiv is the differential target for the prefix scans: on any
// byte string ScanStream must agree with SplitStream+Parse (see
// checkScanEquiv), and ScanMessage with Parse on every message it holds
// (see checkMessagesEquiv). It starts from FuzzParse's seeds, its committed
// corpus, the BGP streams of the adversarial captures, a table transfer of
// full-size UPDATEs, and TestWordReadsAtBufferEnd's streams, whose last
// prefix ends at the buffer's end or just before a partial header. CI runs
// it for a short smoke window; run locally with
//
//	go test -run='^$' -fuzz=FuzzScanEquiv -fuzztime=30s ./internal/bgp
func FuzzScanEquiv(f *testing.F) {
	for _, seed := range parseSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range committedSeeds(f, "FuzzParse") {
		f.Add(seed)
	}
	for _, stream := range corpusStreams(f) {
		f.Add(stream)
	}
	f.Add(tableStream(f))
	streams, _ := bufferEndStreams(f)
	for _, stream := range streams {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMessagesEquiv(t, data)
		checkScanEquiv(t, data)
	})
}

// committedSeeds reads the byte-string inputs of a fuzz target's committed
// corpus (testdata/fuzz/<target>, "go test fuzz v1" files).
func committedSeeds(tb testing.TB, target string) [][]byte {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(arg)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(data))
	}
	return out
}

// corpusStreams returns, for each committed adversarial capture, the
// payloads its BGP speaker (TCP port 179) sent, concatenated in capture
// order: real table-transfer bytes, damage included.
func corpusStreams(tb testing.TB) [][]byte {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join("..", "pcapio", "testdata", "adversarial", "*.pcap"))
	if err != nil || len(names) == 0 {
		tb.Fatalf("adversarial corpus: %v (%d files)", err, len(names))
	}
	var out [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		recs, _ := pcapio.ReadAll(bytes.NewReader(data)) // damaged files still yield their leading records
		var stream []byte
		var p packet.Packet
		for _, r := range recs {
			if err := packet.DecodeInto(r.Data, &p); err == nil && p.TCP.SrcPort == 179 {
				stream = append(stream, p.Payload...)
			}
		}
		if len(stream) > 0 {
			out = append(out, stream)
		}
	}
	return out
}
