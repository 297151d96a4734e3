package bgp

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func mustPrefix(s string) Prefix { return netip.MustParsePrefix(s) }

func sampleAttrs() *PathAttrs {
	return &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  []uint16{19080, 22298, 30092},
		NextHop: netip.MustParseAddr("10.1.2.3"),
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{AS: 65001, HoldTime: 180, Identifier: netip.MustParseAddr("192.0.2.1")}
	data, err := o.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(*Open)
	if !ok {
		t.Fatalf("parsed %T", m)
	}
	if got.Version != 4 || got.AS != 65001 || got.HoldTime != 180 || got.Identifier != o.Identifier {
		t.Errorf("got %+v", got)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	data, err := (&Keepalive{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != HeaderLen {
		t.Errorf("keepalive length = %d, want %d", len(data), HeaderLen)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*Keepalive); !ok {
		t.Errorf("parsed %T", m)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: 4, Subcode: 0, Data: []byte{1, 2}}
	data, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Notification)
	if got.Code != 4 || got.Subcode != 0 || len(got.Data) != 2 {
		t.Errorf("got %+v", got)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []Prefix{mustPrefix("203.0.113.0/24")},
		Attrs: &PathAttrs{
			Origin:    OriginEGP,
			ASPath:    []uint16{1239, 13576, 14263, 23122},
			NextHop:   netip.MustParseAddr("198.51.100.7"),
			MED:       50,
			HasMED:    true,
			LocalPref: 200,
			HasLocal:  true,
		},
		NLRI: []Prefix{
			mustPrefix("66.154.112.0/24"),
			mustPrefix("66.154.104.0/22"),
			mustPrefix("138.247.0.0/16"),
			mustPrefix("0.0.0.0/0"),
		},
	}
	data, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Update)
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("withdrawn = %v", got.Withdrawn)
	}
	if len(got.NLRI) != len(u.NLRI) {
		t.Fatalf("NLRI = %v", got.NLRI)
	}
	for i := range got.NLRI {
		if got.NLRI[i] != u.NLRI[i] {
			t.Errorf("NLRI[%d] = %v, want %v", i, got.NLRI[i], u.NLRI[i])
		}
	}
	if got.Attrs.Origin != OriginEGP || got.Attrs.NextHop != u.Attrs.NextHop {
		t.Errorf("attrs = %+v", got.Attrs)
	}
	if len(got.Attrs.ASPath) != 4 || got.Attrs.ASPath[0] != 1239 {
		t.Errorf("as path = %v", got.Attrs.ASPath)
	}
	if !got.Attrs.HasMED || got.Attrs.MED != 50 || !got.Attrs.HasLocal || got.Attrs.LocalPref != 200 {
		t.Errorf("med/localpref = %+v", got.Attrs)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []Prefix{mustPrefix("10.0.0.0/8")}}
	data, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Update)
	if got.Attrs != nil || len(got.NLRI) != 0 || len(got.Withdrawn) != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestUpdateNLRIWithoutAttrsRejected(t *testing.T) {
	u := &Update{NLRI: []Prefix{mustPrefix("10.0.0.0/8")}}
	if _, err := u.Marshal(); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
}

func TestParseErrors(t *testing.T) {
	valid, err := (&Keepalive{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		data    []byte
		wantErr error
	}{
		{"short", valid[:10], ErrTruncated},
		{"bad marker", func() []byte { d := append([]byte(nil), valid...); d[3] = 0; return d }(), ErrBadMarker},
		{"bad type", func() []byte { d := append([]byte(nil), valid...); d[18] = 9; return d }(), ErrBadType},
		{
			"length too small",
			func() []byte { d := append([]byte(nil), valid...); d[16], d[17] = 0, 5; return d }(),
			ErrBadLength,
		},
		{
			"keepalive with body",
			func() []byte {
				d := frame(TypeKeepalive, []byte{0})
				return d
			}(),
			ErrBadMessage,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.data); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSplitStream(t *testing.T) {
	k, _ := (&Keepalive{}).Marshal()
	u, _ := (&Update{Attrs: sampleAttrs(), NLRI: []Prefix{mustPrefix("10.0.0.0/8")}}).Marshal()
	stream := append(append([]byte{}, k...), u...)

	// Whole stream splits into two messages.
	msgs, consumed, err := SplitStream(stream)
	if err != nil || len(msgs) != 2 || consumed != len(stream) {
		t.Fatalf("msgs=%d consumed=%d err=%v", len(msgs), consumed, err)
	}

	// Partial trailing message stays unconsumed.
	partial := stream[:len(k)+5]
	msgs, consumed, err = SplitStream(partial)
	if err != nil || len(msgs) != 1 || consumed != len(k) {
		t.Fatalf("partial: msgs=%d consumed=%d err=%v", len(msgs), consumed, err)
	}

	// Garbage length aborts.
	bad := append([]byte(nil), stream...)
	bad[len(k)+16] = 0xFF
	bad[len(k)+17] = 0xFF
	_, _, err = SplitStream(bad)
	if !errors.Is(err, ErrBadLength) {
		t.Errorf("garbage err = %v, want ErrBadLength", err)
	}
}

func TestPackTableGroupsByAttrs(t *testing.T) {
	a1 := sampleAttrs()
	a2 := &PathAttrs{Origin: OriginIGP, ASPath: []uint16{7018}, NextHop: netip.MustParseAddr("10.9.9.9")}
	routes := []Route{
		{mustPrefix("10.0.0.0/24"), a1},
		{mustPrefix("10.0.1.0/24"), a2},
		{mustPrefix("10.0.2.0/24"), a1},
	}
	updates, err := PackTable(routes)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2", len(updates))
	}
	if len(updates[0].NLRI) != 2 || len(updates[1].NLRI) != 1 {
		t.Errorf("NLRI counts = %d,%d", len(updates[0].NLRI), len(updates[1].NLRI))
	}
}

func TestPackTableRespectsMaxMessage(t *testing.T) {
	attrs := sampleAttrs()
	var routes []Route
	for i := 0; i < 3000; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		routes = append(routes, Route{netip.PrefixFrom(addr, 24), attrs})
	}
	updates, err := PackTable(routes)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) < 2 {
		t.Fatalf("expected multiple packed updates, got %d", len(updates))
	}
	total := 0
	for _, u := range updates {
		data, err := u.Marshal()
		if err != nil {
			t.Fatalf("packed update does not marshal: %v", err)
		}
		if len(data) > MaxMessageLen {
			t.Errorf("update %d bytes exceeds max", len(data))
		}
		total += len(u.NLRI)
	}
	if total != len(routes) {
		t.Errorf("packed %d prefixes, want %d", total, len(routes))
	}
}

func TestPackTableRejectsNilAttrs(t *testing.T) {
	_, err := PackTable([]Route{{mustPrefix("10.0.0.0/8"), nil}})
	if !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	// Property: random updates survive Marshal/Parse with identical prefixes
	// and attributes.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		attrs := &PathAttrs{
			Origin:  uint8(rnd.Intn(3)),
			NextHop: netip.AddrFrom4([4]byte{byte(rnd.Intn(223) + 1), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 1}),
		}
		for i, n := 0, rnd.Intn(8); i < n; i++ {
			attrs.ASPath = append(attrs.ASPath, uint16(rnd.Intn(64000)+1))
		}
		u := &Update{Attrs: attrs}
		for i, n := 0, rnd.Intn(40)+1; i < n; i++ {
			bits := rnd.Intn(25) + 8
			addr := netip.AddrFrom4([4]byte{byte(rnd.Intn(223) + 1), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256))})
			u.NLRI = append(u.NLRI, netip.PrefixFrom(addr, bits).Masked())
		}
		data, err := u.Marshal()
		if err != nil {
			return false
		}
		m, err := Parse(data)
		if err != nil {
			return false
		}
		got, ok := m.(*Update)
		if !ok || len(got.NLRI) != len(u.NLRI) {
			return false
		}
		for i := range got.NLRI {
			if got.NLRI[i] != u.NLRI[i] {
				return false
			}
		}
		if got.Attrs.Origin != attrs.Origin || got.Attrs.NextHop != attrs.NextHop {
			return false
		}
		if len(got.Attrs.ASPath) != len(attrs.ASPath) {
			return false
		}
		for i := range got.Attrs.ASPath {
			if got.Attrs.ASPath[i] != attrs.ASPath[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAttrsKeyDistinguishes(t *testing.T) {
	a := sampleAttrs()
	b := sampleAttrs()
	if a.Key() != b.Key() {
		t.Error("identical attrs produced different keys")
	}
	b.ASPath = append(b.ASPath, 999)
	if a.Key() == b.Key() {
		t.Error("different AS paths produced identical keys")
	}
	c := sampleAttrs()
	c.HasMED, c.MED = true, 10
	if a.Key() == c.Key() {
		t.Error("MED presence not reflected in key")
	}
}

func TestExtendedLengthASPath(t *testing.T) {
	// >126 ASes force the extended-length attribute encoding.
	attrs := &PathAttrs{Origin: OriginIGP, NextHop: netip.MustParseAddr("10.0.0.1")}
	for i := 0; i < 200; i++ {
		attrs.ASPath = append(attrs.ASPath, uint16(i+1))
	}
	u := &Update{Attrs: attrs, NLRI: []Prefix{mustPrefix("10.1.0.0/16")}}
	data, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Update)
	if len(got.Attrs.ASPath) != 200 {
		t.Fatalf("AS path length = %d", len(got.Attrs.ASPath))
	}
	for i, as := range got.Attrs.ASPath {
		if as != uint16(i+1) {
			t.Fatalf("AS path[%d] = %d", i, as)
		}
	}
}

func TestASPathTooLongRejected(t *testing.T) {
	attrs := sampleAttrs()
	attrs.ASPath = make([]uint16, 300)
	u := &Update{Attrs: attrs, NLRI: []Prefix{mustPrefix("10.0.0.0/8")}}
	if _, err := u.Marshal(); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
}

func TestPackTablePreservesPrefixOrderProperty(t *testing.T) {
	// Property: PackTable keeps each attribute group's prefixes in input
	// order and loses none, regardless of table shape.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nGroups := 1 + rnd.Intn(6)
		attrs := make([]*PathAttrs, nGroups)
		for i := range attrs {
			attrs[i] = &PathAttrs{
				Origin:  uint8(i % 3),
				ASPath:  []uint16{uint16(100 + i)},
				NextHop: netip.MustParseAddr("10.9.9.9"),
			}
		}
		n := 1 + rnd.Intn(400)
		routes := make([]Route, n)
		perGroup := map[int][]Prefix{}
		for i := range routes {
			g := rnd.Intn(nGroups)
			addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
			p := netip.PrefixFrom(addr, 24)
			routes[i] = Route{Prefix: p, Attrs: attrs[g]}
			perGroup[g] = append(perGroup[g], p)
		}
		updates, err := PackTable(routes)
		if err != nil {
			return false
		}
		gotPerKey := map[string][]Prefix{}
		for _, u := range updates {
			k := u.Attrs.Key()
			gotPerKey[k] = append(gotPerKey[k], u.NLRI...)
		}
		for g, want := range perGroup {
			got := gotPerKey[attrs[g].Key()]
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSplitStreamRoundTripProperty(t *testing.T) {
	// Property: any concatenation of marshaled messages splits back into
	// the same count at every prefix of the stream.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		var stream []byte
		count := 0
		for i, n := 0, 1+rnd.Intn(20); i < n; i++ {
			var m Message
			switch rnd.Intn(3) {
			case 0:
				m = &Keepalive{}
			case 1:
				m = &Notification{Code: uint8(rnd.Intn(6) + 1)}
			default:
				m = &Update{Attrs: sampleAttrs(), NLRI: []Prefix{mustPrefix("10.0.0.0/8")}}
			}
			raw, err := m.Marshal()
			if err != nil {
				return false
			}
			stream = append(stream, raw...)
			count++
		}
		msgs, consumed, err := SplitStream(stream)
		if err != nil || consumed != len(stream) || len(msgs) != count {
			return false
		}
		// A truncated prefix never errors and never over-consumes.
		cut := rnd.Intn(len(stream))
		pmsgs, pconsumed, err := SplitStream(stream[:cut])
		return err == nil && pconsumed <= cut && len(pmsgs) <= count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPackWithdrawals(t *testing.T) {
	var prefixes []Prefix
	for i := 0; i < 2500; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		prefixes = append(prefixes, netip.PrefixFrom(addr, 24))
	}
	updates, err := PackWithdrawals(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) < 2 {
		t.Fatalf("packed into %d updates", len(updates))
	}
	total := 0
	for _, u := range updates {
		raw, err := u.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > MaxMessageLen {
			t.Errorf("update %d bytes", len(raw))
		}
		m, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		total += len(m.(*Update).Withdrawn)
	}
	if total != len(prefixes) {
		t.Errorf("withdrew %d of %d", total, len(prefixes))
	}
	if _, err := PackWithdrawals([]Prefix{netip.MustParsePrefix("2001:db8::/32")}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("IPv6 err = %v", err)
	}
}

// TestScanStreamAllocs checks that scanning a stream of full 4096-byte
// UPDATEs into a warmed key buffer allocates nothing: the transfer-end
// path reuses one buffer across connections.
func TestScanStreamAllocs(t *testing.T) {
	routes := make([]Route, 20_000)
	for i := range routes {
		routes[i] = Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), Attrs: sampleAttrs()}
	}
	updates, err := PackTable(routes)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, u := range updates[:len(updates)-1] { // the last one is partly filled
		wire, err := u.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) < MaxMessageLen-3 {
			t.Fatalf("update of %d bytes, want a full message", len(wire))
		}
		stream = append(stream, wire...)
	}
	var keys []uint64
	scan := func() {
		var n, consumed int
		keys, n, consumed, err = ScanStream(stream, keys[:0], func(int, int) {})
		if err != nil || n != len(updates)-1 || consumed != len(stream) {
			t.Fatalf("scan: %d messages, %d of %d bytes, err %v", n, consumed, len(stream), err)
		}
	}
	scan() // warm the key buffer
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Errorf("ScanStream allocates %.1f times per stream, want 0", allocs)
	}
}

// updateBody assembles an UPDATE body from its withdrawn routes, path
// attributes and NLRI, with each length field matching its section.
func updateBody(withdrawn, attrs, nlri []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(withdrawn)))
	b = append(b, withdrawn...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
	b = append(b, attrs...)
	return append(b, nlri...)
}

// updateFault is an UPDATE body that fails one check, and that check's
// error.
type updateFault struct {
	name     string
	body     []byte
	check    check
	text     string
	sentinel error
}

// updateFaultCases has one failing body per UPDATE check, in the order the
// checks meet the body's fields; the prefix checks fail once in the
// withdrawn routes and again in the NLRI, and last a bad NLRI entry
// without path attributes shows the entry checked first.
func updateFaultCases() []updateFault {
	attrs := []byte{
		0x40, AttrOrigin, 1, OriginIGP,
		0x40, AttrASPath, 4, SegmentSequence, 1, 0x1b, 0x5a,
		0x40, AttrNextHop, 4, 10, 0, 0, 1,
	}
	withAttr := func(attr ...byte) []byte { return updateBody(nil, append(attrs[:4:4], attr...), nil) }
	return []updateFault{
		{"UPDATE body", []byte{0, 0, 0}, shortUpdate, "bgp: truncated message: UPDATE body 3 bytes", ErrTruncated},
		{"withdrawn length", []byte{0, 5, 0, 0}, badWithdrawnLength, "bgp: bad length: withdrawn length 5", ErrBadLength},
		{"withdrawn prefix length", updateBody([]byte{8, 10, 33, 1, 2, 3, 4, 5}, nil, nil), badPrefixLength, "bgp: malformed message body: prefix length 33", ErrBadMessage},
		{"withdrawn prefix bytes", updateBody([]byte{8, 10, 24, 10, 0}, nil, nil), shortPrefix, "bgp: truncated message: prefix bytes", ErrTruncated},
		{"attribute length", []byte{0, 0, 0, 9, 1}, badAttrsLength, "bgp: bad length: attribute length 9", ErrBadLength},
		{"attribute header", withAttr(0x40, AttrNextHop), shortAttrHeader, "bgp: truncated message: attribute header", ErrTruncated},
		{"extended attribute header", withAttr(0x50, AttrASPath, 0), shortExtAttrHeader, "bgp: truncated message: extended attribute header", ErrTruncated},
		{"attribute value", withAttr(0x40, AttrNextHop, 4, 10, 0), shortAttrValue, "bgp: truncated message: attribute value (4 declared)", ErrTruncated},
		{"ORIGIN length", withAttr(0x40, AttrOrigin, 2, 0, 0), badOriginLength, "bgp: bad length: ORIGIN length 2", ErrBadLength},
		{"AS_PATH segment header", withAttr(0x40, AttrASPath, 1, SegmentSequence), shortSegmentHeader, "bgp: truncated message: AS_PATH segment header", ErrTruncated},
		{"AS_PATH segment", withAttr(0x40, AttrASPath, 4, SegmentSequence, 2, 0, 1), shortSegment, "bgp: truncated message: AS_PATH segment", ErrTruncated},
		{"AS_PATH segment type", withAttr(0x40, AttrASPath, 4, 3, 1, 0, 1), badSegmentType, "bgp: malformed message body: AS_PATH segment type 3", ErrBadMessage},
		{"NEXT_HOP length", withAttr(0x40, AttrNextHop, 3, 10, 0, 0), badNextHopLength, "bgp: bad length: NEXT_HOP length 3", ErrBadLength},
		{"MED length", withAttr(0x80, AttrMED, 2, 0, 5), badMEDLength, "bgp: bad length: MED length 2", ErrBadLength},
		{"LOCAL_PREF length", withAttr(0x40, AttrLocalPref, 1, 100), badLocalPrefLength, "bgp: bad length: LOCAL_PREF length 1", ErrBadLength},
		{"NLRI prefix length", updateBody(nil, attrs, []byte{8, 10, 40}), badPrefixLength, "bgp: malformed message body: prefix length 40", ErrBadMessage},
		{"NLRI prefix bytes", updateBody(nil, attrs, []byte{8, 10, 24, 10, 0}), shortPrefix, "bgp: truncated message: prefix bytes", ErrTruncated},
		{"NLRI without path attributes", updateBody(nil, nil, []byte{8, 10}), nlriWithoutAttrs, "bgp: malformed message body: NLRI without path attributes", ErrBadMessage},
		{"NLRI prefix bytes without path attributes", updateBody(nil, nil, []byte{8, 10, 24, 10, 0}), shortPrefix, "bgp: truncated message: prefix bytes", ErrTruncated},
	}
}

// TestUpdateFaults runs one failing body per UPDATE check through
// checkUpdate, Parse, ScanMessage and ScanStream, and pins each path's
// error text and sentinel; ScanStream, after a valid UPDATE, must stop
// with that UPDATE counted and its keys kept, and nothing of the bad one.
func TestUpdateFaults(t *testing.T) {
	lead := goodUpdate(t)
	leadKeys := []uint64{PrefixKey(mustPrefix("10.0.0.0/8")), PrefixKey(mustPrefix("172.16.0.0/12"))}
	seen := map[check]bool{}
	for _, tt := range updateFaultCases() {
		t.Run(tt.name, func(t *testing.T) {
			seen[tt.check] = true
			check := func(path string, err error) {
				t.Helper()
				if err == nil || err.Error() != tt.text || !errors.Is(err, tt.sentinel) {
					t.Errorf("%s: error %v, want %q wrapping %v", path, err, tt.text, tt.sentinel)
				}
			}
			if _, _, _, f := checkUpdate(tt.body, nil, nil); f.check != tt.check {
				t.Errorf("checkUpdate failed check %d, want %d", f.check, tt.check)
			}
			msg := frame(TypeUpdate, tt.body)
			_, err := Parse(msg)
			check("Parse", err)
			keys, err := ScanMessage(msg, []uint64{1})
			check("ScanMessage", err)
			if !slices.Equal(keys, []uint64{1}) {
				t.Errorf("ScanMessage keys %x, want them rolled back to [1]", keys)
			}
			var ends []int
			keys, msgs, consumed, err := ScanStream(append(slices.Clip(lead), msg...), nil, func(end, _ int) { ends = append(ends, end) })
			check("ScanStream", err)
			if msgs != 1 || consumed != len(lead) || !slices.Equal(keys, leadKeys) || !slices.Equal(ends, []int{len(lead)}) {
				t.Errorf("ScanStream: %d messages, %d consumed, keys %x, updates at %v; want 1, %d, %x, [%d]",
					msgs, consumed, keys, ends, len(lead), leadKeys, len(lead))
			}
		})
	}
	for c := shortUpdate; c <= nlriWithoutAttrs; c++ {
		if !seen[c] {
			t.Errorf("no case fails UPDATE check %d (%v)", c, fault{check: c}.err())
		}
	}
}

// lastEntryUpdate is an UPDATE whose NLRI ends with one prefix of every
// length 0–32, its host bits set or clear, and the keys it announces.
type lastEntryUpdate struct {
	wire []byte
	keys []uint64
}

// lastEntryUpdates returns an UPDATE for every length 0–32 of its last
// NLRI entry, with the entry's host bits set and clear.
func lastEntryUpdates(tb testing.TB) []lastEntryUpdate {
	tb.Helper()
	var out []lastEntryUpdate
	for bits := 0; bits <= 32; bits++ {
		for _, host := range []bool{true, false} {
			last := netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0xFF, 0xFF, 0xFF}), bits)
			if !host {
				last = last.Masked()
			}
			first := mustPrefix("192.0.2.0/24")
			wire, err := (&Update{Attrs: sampleAttrs(), NLRI: []Prefix{first, last}}).Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, lastEntryUpdate{wire, []uint64{PrefixKey(first), PrefixKey(last.Masked())}})
		}
	}
	return out
}

// bufferEndStreams returns, for each lastEntryUpdate, streams of a valid
// UPDATE and then it, ending where its last NLRI entry does or followed by
// 0–18 bytes of a next header, each with cap(data) == len(data), and the
// keys each stream announces.
func bufferEndStreams(tb testing.TB) (streams [][]byte, keys [][]uint64) {
	tb.Helper()
	lead := goodUpdate(tb)
	leadKeys := []uint64{PrefixKey(mustPrefix("10.0.0.0/8")), PrefixKey(mustPrefix("172.16.0.0/12"))}
	for _, u := range lastEntryUpdates(tb) {
		for tail := 0; tail < HeaderLen; tail++ {
			data := append(append(slices.Clip(lead), u.wire...), lead[:tail]...)
			streams = append(streams, slices.Clip(data))
			keys = append(keys, append(slices.Clip(leadKeys), u.keys...))
		}
	}
	return streams, keys
}

// TestWordReadsAtBufferEnd holds ScanStream to SplitStream+Parse, and both
// to the prefixes marshaled, where the last NLRI entry's address word would
// run past the buffer: the entry ends exactly at len(data) == cap(data), or
// a partial next header follows it, whose 0xFF marker bytes the mask must
// clear.
func TestWordReadsAtBufferEnd(t *testing.T) {
	streams, keys := bufferEndStreams(t)
	for i, data := range streams {
		checkScanEquiv(t, data)
		got, _, _, err := ScanStream(data, nil, func(int, int) {})
		if err != nil || !slices.Equal(got, keys[i]) {
			t.Fatalf("stream %d: keys %x, err %v; want %x", i, got, err, keys[i])
		}
	}
}

// TestScanMessageCappedViews scans UPDATEs packed back to back in one block,
// each a capped view as mrt.ReadAll returns records: the last NLRI entry of
// each ends at its view's capacity, with the next message's bytes after it
// in memory, and must read none of them.
func TestScanMessageCappedViews(t *testing.T) {
	ups := lastEntryUpdates(t)
	var block []byte
	for _, u := range ups {
		block = append(block, u.wire...)
	}
	off := 0
	for _, u := range ups {
		view := block[off : off+len(u.wire) : off+len(u.wire)]
		off += len(u.wire)
		checkMessageEquiv(t, view)
		if keys, err := ScanMessage(view, nil); err != nil || !slices.Equal(keys, u.keys) {
			t.Fatalf("ScanMessage keys %x, err %v; want %x", keys, err, u.keys)
		}
	}
}
