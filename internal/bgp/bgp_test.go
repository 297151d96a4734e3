package bgp

import (
	"errors"
	"math/rand"
	"net/netip"
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
