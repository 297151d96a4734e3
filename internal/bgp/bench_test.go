package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
)

// tracegenTable is tracegen.Table, copied here because tracegen imports
// this package: n routes with one attribute set per four consecutive
// routes, 2–7 hop AS paths, a MED on one set in three, and masked /16s,
// /20s, /22s and /24s in tracegen's mix.
func tracegenTable(rnd *rand.Rand, n int) []Route {
	routes := make([]Route, 0, n)
	var attrs *PathAttrs
	for i := 0; i < n; i++ {
		if i%4 == 0 || attrs == nil {
			path := make([]uint16, 2+rnd.Intn(6))
			for j := range path {
				path[j] = uint16(rnd.Intn(64000) + 1)
			}
			attrs = &PathAttrs{
				Origin:  uint8(rnd.Intn(3)),
				ASPath:  path,
				NextHop: netip.AddrFrom4([4]byte{10, 9, byte(rnd.Intn(250)), byte(rnd.Intn(250) + 1)}),
			}
			if rnd.Intn(3) == 0 {
				attrs.HasMED, attrs.MED = true, uint32(rnd.Intn(500))
			}
		}
		bits := 24
		switch rnd.Intn(6) {
		case 0:
			bits = 16
		case 1:
			bits = 22
		case 2:
			bits = 20
		}
		addr := netip.AddrFrom4([4]byte{byte(20 + i>>16), byte(i >> 8), byte(i), 0})
		routes = append(routes, Route{Prefix: netip.PrefixFrom(addr, bits).Masked(), Attrs: attrs})
	}
	return routes
}

// BenchmarkScanStream scans the BGP stream of a paper-scale table transfer
// into a warm key buffer: tracegen's 300,000-route table packed as a
// router sends it, 75,000 UPDATEs of 4 prefixes each, every one with its
// own attribute set.
func BenchmarkScanStream(b *testing.B) {
	ups, err := PackTable(tracegenTable(rand.New(rand.NewSource(1)), 300_000))
	if err != nil {
		b.Fatal(err)
	}
	var stream []byte
	for _, u := range ups {
		wire, err := u.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		stream = append(stream, wire...)
	}
	var keys []uint64
	updates := 0
	scan := func() {
		updates = 0
		var msgs, consumed int
		keys, msgs, consumed, err = ScanStream(stream, keys[:0], func(int, int) { updates++ })
		if err != nil || msgs != 75_000 || updates != msgs || consumed != len(stream) || len(keys) != 300_000 {
			b.Fatalf("scan: %d messages, %d updates, %d keys, %d of %d bytes, err %v", msgs, updates, len(keys), consumed, len(stream), err)
		}
	}
	scan() // warm the key buffer
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
