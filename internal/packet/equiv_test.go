package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// samePacket compares a reference-decoded packet against a zero-copy-decoded
// one field by field. Byte-slice fields compare by content (the reference
// decoder copies, the zero-copy decoder aliases the frame — nil and empty
// are the same payload), everything else must match exactly.
func samePacket(ref, zc *Packet) error {
	if ref.Ether != zc.Ether {
		return fmt.Errorf("ethernet: %+v vs %+v", ref.Ether, zc.Ether)
	}
	if ref.IP != zc.IP {
		return fmt.Errorf("ipv4: %+v vs %+v", ref.IP, zc.IP)
	}
	r, z := ref.TCP, zc.TCP
	if r.SrcPort != z.SrcPort || r.DstPort != z.DstPort || r.Seq != z.Seq ||
		r.Ack != z.Ack || r.Flags != z.Flags || r.Window != z.Window || r.Urgent != z.Urgent {
		return fmt.Errorf("tcp fixed fields: %+v vs %+v", r, z)
	}
	if len(r.Options) != len(z.Options) {
		return fmt.Errorf("option count: %d vs %d", len(r.Options), len(z.Options))
	}
	for i := range r.Options {
		if r.Options[i].Kind != z.Options[i].Kind || !bytes.Equal(r.Options[i].Data, z.Options[i].Data) {
			return fmt.Errorf("option %d: %+v vs %+v", i, r.Options[i], z.Options[i])
		}
	}
	if !bytes.Equal(ref.Payload, zc.Payload) {
		return fmt.Errorf("payload: %d vs %d bytes", len(ref.Payload), len(zc.Payload))
	}
	return nil
}

// checkEquiv asserts the reference and zero-copy decoders agree on frame:
// both accept or both reject, and on acceptance produce identical packets.
func checkEquiv(t *testing.T, frame []byte) {
	t.Helper()
	ref, refErr := refDecode(frame)
	var zc Packet
	zcErr := DecodeInto(frame, &zc)
	if (refErr == nil) != (zcErr == nil) {
		t.Fatalf("decoders disagree on acceptance: refDecode err=%v, DecodeInto err=%v", refErr, zcErr)
	}
	if refErr != nil {
		if refErr.Error() != zcErr.Error() {
			t.Fatalf("decoders disagree on error: refDecode %q, DecodeInto %q", refErr, zcErr)
		}
		return
	}
	if err := samePacket(ref, &zc); err != nil {
		t.Fatalf("decoders disagree on %x: %v", frame, err)
	}
}

// TestDecodeIntoEquivalence runs the differential check over handcrafted
// frames: the happy path, option-bearing SYNs, and the error taxonomy.
func TestDecodeIntoEquivalence(t *testing.T) {
	base := samplePacket()
	syn := samplePacket()
	syn.TCP.Flags = FlagSYN
	syn.TCP.SetMSS(1460)
	syn.TCP.Options = append(syn.TCP.Options,
		TCPOption{Kind: OptNOP},
		TCPOption{Kind: OptWindowScale, Data: []byte{7}},
		TCPOption{Kind: OptSACKPermitted, Data: nil},
	)
	syn.Payload = nil
	empty := samplePacket()
	empty.Payload = nil

	var frames [][]byte
	for _, p := range []*Packet{base, syn, empty} {
		frame, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	good := frames[0]
	// Error taxonomy: truncations at every layer boundary plus corrupt
	// fields, each hitting a distinct validation branch.
	for cut := 0; cut <= len(good); cut++ {
		frames = append(frames, good[:cut])
	}
	mutate := func(off int, val byte) []byte {
		f := append([]byte(nil), good...)
		f[off] = val
		return f
	}
	frames = append(frames,
		mutate(12, 0x86),                  // wrong ether type
		mutate(14, 0x65),                  // IP version 6
		mutate(14, 0x44),                  // IHL 4 < 20 bytes
		mutate(14, 0x4F),                  // IHL 60 > captured
		mutate(23, 17),                    // UDP, not TCP
		mutate(EthernetHeaderLen+2, 0xFF), // IP total length beyond capture
		mutate(EthernetHeaderLen+IPv4HeaderLen+12, 0x10), // TCP data offset 4
		mutate(EthernetHeaderLen+IPv4HeaderLen+12, 0xF0), // TCP data offset 60 > segment
	)
	// Option parsing branches: NOP run, dangling kind, bad length.
	withOpts := func(opts ...byte) []byte {
		p := samplePacket()
		p.Payload = nil
		frame, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// Splice raw option bytes in by rebuilding the TCP header with a
		// larger data offset (options area padded with the given bytes).
		tcpOff := EthernetHeaderLen + IPv4HeaderLen
		hdr := append([]byte(nil), frame[:tcpOff+20]...)
		hdr = append(hdr, opts...)
		for len(hdr[tcpOff+20:])%4 != 0 {
			hdr = append(hdr, 0)
		}
		hdr[tcpOff+12] = uint8((20+len(hdr[tcpOff+20:]))/4) << 4
		// Fix the IP total length; checksums are not re-verified by either decoder.
		total := len(hdr) - EthernetHeaderLen
		hdr[EthernetHeaderLen+2] = byte(total >> 8)
		hdr[EthernetHeaderLen+3] = byte(total)
		return hdr
	}
	frames = append(frames,
		withOpts(OptNOP, OptNOP, OptNOP, OptEnd),
		withOpts(OptMSS, 4, 0x05, 0xB4),
		withOpts(OptMSS),          // dangling kind at end of options
		withOpts(OptMSS, 1, 0, 0), // option length < 2
		withOpts(OptMSS, 40, 0),   // option length beyond options area
	)
	for i, frame := range frames {
		i, frame := i, frame
		t.Run(fmt.Sprintf("frame-%d", i), func(t *testing.T) { checkEquiv(t, frame) })
	}
}

// TestDecodeIntoReuse proves the caller-provided struct is fully overwritten
// between decodes: stale options or payload from a previous (larger) packet
// must never leak into the next result.
func TestDecodeIntoReuse(t *testing.T) {
	syn := samplePacket()
	syn.TCP.Flags = FlagSYN
	syn.TCP.SetMSS(1460)
	syn.Payload = bytes.Repeat([]byte{0xAB}, 512)
	big, err := syn.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	small, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := DecodeInto(big, &p); err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(small, &p); err != nil {
		t.Fatal(err)
	}
	ref, err := refDecode(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePacket(ref, &p); err != nil {
		t.Fatalf("reused struct diverges from fresh decode: %v", err)
	}
}

// TestDecodeIntoAllocs is the local allocation-regression gate: the hot-path
// decoder must not allocate once the packet struct's option capacity has
// warmed up. The CI bench job enforces the same floor via benchcheck.sh;
// this test fails plain `go test` so regressions never reach CI.
func TestDecodeIntoAllocs(t *testing.T) {
	syn := samplePacket()
	syn.TCP.Flags = FlagSYN
	syn.TCP.SetMSS(1460)
	syn.TCP.Options = append(syn.TCP.Options, TCPOption{Kind: OptWindowScale, Data: []byte{7}})
	frame, err := syn.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := DecodeInto(frame, &p); err != nil { // warm the option capacity
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(frame, &p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto allocates %.1f times per packet, want 0", n)
	}
}

// BenchmarkDecodeInto is the decode microbenchmark the CI perf gate parses:
// scripts/benchfloor.txt pins its allocs/op to 0.
func BenchmarkDecodeInto(b *testing.B) {
	frame, err := samplePacket().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var p Packet
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(frame, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeReference prices the reference copying decoder for the
// BENCH_speed.json trajectory (the old hot path).
func BenchmarkDecodeReference(b *testing.B) {
	frame, err := samplePacket().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refDecode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
