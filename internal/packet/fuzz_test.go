package packet

import (
	"math/rand"
	"testing"
)

// TestDecodeNeverPanics drives the decoder with random and mutated frames:
// whatever tcpdump hands the analyzer, DecodeInto must return an error
// rather than crash (trace files in the wild contain every kind of
// corruption).
func TestDecodeNeverPanics(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	good, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for i := 0; i < 5000; i++ {
		var frame []byte
		switch i % 3 {
		case 0: // pure noise
			frame = make([]byte, rnd.Intn(200))
			rnd.Read(frame)
		case 1: // mutated valid frame
			frame = append([]byte(nil), good...)
			for j := 0; j < 1+rnd.Intn(8); j++ {
				frame[rnd.Intn(len(frame))] ^= byte(1 << rnd.Intn(8))
			}
		default: // truncated valid frame
			frame = good[:rnd.Intn(len(good))]
		}
		// The only contract under corruption: no panic.
		_ = DecodeInto(frame, &p)
	}
}

// FuzzDecode is the native fuzz target behind TestDecodeNeverPanics:
// whatever frame bytes tcpdump hands the analyzer must decode or error,
// never crash, and a frame that decodes and re-marshals must decode again,
// to the same packet. CI runs this for a short smoke window on every push;
// run locally with
//
//	go test -run='^$' -fuzz='FuzzDecode$' -fuzztime=30s ./internal/packet
func FuzzDecode(f *testing.F) {
	good, err := samplePacket().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:14])
	f.Add([]byte{})
	var p, back Packet // reused across inputs, like the analyzer's hot loop
	f.Fuzz(func(t *testing.T, frame []byte) {
		if DecodeInto(frame, &p) != nil {
			return
		}
		again, err := p.Marshal()
		if err != nil {
			return
		}
		if err := DecodeInto(again, &back); err != nil {
			t.Fatalf("re-marshaled frame failed to decode: %v", err)
		}
		// Marshal lays out its own IP total length and writes a zero TTL
		// as 64; every other field must come back as it was.
		want := p
		want.IP.TotalLen = back.IP.TotalLen
		if want.IP.TTL == 0 {
			want.IP.TTL = 64
		}
		if err := samePacket(&want, &back); err != nil {
			t.Fatalf("round trip of %x changed the packet: %v", frame, err)
		}
	})
}

// FuzzDecodeEquiv is the differential target keeping the zero-copy decoder
// honest: on arbitrary input, DecodeInto and the reference decoder
// (refDecode, ref_test.go) must agree — same accept/reject verdict, same
// error text, and identical packets on acceptance (byte-slice fields
// compared by content, since the reference copies where the zero-copy
// decoder aliases the frame). The struct passed to DecodeInto is reused across inputs, so stale
// state leaking between decodes is also caught. Seeds come from the
// adversarial corpus (committed under testdata/fuzz/FuzzDecodeEquiv); CI
// runs a 30 s smoke window on every push:
//
//	go test -run='^$' -fuzz=FuzzDecodeEquiv -fuzztime=30s ./internal/packet
func FuzzDecodeEquiv(f *testing.F) {
	good, err := samplePacket().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:20])
	f.Add([]byte{})
	var zc Packet // reused across inputs, like the analyzer's hot loop
	f.Fuzz(func(t *testing.T, frame []byte) {
		ref, refErr := refDecode(frame)
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
	})
}
