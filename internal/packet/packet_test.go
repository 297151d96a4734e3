package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Ether: Ethernet{
			Dst:       MAC{0x02, 0, 0, 0, 0, 2},
			Src:       MAC{0x02, 0, 0, 0, 0, 1},
			EtherType: EtherTypeIPv4,
		},
		IP: IPv4{
			ID:       1234,
			TTL:      64,
			Protocol: ProtoTCP,
			Src:      netip.MustParseAddr("10.0.0.1"),
			Dst:      netip.MustParseAddr("10.0.0.2"),
		},
		TCP: TCP{
			SrcPort: 179,
			DstPort: 41000,
			Seq:     1000,
			Ack:     2000,
			Flags:   FlagACK | FlagPSH,
			Window:  65535,
		},
		Payload: []byte("hello bgp"),
	}
}

func TestMarshalDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	p.TCP.SetMSS(1460)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !VerifyIPChecksum(frame) {
		t.Error("IP checksum does not verify")
	}
	var got Packet
	if err := DecodeInto(frame, &got); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	if got.TCP.SrcPort != 179 || got.TCP.DstPort != 41000 {
		t.Errorf("ports = %d,%d", got.TCP.SrcPort, got.TCP.DstPort)
	}
	if got.TCP.Seq != 1000 || got.TCP.Ack != 2000 {
		t.Errorf("seq/ack = %d/%d", got.TCP.Seq, got.TCP.Ack)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload = %q, want %q", got.Payload, p.Payload)
	}
	if got.IP.Src != p.IP.Src || got.IP.Dst != p.IP.Dst {
		t.Errorf("addrs = %v->%v", got.IP.Src, got.IP.Dst)
	}
	mss, ok := got.TCP.MSS()
	if !ok || mss != 1460 {
		t.Errorf("MSS = %d,%v want 1460,true", mss, ok)
	}
	if got.Ether.Src != p.Ether.Src || got.Ether.Dst != p.Ether.Dst {
		t.Errorf("MACs = %v->%v", got.Ether.Src, got.Ether.Dst)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: Marshal then Decode preserves all header fields and payload
	// for arbitrary field values.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := samplePacket()
		p.TCP.Seq = rnd.Uint32()
		p.TCP.Ack = rnd.Uint32()
		p.TCP.Window = uint16(rnd.Uint32())
		p.TCP.Flags = uint8(rnd.Intn(64))
		p.IP.ID = uint16(rnd.Uint32())
		p.Payload = make([]byte, rnd.Intn(1400))
		rnd.Read(p.Payload)
		frame, err := p.Marshal()
		if err != nil {
			return false
		}
		var got Packet
		if err := DecodeInto(frame, &got); err != nil {
			return false
		}
		return got.TCP.Seq == p.TCP.Seq &&
			got.TCP.Ack == p.TCP.Ack &&
			got.TCP.Window == p.TCP.Window &&
			got.TCP.Flags == p.TCP.Flags &&
			got.IP.ID == p.IP.ID &&
			bytes.Equal(got.Payload, p.Payload) &&
			VerifyIPChecksum(frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		mangle  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short ethernet", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"short ip", func(b []byte) []byte { return b[:EthernetHeaderLen+8] }, ErrTruncated},
		{"wrong ethertype", func(b []byte) []byte { b[12] = 0x86; b[13] = 0xDD; return b }, ErrBadHeader},
		{"ip version 6", func(b []byte) []byte { b[EthernetHeaderLen] = 0x65; return b }, ErrBadVersion},
		{"not tcp", func(b []byte) []byte { b[EthernetHeaderLen+9] = 17; return b }, ErrBadHeader},
		{"bad ihl", func(b []byte) []byte { b[EthernetHeaderLen] = 0x42; return b }, ErrBadHeader},
		{
			"total len beyond capture",
			func(b []byte) []byte { b[EthernetHeaderLen+2] = 0xFF; b[EthernetHeaderLen+3] = 0xFF; return b },
			ErrTruncated,
		},
		{
			"tcp offset beyond segment",
			func(b []byte) []byte { b[EthernetHeaderLen+IPv4HeaderLen+12] = 0xF0; return b },
			ErrBadHeader,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame := tt.mangle(append([]byte(nil), good...))
			var p Packet
			if err := DecodeInto(frame, &p); !errors.Is(err, tt.wantErr) {
				t.Errorf("DecodeInto error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSeqEnd(t *testing.T) {
	tests := []struct {
		name    string
		flags   uint8
		payload int
		want    uint32
	}{
		{"plain data", FlagACK, 100, 1100},
		{"syn consumes one", FlagSYN, 0, 1001},
		{"fin consumes one", FlagFIN | FlagACK, 50, 1051},
		{"syn+fin", FlagSYN | FlagFIN, 0, 1002},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := &Packet{TCP: TCP{Seq: 1000, Flags: tt.flags}, Payload: make([]byte, tt.payload)}
			if got := p.SeqEnd(); got != tt.want {
				t.Errorf("SeqEnd = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	p := samplePacket()
	p.TCP.Flags = FlagSYN
	p.TCP.SetMSS(536)
	p.TCP.Options = append(p.TCP.Options,
		TCPOption{Kind: OptNOP},
		TCPOption{Kind: OptWindowScale, Data: []byte{7}},
		TCPOption{Kind: OptSACKPermitted},
	)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := DecodeInto(frame, &got); err != nil {
		t.Fatal(err)
	}
	mss, ok := got.TCP.MSS()
	if !ok || mss != 536 {
		t.Errorf("MSS = %d,%v", mss, ok)
	}
	ws, ok := got.TCP.WindowScale()
	if !ok || ws != 7 {
		t.Errorf("WindowScale = %d,%v", ws, ok)
	}
}

func TestFlagString(t *testing.T) {
	tcp := &TCP{Flags: FlagSYN | FlagACK}
	if got := tcp.FlagString(); got != "SYN|ACK" {
		t.Errorf("FlagString = %q", got)
	}
	if got := (&TCP{}).FlagString(); got != "none" {
		t.Errorf("FlagString empty = %q", got)
	}
}

func TestHasFlag(t *testing.T) {
	tcp := &TCP{Flags: FlagSYN | FlagACK}
	if !tcp.HasFlag(FlagSYN) || !tcp.HasFlag(FlagSYN|FlagACK) {
		t.Error("HasFlag missed set flags")
	}
	if tcp.HasFlag(FlagRST) || tcp.HasFlag(FlagSYN|FlagRST) {
		t.Error("HasFlag matched unset flags")
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xAA, 0xBB, 0xCC, 0x00, 0x11, 0x22}
	if got := m.String(); got != "aa:bb:cc:00:11:22" {
		t.Errorf("MAC.String = %q", got)
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	p := samplePacket()
	p.Payload = make([]byte, 70000)
	if _, err := p.Marshal(); !errors.Is(err, ErrBadHeader) {
		t.Errorf("Marshal oversize err = %v, want ErrBadHeader", err)
	}
}

func TestHasOption(t *testing.T) {
	p := samplePacket()
	if p.TCP.HasOption(OptSACKPermitted) {
		t.Error("HasOption true on empty option list")
	}
	p.TCP.Options = append(p.TCP.Options, TCPOption{Kind: OptSACKPermitted})
	if !p.TCP.HasOption(OptSACKPermitted) {
		t.Error("HasOption missed SACK-permitted")
	}
	if p.TCP.HasOption(OptWindowScale) {
		t.Error("HasOption matched absent kind")
	}
}

func TestSACKBlocksRoundTrip(t *testing.T) {
	p := samplePacket()
	want := [][2]uint32{{1000, 2000}, {5000, 6448}, {9000, 9001}}
	p.TCP.SetSACKBlocks(want)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := DecodeInto(frame, &got); err != nil {
		t.Fatal(err)
	}
	blocks := got.TCP.SACKBlocks()
	if len(blocks) != len(want) {
		t.Fatalf("SACKBlocks = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Errorf("block %d = %v, want %v", i, blocks[i], want[i])
		}
	}
}

func TestSACKBlocksEdgeCases(t *testing.T) {
	var tcp TCP
	if got := tcp.SACKBlocks(); got != nil {
		t.Errorf("SACKBlocks on no options = %v", got)
	}
	tcp.SetSACKBlocks(nil)
	if len(tcp.Options) != 0 {
		t.Error("SetSACKBlocks(nil) appended an option")
	}
	// Five blocks exceed the option space; only four survive.
	tcp.SetSACKBlocks([][2]uint32{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}})
	if got := tcp.SACKBlocks(); len(got) != 4 || got[3] != [2]uint32{7, 8} {
		t.Errorf("truncated SACKBlocks = %v, want 4 blocks ending {7 8}", got)
	}
	// Malformed length (not a multiple of 8) decodes to nil.
	bad := TCP{Options: []TCPOption{{Kind: OptSACK, Data: make([]byte, 12)}}}
	if got := bad.SACKBlocks(); got != nil {
		t.Errorf("malformed SACK data decoded to %v", got)
	}
}

func TestPayloadAndWireLen(t *testing.T) {
	p := samplePacket()
	if got := p.PayloadLen(); got != len(p.Payload) {
		t.Errorf("PayloadLen = %d, want %d", got, len(p.Payload))
	}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.WireLen(); got != len(frame) {
		t.Errorf("WireLen = %d, marshaled frame is %d bytes", got, len(frame))
	}
	p.TCP.SetSACKBlocks([][2]uint32{{1, 2}})
	frame, err = p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.WireLen(); got != len(frame) {
		t.Errorf("WireLen with SACK option = %d, frame is %d bytes", got, len(frame))
	}
}
