// Package packet encodes and decodes the link/network/transport headers used
// by the simulator and analyzer: Ethernet II, IPv4 (no options beyond
// header-length accounting), and TCP with the option kinds that matter to
// the analysis (MSS, window scale, SACK-permitted, timestamps).
//
// The simulator serializes synthetic packets through this package into pcap
// files, and the analyzer parses them back, so a decode(encode(p)) == p
// round-trip is the package's central invariant (property-tested).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Common errors returned by decoders.
var (
	ErrTruncated  = errors.New("packet: truncated")
	ErrBadVersion = errors.New("packet: unsupported IP version")
	ErrBadHeader  = errors.New("packet: malformed header")
)

// EtherTypeIPv4 is the Ethernet II type for IPv4 payloads.
const EtherTypeIPv4 = 0x0800

// EthernetHeaderLen is the length of an Ethernet II header without FCS.
const EthernetHeaderLen = 14

// MAC is a 6-byte link-layer address.
type MAC [6]byte

// String renders the address as colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 header (options are not modeled; IHL is fixed at 5).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3-bit flags field (bit 1 = DF)
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// TCP option kinds handled explicitly.
const (
	OptEnd           = 0
	OptNOP           = 1
	OptMSS           = 2
	OptWindowScale   = 3
	OptSACKPermitted = 4
	OptSACK          = 5
	OptTimestamps    = 8
)

// TCPOption is a raw TCP option (kind + payload, excluding kind/len bytes).
type TCPOption struct {
	Kind uint8
	Data []byte
}

// TCP is a TCP header plus decoded convenience fields for common options.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
	Options []TCPOption
}

// HasFlag reports whether all bits in mask are set.
func (t *TCP) HasFlag(mask uint8) bool { return t.Flags&mask == mask }

// FlagString renders flags like "SYN|ACK".
func (t *TCP) FlagString() string {
	names := []struct {
		bit  uint8
		name string
	}{
		{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if t.Flags&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		out = "none"
	}
	return out
}

// MSS returns the MSS option value if present.
func (t *TCP) MSS() (uint16, bool) {
	for _, o := range t.Options {
		if o.Kind == OptMSS && len(o.Data) == 2 {
			return binary.BigEndian.Uint16(o.Data), true
		}
	}
	return 0, false
}

// WindowScale returns the window-scale shift if present.
func (t *TCP) WindowScale() (uint8, bool) {
	for _, o := range t.Options {
		if o.Kind == OptWindowScale && len(o.Data) == 1 {
			return o.Data[0], true
		}
	}
	return 0, false
}

// SetMSS appends an MSS option.
func (t *TCP) SetMSS(mss uint16) {
	data := make([]byte, 2)
	binary.BigEndian.PutUint16(data, mss)
	t.Options = append(t.Options, TCPOption{Kind: OptMSS, Data: data})
}

// HasOption reports whether an option of the given kind is present.
func (t *TCP) HasOption(kind uint8) bool {
	for _, o := range t.Options {
		if o.Kind == kind {
			return true
		}
	}
	return false
}

// SACKBlocks decodes the selective-acknowledgment option (RFC 2018) into
// [left, right) sequence-number edge pairs, nil if absent or malformed.
func (t *TCP) SACKBlocks() [][2]uint32 {
	for _, o := range t.Options {
		if o.Kind != OptSACK {
			continue
		}
		if len(o.Data) == 0 || len(o.Data)%8 != 0 {
			return nil
		}
		blocks := make([][2]uint32, 0, len(o.Data)/8)
		for i := 0; i+8 <= len(o.Data); i += 8 {
			blocks = append(blocks, [2]uint32{
				binary.BigEndian.Uint32(o.Data[i : i+4]),
				binary.BigEndian.Uint32(o.Data[i+4 : i+8]),
			})
		}
		return blocks
	}
	return nil
}

// SetSACKBlocks appends a SACK option carrying the given [left, right)
// edge pairs (at most 4 fit the option space; extras are dropped).
func (t *TCP) SetSACKBlocks(blocks [][2]uint32) {
	if len(blocks) == 0 {
		return
	}
	if len(blocks) > 4 {
		blocks = blocks[:4]
	}
	data := make([]byte, 0, len(blocks)*8)
	var edge [4]byte
	for _, b := range blocks {
		binary.BigEndian.PutUint32(edge[:], b[0])
		data = append(data, edge[:]...)
		binary.BigEndian.PutUint32(edge[:], b[1])
		data = append(data, edge[:]...)
	}
	t.Options = append(t.Options, TCPOption{Kind: OptSACK, Data: data})
}

// headerLen returns the TCP header length in bytes including padded options.
func (t *TCP) headerLen() int {
	optLen := 0
	for _, o := range t.Options {
		switch o.Kind {
		case OptEnd, OptNOP:
			optLen++
		default:
			optLen += 2 + len(o.Data)
		}
	}
	// Pad to a 4-byte boundary.
	return 20 + (optLen+3)/4*4
}

// Packet is a fully decoded Ethernet/IPv4/TCP packet with payload.
type Packet struct {
	Ether   Ethernet
	IP      IPv4
	TCP     TCP
	Payload []byte
}

// PayloadLen returns the TCP payload length in bytes.
func (p *Packet) PayloadLen() int { return len(p.Payload) }

// WireLen returns the frame's on-the-wire size in bytes without
// marshaling: Ethernet + IPv4 + TCP header (with padded options) + payload.
func (p *Packet) WireLen() int {
	return EthernetHeaderLen + IPv4HeaderLen + p.TCP.headerLen() + len(p.Payload)
}

// SeqEnd returns the sequence number after this segment, accounting for the
// SYN and FIN flags each consuming one sequence number.
func (p *Packet) SeqEnd() uint32 {
	end := p.TCP.Seq + uint32(len(p.Payload))
	if p.TCP.HasFlag(FlagSYN) {
		end++
	}
	if p.TCP.HasFlag(FlagFIN) {
		end++
	}
	return end
}

// Marshal serializes the packet to wire format (Ethernet II frame bytes).
func (p *Packet) Marshal() ([]byte, error) {
	if !p.IP.Src.Is4() || !p.IP.Dst.Is4() {
		return nil, fmt.Errorf("%w: non-IPv4 address", ErrBadHeader)
	}
	tcpLen := p.TCP.headerLen()
	ipTotal := IPv4HeaderLen + tcpLen + len(p.Payload)
	if ipTotal > 0xFFFF {
		return nil, fmt.Errorf("%w: IP total length %d exceeds 65535", ErrBadHeader, ipTotal)
	}
	buf := make([]byte, EthernetHeaderLen+ipTotal)

	// Ethernet.
	copy(buf[0:6], p.Ether.Dst[:])
	copy(buf[6:12], p.Ether.Src[:])
	et := p.Ether.EtherType
	if et == 0 {
		et = EtherTypeIPv4
	}
	binary.BigEndian.PutUint16(buf[12:14], et)

	// IPv4.
	ip := buf[EthernetHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = p.IP.TOS
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipTotal))
	binary.BigEndian.PutUint16(ip[4:6], p.IP.ID)
	binary.BigEndian.PutUint16(ip[6:8], uint16(p.IP.Flags)<<13|p.IP.FragOff&0x1FFF)
	ttl := p.IP.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip[8] = ttl
	ip[9] = ProtoTCP
	src := p.IP.Src.As4()
	dst := p.IP.Dst.As4()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:IPv4HeaderLen]))

	// TCP.
	tcp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:2], p.TCP.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], p.TCP.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], p.TCP.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], p.TCP.Ack)
	tcp[12] = uint8(tcpLen/4) << 4
	tcp[13] = p.TCP.Flags
	binary.BigEndian.PutUint16(tcp[14:16], p.TCP.Window)
	binary.BigEndian.PutUint16(tcp[18:20], p.TCP.Urgent)
	off := 20
	for _, o := range p.TCP.Options {
		switch o.Kind {
		case OptEnd, OptNOP:
			tcp[off] = o.Kind
			off++
		default:
			tcp[off] = o.Kind
			tcp[off+1] = uint8(2 + len(o.Data))
			copy(tcp[off+2:], o.Data)
			off += 2 + len(o.Data)
		}
	}
	for off < tcpLen {
		tcp[off] = OptEnd
		off++
	}
	copy(tcp[tcpLen:], p.Payload)
	binary.BigEndian.PutUint16(tcp[16:18], tcpChecksum(src, dst, tcp[:tcpLen+len(p.Payload)]))
	return buf, nil
}

// DecodeInto parses an Ethernet II frame carrying IPv4/TCP into a
// caller-provided struct without allocating: the TCP option Data fields and
// the Payload are typed views into frame (no copies), and the Options slice
// reuses p's existing backing array. Frames with other ether types or IP
// protocols return ErrBadHeader; short frames return ErrTruncated. It is
// the one decoder every caller uses — zero allocations per packet once p's
// option capacity has warmed up (enforced by TestDecodeIntoAllocs and the
// CI bench gate).
//
// Buffer ownership: every byte-slice field of p aliases frame, so p is only
// valid while frame's contents are. Callers that reuse the frame buffer
// (pcapio.Reader.ReadInto and EachInto) must consume or copy what they
// need from p before the next read; the flows demuxer does this by copying
// payload bytes into its payload blocks.
//
// The package's tests keep a copying decoder as the reference:
// FuzzDecodeEquiv asserts both decoders accept the same inputs and produce
// identical structs (up to the view-vs-copy distinction) on arbitrary
// bytes.
func DecodeInto(frame []byte, p *Packet) error {
	if len(frame) < EthernetHeaderLen {
		return fmt.Errorf("%w: %d bytes for Ethernet header", ErrTruncated, len(frame))
	}
	copy(p.Ether.Dst[:], frame[0:6])
	copy(p.Ether.Src[:], frame[6:12])
	p.Ether.EtherType = binary.BigEndian.Uint16(frame[12:14])
	if p.Ether.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ether type 0x%04x", ErrBadHeader, p.Ether.EtherType)
	}

	ip := frame[EthernetHeaderLen:]
	if len(ip) < IPv4HeaderLen {
		return fmt.Errorf("%w: %d bytes for IPv4 header", ErrTruncated, len(ip))
	}
	if v := ip[0] >> 4; v != 4 {
		return fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	ihl := int(ip[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return fmt.Errorf("%w: IHL %d", ErrBadHeader, ihl)
	}
	p.IP.TOS = ip[1]
	p.IP.TotalLen = binary.BigEndian.Uint16(ip[2:4])
	p.IP.ID = binary.BigEndian.Uint16(ip[4:6])
	ff := binary.BigEndian.Uint16(ip[6:8])
	p.IP.Flags = uint8(ff >> 13)
	p.IP.FragOff = ff & 0x1FFF
	p.IP.TTL = ip[8]
	p.IP.Protocol = ip[9]
	p.IP.Src = netip.AddrFrom4([4]byte(ip[12:16]))
	p.IP.Dst = netip.AddrFrom4([4]byte(ip[16:20]))
	if p.IP.Protocol != ProtoTCP {
		return fmt.Errorf("%w: IP protocol %d", ErrBadHeader, p.IP.Protocol)
	}
	if int(p.IP.TotalLen) < ihl || int(p.IP.TotalLen) > len(ip) {
		return fmt.Errorf("%w: IP total length %d vs %d captured", ErrTruncated, p.IP.TotalLen, len(ip))
	}

	tcp := ip[ihl:p.IP.TotalLen]
	if len(tcp) < 20 {
		return fmt.Errorf("%w: %d bytes for TCP header", ErrTruncated, len(tcp))
	}
	p.TCP.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	p.TCP.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	p.TCP.Seq = binary.BigEndian.Uint32(tcp[4:8])
	p.TCP.Ack = binary.BigEndian.Uint32(tcp[8:12])
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < 20 || dataOff > len(tcp) {
		return fmt.Errorf("%w: TCP data offset %d", ErrBadHeader, dataOff)
	}
	p.TCP.Flags = tcp[13]
	p.TCP.Window = binary.BigEndian.Uint16(tcp[14:16])
	p.TCP.Urgent = binary.BigEndian.Uint16(tcp[18:20])
	p.TCP.Options = p.TCP.Options[:0]
	opts := tcp[20:dataOff]
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case OptEnd:
			opts = nil
		case OptNOP:
			p.TCP.Options = append(p.TCP.Options, TCPOption{Kind: OptNOP})
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return fmt.Errorf("%w: dangling TCP option kind %d", ErrBadHeader, kind)
			}
			olen := int(opts[1])
			if olen < 2 || olen > len(opts) {
				return fmt.Errorf("%w: TCP option kind %d length %d", ErrBadHeader, kind, olen)
			}
			p.TCP.Options = append(p.TCP.Options, TCPOption{Kind: kind, Data: opts[2:olen:olen]})
			opts = opts[olen:]
		}
	}
	p.Payload = tcp[dataOff:len(tcp):len(tcp)]
	return nil
}

// checksum computes the standard Internet checksum over data.
func checksum(data []byte) uint16 {
	var sum uint32
	// The checksum field itself must be zeroed by the caller before calling.
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// tcpChecksum computes the TCP checksum with the IPv4 pseudo-header. The
// segment's checksum field (bytes 16:18) must be zero on entry; it is
// summed as part of seg, so callers zero it before calling.
func tcpChecksum(src, dst [4]byte, seg []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(seg)))
	var sum uint32
	add := func(data []byte) {
		for i := 0; i+1 < len(data); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
		}
		if len(data)%2 == 1 {
			sum += uint32(data[len(data)-1]) << 8
		}
	}
	add(pseudo[:])
	add(seg)
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// VerifyIPChecksum recomputes and checks the IPv4 header checksum of a
// marshaled frame. Used by tests and the analyzer's trace sanity pass.
func VerifyIPChecksum(frame []byte) bool {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return false
	}
	ip := frame[EthernetHeaderLen:]
	ihl := int(ip[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return false
	}
	return checksum(ip[:ihl]) == 0
}
