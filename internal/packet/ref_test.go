package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// This file keeps the copying decoder that DecodeInto replaced, as the
// reference that FuzzDecodeEquiv and TestDecodeIntoEquivalence hold
// DecodeInto to: the same checks in the same order, written once more
// without views, so a rule that changed in DecodeInto shows as a
// difference.

// refDecode parses an Ethernet II frame carrying IPv4/TCP into a packet of
// its own: the option data and the payload are copies.
func refDecode(frame []byte) (*Packet, error) {
	if len(frame) < EthernetHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes for Ethernet header", ErrTruncated, len(frame))
	}
	var p Packet
	copy(p.Ether.Dst[:], frame[0:6])
	copy(p.Ether.Src[:], frame[6:12])
	p.Ether.EtherType = binary.BigEndian.Uint16(frame[12:14])
	if p.Ether.EtherType != EtherTypeIPv4 {
		return nil, fmt.Errorf("%w: ether type 0x%04x", ErrBadHeader, p.Ether.EtherType)
	}

	ip := frame[EthernetHeaderLen:]
	if len(ip) < IPv4HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes for IPv4 header", ErrTruncated, len(ip))
	}
	if v := ip[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	ihl := int(ip[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadHeader, ihl)
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
		return nil, fmt.Errorf("%w: IP protocol %d", ErrBadHeader, p.IP.Protocol)
	}
	if int(p.IP.TotalLen) < ihl || int(p.IP.TotalLen) > len(ip) {
		return nil, fmt.Errorf("%w: IP total length %d vs %d captured", ErrTruncated, p.IP.TotalLen, len(ip))
	}

	tcp := ip[ihl:p.IP.TotalLen]
	if len(tcp) < 20 {
		return nil, fmt.Errorf("%w: %d bytes for TCP header", ErrTruncated, len(tcp))
	}
	p.TCP.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	p.TCP.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	p.TCP.Seq = binary.BigEndian.Uint32(tcp[4:8])
	p.TCP.Ack = binary.BigEndian.Uint32(tcp[8:12])
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < 20 || dataOff > len(tcp) {
		return nil, fmt.Errorf("%w: TCP data offset %d", ErrBadHeader, dataOff)
	}
	p.TCP.Flags = tcp[13]
	p.TCP.Window = binary.BigEndian.Uint16(tcp[14:16])
	p.TCP.Urgent = binary.BigEndian.Uint16(tcp[18:20])
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
				return nil, fmt.Errorf("%w: dangling TCP option kind %d", ErrBadHeader, kind)
			}
			olen := int(opts[1])
			if olen < 2 || olen > len(opts) {
				return nil, fmt.Errorf("%w: TCP option kind %d length %d", ErrBadHeader, kind, olen)
			}
			data := make([]byte, olen-2)
			copy(data, opts[2:olen])
			p.TCP.Options = append(p.TCP.Options, TCPOption{Kind: kind, Data: data})
			opts = opts[olen:]
		}
	}
	p.Payload = append([]byte(nil), tcp[dataOff:]...)
	return &p, nil
}
