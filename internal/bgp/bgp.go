// Package bgp implements the subset of the BGP-4 wire protocol (RFC 4271)
// needed to synthesize and parse routing-table transfers: the common header,
// OPEN, UPDATE (withdrawn routes, path attributes, NLRI), KEEPALIVE, and
// NOTIFICATION messages, plus an UPDATE packer that groups prefixes sharing
// a path-attribute set into maximally filled messages the way routers do
// when they stream a full table.
package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Message type codes (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Wire-size constants (RFC 4271).
const (
	HeaderLen     = 19   // marker(16) + length(2) + type(1)
	MaxMessageLen = 4096 // maximum BGP message size
	markerLen     = 16
)

// Errors returned by the codec.
var (
	ErrTruncated  = errors.New("bgp: truncated message")
	ErrBadMarker  = errors.New("bgp: bad marker")
	ErrBadLength  = errors.New("bgp: bad length")
	ErrBadType    = errors.New("bgp: unknown message type")
	ErrBadMessage = errors.New("bgp: malformed message body")
)

// Path attribute type codes.
const (
	AttrOrigin    = 1
	AttrASPath    = 2
	AttrNextHop   = 3
	AttrMED       = 4
	AttrLocalPref = 5
)

// Origin values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// Prefix is an IPv4 NLRI entry.
type Prefix = netip.Prefix

// PathAttrs is the decoded attribute set attached to a group of prefixes.
// Only the attributes the paper's tables exercise are modeled.
type PathAttrs struct {
	Origin    uint8
	ASPath    []uint16 // single AS_SEQUENCE segment
	NextHop   netip.Addr
	MED       uint32
	HasMED    bool
	LocalPref uint32
	HasLocal  bool
}

// Key returns a canonical string identifying the attribute set, used to
// group prefixes that can share one UPDATE.
func (a *PathAttrs) Key() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "o%d|nh%s|", a.Origin, a.NextHop)
	for _, as := range a.ASPath {
		fmt.Fprintf(&b, "%d ", as)
	}
	if a.HasMED {
		fmt.Fprintf(&b, "|m%d", a.MED)
	}
	if a.HasLocal {
		fmt.Fprintf(&b, "|l%d", a.LocalPref)
	}
	return b.String()
}

// marshalAttrs encodes the path attributes.
func (a *PathAttrs) marshalAttrs() ([]byte, error) {
	var b bytes.Buffer
	// ORIGIN: well-known transitive (flags 0x40).
	b.Write([]byte{0x40, AttrOrigin, 1, a.Origin})
	// AS_PATH.
	if len(a.ASPath) > 255 {
		return nil, fmt.Errorf("%w: AS path too long (%d)", ErrBadMessage, len(a.ASPath))
	}
	pathLen := 0
	if len(a.ASPath) > 0 {
		pathLen = 2 + 2*len(a.ASPath)
	}
	if pathLen > 255 {
		b.Write([]byte{0x50, AttrASPath}) // extended length
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(pathLen))
		b.Write(l[:])
	} else {
		b.Write([]byte{0x40, AttrASPath, uint8(pathLen)})
	}
	if len(a.ASPath) > 0 {
		b.WriteByte(SegmentSequence)
		b.WriteByte(uint8(len(a.ASPath)))
		for _, as := range a.ASPath {
			var v [2]byte
			binary.BigEndian.PutUint16(v[:], as)
			b.Write(v[:])
		}
	}
	// NEXT_HOP.
	if !a.NextHop.Is4() {
		return nil, fmt.Errorf("%w: next hop %v is not IPv4", ErrBadMessage, a.NextHop)
	}
	nh := a.NextHop.As4()
	b.Write([]byte{0x40, AttrNextHop, 4})
	b.Write(nh[:])
	// MED (optional non-transitive, flags 0x80).
	if a.HasMED {
		b.Write([]byte{0x80, AttrMED, 4})
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.MED)
		b.Write(v[:])
	}
	// LOCAL_PREF (well-known, flags 0x40).
	if a.HasLocal {
		b.Write([]byte{0x40, AttrLocalPref, 4})
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.LocalPref)
		b.Write(v[:])
	}
	return b.Bytes(), nil
}

// Message is any BGP message.
type Message interface {
	// Type returns the RFC 4271 message type code.
	Type() uint8
	// Marshal serializes the message including the common header.
	Marshal() ([]byte, error)
}

// Open is a BGP OPEN message.
type Open struct {
	Version    uint8
	AS         uint16
	HoldTime   uint16
	Identifier netip.Addr
}

// Type implements Message.
func (*Open) Type() uint8 { return TypeOpen }

// Marshal implements Message.
func (o *Open) Marshal() ([]byte, error) {
	if !o.Identifier.Is4() {
		return nil, fmt.Errorf("%w: OPEN identifier %v is not IPv4", ErrBadMessage, o.Identifier)
	}
	body := make([]byte, 10)
	v := o.Version
	if v == 0 {
		v = 4
	}
	body[0] = v
	binary.BigEndian.PutUint16(body[1:3], o.AS)
	binary.BigEndian.PutUint16(body[3:5], o.HoldTime)
	id := o.Identifier.As4()
	copy(body[5:9], id[:])
	body[9] = 0 // no optional parameters
	return frame(TypeOpen, body), nil
}

// Keepalive is a BGP KEEPALIVE message (header only).
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() uint8 { return TypeKeepalive }

// Marshal implements Message.
func (*Keepalive) Marshal() ([]byte, error) { return frame(TypeKeepalive, nil), nil }

// Notification is a BGP NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (*Notification) Type() uint8 { return TypeNotification }

// Marshal implements Message.
func (n *Notification) Marshal() ([]byte, error) {
	body := append([]byte{n.Code, n.Subcode}, n.Data...)
	if HeaderLen+len(body) > MaxMessageLen {
		return nil, fmt.Errorf("%w: notification too large", ErrBadLength)
	}
	return frame(TypeNotification, body), nil
}

// Update is a BGP UPDATE message.
type Update struct {
	Withdrawn []Prefix
	Attrs     *PathAttrs // nil when the update only withdraws
	NLRI      []Prefix
}

// Type implements Message.
func (*Update) Type() uint8 { return TypeUpdate }

// Marshal implements Message.
func (u *Update) Marshal() ([]byte, error) {
	var body bytes.Buffer
	wd, err := marshalPrefixes(u.Withdrawn)
	if err != nil {
		return nil, err
	}
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(wd)))
	body.Write(l[:])
	body.Write(wd)

	var attrs []byte
	if u.Attrs != nil {
		attrs, err = u.Attrs.marshalAttrs()
		if err != nil {
			return nil, err
		}
	} else if len(u.NLRI) > 0 {
		return nil, fmt.Errorf("%w: NLRI without path attributes", ErrBadMessage)
	}
	binary.BigEndian.PutUint16(l[:], uint16(len(attrs)))
	body.Write(l[:])
	body.Write(attrs)

	nlri, err := marshalPrefixes(u.NLRI)
	if err != nil {
		return nil, err
	}
	body.Write(nlri)
	if HeaderLen+body.Len() > MaxMessageLen {
		return nil, fmt.Errorf("%w: update %d bytes exceeds %d", ErrBadLength, HeaderLen+body.Len(), MaxMessageLen)
	}
	return frame(TypeUpdate, body.Bytes()), nil
}

// frame prepends the 19-byte common header.
func frame(msgType uint8, body []byte) []byte {
	out := make([]byte, HeaderLen+len(body))
	for i := 0; i < markerLen; i++ {
		out[i] = 0xFF
	}
	binary.BigEndian.PutUint16(out[16:18], uint16(len(out)))
	out[18] = msgType
	copy(out[HeaderLen:], body)
	return out
}

// marshalPrefixes encodes a prefix list in NLRI format.
func marshalPrefixes(prefixes []Prefix) ([]byte, error) {
	var b bytes.Buffer
	for _, p := range prefixes {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("%w: prefix %v is not IPv4", ErrBadMessage, p)
		}
		bits := p.Bits()
		b.WriteByte(uint8(bits))
		addr := p.Addr().As4()
		b.Write(addr[:(bits+7)/8])
	}
	return b.Bytes(), nil
}

// badEntry reports whether the first entry of a non-empty prefix list is
// invalid: longer than 32 bits, or cut short.
func badEntry(data []byte) bool {
	bits := int(data[0])
	return bits > 32 || len(data) < 1+(bits+7)/8
}

// entryErr is the error for the first entry of a prefix list that
// badEntry rejected.
func entryErr(data []byte) error {
	if bits := data[0]; bits > 32 {
		return fmt.Errorf("%w: prefix length %d", ErrBadMessage, bits)
	}
	return fmt.Errorf("%w: prefix bytes", ErrTruncated)
}

// countPrefixes validates an NLRI-format prefix list and counts its
// entries, so that decoders can allocate their output once at exact size —
// prefix lists dominate table-transfer parsing, and append-growing a slice
// of 4096-byte messages' worth of prefixes resized several times per
// message.
func countPrefixes(data []byte) (int, error) {
	count := 0
	for rest := data; len(rest) > 0; count++ {
		if badEntry(rest) {
			return 0, entryErr(rest)
		}
		rest = rest[1+(int(rest[0])+7)/8:]
	}
	return count, nil
}

// nextPrefix decodes the first entry of a prefix list, which badEntry
// accepted: its masked address (big-endian), its length, and the rest of
// the list.
func nextPrefix(data []byte) (addr uint32, bits int, rest []byte) {
	bits = int(data[0])
	nbytes := (bits + 7) / 8
	if len(data) >= 5 {
		// Read a whole word: the mask below clears whatever follows the
		// entry's own address bytes.
		addr = binary.BigEndian.Uint32(data[1:5])
	} else {
		// The list's tail: shift the entry's few bytes in one by one.
		for i, b := range data[1 : 1+nbytes] {
			addr |= uint32(b) << (24 - 8*i)
		}
	}
	// A shift by 32 yields 0 in Go, so /0 masks everything away.
	return addr & (^uint32(0) << (32 - bits)), bits, data[1+nbytes:]
}

// decodePrefixes decodes a validated prefix list of n entries.
func decodePrefixes(data []byte, n int) []Prefix {
	if n == 0 {
		return nil
	}
	out := make([]Prefix, 0, n)
	for len(data) > 0 {
		addr, bits, rest := nextPrefix(data)
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], addr)
		out = append(out, netip.PrefixFrom(netip.AddrFrom4(a), bits))
		data = rest
	}
	return out
}

// PrefixKey packs an IPv4 prefix into one word: its length in the high 32
// bits and its big-endian address in the low 32. Distinct prefixes get
// distinct keys, and a uint64 hashes several times faster than the 24-byte
// netip.Prefix, so prefix sets key on it. ScanMessage emits the keys of
// masked prefixes, as Parse decodes them.
func PrefixKey(p Prefix) uint64 {
	a := p.Addr().As4()
	return uint64(uint32(p.Bits()))<<32 | uint64(binary.BigEndian.Uint32(a[:]))
}

// appendPrefixKeys validates an NLRI-format prefix list as countPrefixes
// does and, in the same pass, appends the PrefixKey of each entry to keys.
// On error the keys appended before the bad entry stay past the caller's
// length, and the caller drops them.
func appendPrefixKeys(keys []uint64, data []byte) ([]uint64, error) {
	for len(data) > 0 {
		if badEntry(data) {
			return keys, entryErr(data)
		}
		addr, bits, rest := nextPrefix(data)
		keys = append(keys, uint64(uint32(bits))<<32|uint64(addr))
		data = rest
	}
	return keys, nil
}

// PrefixWireLen returns the NLRI encoding size of one prefix.
func PrefixWireLen(p Prefix) int { return 1 + (p.Bits()+7)/8 }

// Parse decodes one message from data, which must contain exactly one whole
// message (as produced by SplitStream or read from MRT).
func Parse(data []byte) (Message, error) {
	typ, body, err := checkMessage(data)
	if err != nil {
		return nil, err
	}
	switch typ {
	case TypeOpen:
		return &Open{
			Version:    body[0],
			AS:         binary.BigEndian.Uint16(body[1:3]),
			HoldTime:   binary.BigEndian.Uint16(body[3:5]),
			Identifier: netip.AddrFrom4([4]byte(body[5:9])),
		}, nil
	case TypeUpdate:
		u, err := parseUpdate(body)
		if err != nil {
			return nil, err
		}
		return u, nil
	case TypeNotification:
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	default:
		return &Keepalive{}, nil
	}
}

// checkMessage validates one whole message — header, and the body of every
// type but UPDATE, whose sections checkUpdate walks — and returns its type
// and body. Parse and ScanMessage both validate through it, so they accept
// and reject exactly the same bytes with the same errors.
func checkMessage(data []byte) (typ uint8, body []byte, err error) {
	if len(data) < HeaderLen {
		return 0, nil, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(data))
	}
	// The marker is 16 bytes of 0xFF: compare it as two words.
	if binary.LittleEndian.Uint64(data[0:8])&binary.LittleEndian.Uint64(data[8:16]) != ^uint64(0) {
		return 0, nil, ErrBadMarker
	}
	length := int(binary.BigEndian.Uint16(data[16:18]))
	if length < HeaderLen || length > MaxMessageLen {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if length != len(data) {
		return 0, nil, fmt.Errorf("%w: declared %d, have %d", ErrBadLength, length, len(data))
	}
	typ, body = data[18], data[HeaderLen:]
	switch typ {
	case TypeOpen:
		if len(body) < 10 {
			return 0, nil, fmt.Errorf("%w: OPEN body %d bytes", ErrTruncated, len(body))
		}
	case TypeUpdate:
	case TypeNotification:
		if len(body) < 2 {
			return 0, nil, fmt.Errorf("%w: notification body", ErrTruncated)
		}
	case TypeKeepalive:
		if len(body) != 0 {
			return 0, nil, fmt.Errorf("%w: keepalive with body", ErrBadMessage)
		}
	default:
		return 0, nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
	return typ, body, nil
}

// updateSections is an UPDATE body validated up to its NLRI: its
// withdrawn-routes prefix list with its entry count, whether it carried
// path attributes, and the NLRI prefix list, not yet validated.
type updateSections struct {
	withdrawn, nlri []byte
	nWithdrawn      int
	hasAttrs        bool
}

// checkUpdate validates an UPDATE body into s, in the order the fields
// appear, up to the NLRI. The path attributes are decoded into a when it
// is non-nil and only validated otherwise. The caller then walks the NLRI
// with countPrefixes's checks, counting it (Parse) or emitting its keys
// (ScanMessage), and ends with checkNLRI, so the first error is the same
// whichever path asks.
func checkUpdate(body []byte, a *PathAttrs, s *updateSections) error {
	if len(body) < 4 {
		return fmt.Errorf("%w: UPDATE body %d bytes", ErrTruncated, len(body))
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wdLen+2 > len(body) {
		return fmt.Errorf("%w: withdrawn length %d", ErrBadLength, wdLen)
	}
	var err error
	s.withdrawn = body[2 : 2+wdLen]
	if s.nWithdrawn, err = countPrefixes(s.withdrawn); err != nil {
		return err
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+attrLen > len(rest) {
		return fmt.Errorf("%w: attribute length %d", ErrBadLength, attrLen)
	}
	s.hasAttrs = attrLen > 0
	if s.hasAttrs {
		if err = parseAttrs(rest[2:2+attrLen], a); err != nil {
			return err
		}
	}
	s.nlri = rest[2+attrLen:]
	return nil
}

// checkNLRI is the last check of an UPDATE whose NLRI held n valid
// entries: announcements need path attributes.
func (s *updateSections) checkNLRI(n int) error {
	if n > 0 && !s.hasAttrs {
		return fmt.Errorf("%w: NLRI without path attributes", ErrBadMessage)
	}
	return nil
}

func parseUpdate(body []byte) (*Update, error) {
	// Allocate the Update and its PathAttrs as one block: a table transfer
	// parses millions of updates, the pair always lives and dies together,
	// and the second heap object was ~20% of the pipeline's allocations.
	box := &struct {
		u Update
		a PathAttrs
	}{}
	var s updateSections
	if err := checkUpdate(body, &box.a, &s); err != nil {
		return nil, err
	}
	nNLRI, err := countPrefixes(s.nlri)
	if err == nil {
		err = s.checkNLRI(nNLRI)
	}
	if err != nil {
		return nil, err
	}
	u := &box.u
	u.Withdrawn = decodePrefixes(s.withdrawn, s.nWithdrawn)
	if s.hasAttrs {
		u.Attrs = &box.a
	}
	u.NLRI = decodePrefixes(s.nlri, nNLRI)
	return u, nil
}

// parseAttrs validates a path-attribute block, decoding it into a when a is
// non-nil.
func parseAttrs(data []byte, a *PathAttrs) error {
	for len(data) > 0 {
		if len(data) < 3 {
			return fmt.Errorf("%w: attribute header", ErrTruncated)
		}
		flags, typ := data[0], data[1]
		var alen, hdr int
		if flags&0x10 != 0 { // extended length
			if len(data) < 4 {
				return fmt.Errorf("%w: extended attribute header", ErrTruncated)
			}
			alen, hdr = int(binary.BigEndian.Uint16(data[2:4])), 4
		} else {
			alen, hdr = int(data[2]), 3
		}
		if len(data) < hdr+alen {
			return fmt.Errorf("%w: attribute value (%d declared)", ErrTruncated, alen)
		}
		val := data[hdr : hdr+alen]
		data = data[hdr+alen:]
		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return fmt.Errorf("%w: ORIGIN length %d", ErrBadLength, alen)
			}
			if a != nil {
				a.Origin = val[0]
			}
		case AttrASPath:
			// Validate and count in one pass, then fill at exact size:
			// append-growing a 3–6 hop path from nil costs several small
			// allocations per update.
			count := 0
			for v := val; len(v) > 0; {
				if len(v) < 2 {
					return fmt.Errorf("%w: AS_PATH segment header", ErrTruncated)
				}
				segType, n := v[0], int(v[1])
				if len(v) < 2+2*n {
					return fmt.Errorf("%w: AS_PATH segment", ErrTruncated)
				}
				if segType != SegmentSequence && segType != SegmentSet {
					return fmt.Errorf("%w: AS_PATH segment type %d", ErrBadMessage, segType)
				}
				count += n
				v = v[2+2*n:]
			}
			if a == nil {
				continue
			}
			if a.ASPath == nil && count > 0 {
				a.ASPath = make([]uint16, 0, count)
			}
			for len(val) > 0 {
				n := int(val[1])
				for i := 0; i < n; i++ {
					a.ASPath = append(a.ASPath, binary.BigEndian.Uint16(val[2+2*i:4+2*i]))
				}
				val = val[2+2*n:]
			}
		case AttrNextHop:
			if alen != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadLength, alen)
			}
			if a != nil {
				a.NextHop = netip.AddrFrom4([4]byte(val))
			}
		case AttrMED:
			if alen != 4 {
				return fmt.Errorf("%w: MED length %d", ErrBadLength, alen)
			}
			if a != nil {
				a.MED, a.HasMED = binary.BigEndian.Uint32(val), true
			}
		case AttrLocalPref:
			if alen != 4 {
				return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadLength, alen)
			}
			if a != nil {
				a.LocalPref, a.HasLocal = binary.BigEndian.Uint32(val), true
			}
		default:
			// Unknown attributes are skipped (optional transitive pass-through).
		}
	}
	return nil
}

// frameLen returns the length of the whole message at the start of data,
// or 0 when only part of one is there. A length field outside the
// protocol's bounds is a framing error.
func frameLen(data []byte) (int, error) {
	if len(data) < HeaderLen {
		return 0, nil
	}
	length := int(binary.BigEndian.Uint16(data[16:18]))
	if length < HeaderLen || length > MaxMessageLen {
		return 0, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if len(data) < length {
		return 0, nil
	}
	return length, nil
}

// SplitStream splits a byte stream into whole BGP messages. It returns the
// parsed leading messages and the number of bytes consumed; a trailing
// partial message is left unconsumed for the caller to retry with more data.
// A framing error (bad marker/length) aborts the split.
func SplitStream(data []byte) (msgs []Message, consumed int, err error) {
	// Pre-walk the length fields to size the message slice exactly; the
	// walk stops where parsing would (short header, bad length, partial
	// trailing message), so the count is never an underestimate.
	count := 0
	for off := 0; ; count++ {
		n, err := frameLen(data[off:])
		if n == 0 || err != nil {
			break
		}
		off += n
	}
	if count > 0 {
		msgs = make([]Message, 0, count)
	}
	for {
		n, err := frameLen(data[consumed:])
		if n == 0 || err != nil {
			return msgs, consumed, err
		}
		m, err := Parse(data[consumed : consumed+n])
		if err != nil {
			return msgs, consumed, err
		}
		msgs = append(msgs, m)
		consumed += n
	}
}

// ScanMessage is Parse for callers that need only the announced prefixes,
// such as MCT over a collector archive. It validates msg with Parse's rules,
// so it fails exactly when Parse does, with the same error, but it builds
// no Message: for an UPDATE it appends the NLRI to keys as PrefixKeys of
// the masked prefixes, in the pass that validates them. The path
// attributes are validated and skipped. On error keys is returned
// unchanged: rolled back to its length on entry.
func ScanMessage(msg []byte, keys []uint64) ([]uint64, error) {
	typ, body, err := checkMessage(msg)
	if err != nil || typ != TypeUpdate {
		return keys, err
	}
	var s updateSections
	if err := checkUpdate(body, nil, &s); err != nil {
		return keys, err
	}
	out, err := appendPrefixKeys(keys, s.nlri)
	if err == nil {
		err = s.checkNLRI(len(out) - len(keys))
	}
	if err != nil {
		return keys, err
	}
	return out, nil
}

// ScanStream is SplitStream for callers that need only the announced
// prefixes, such as MCT's transfer-end estimate. It frames data the same
// way and checks every whole message with ScanMessage, so on any input it
// stops at the same place with the same error and counts the same messages
// — but it builds no Message. Instead it appends each UPDATE's NLRI to keys
// and, for each UPDATE that announced any, calls update with the stream
// offset just past the message and the new length of keys.
func ScanStream(data []byte, keys []uint64, update func(end, nkeys int)) (_ []uint64, msgs, consumed int, err error) {
	for {
		n, err := frameLen(data[consumed:])
		if n == 0 || err != nil {
			return keys, msgs, consumed, err
		}
		before := len(keys)
		if keys, err = ScanMessage(data[consumed:consumed+n], keys); err != nil {
			return keys, msgs, consumed, err
		}
		if len(keys) > before {
			update(consumed+n, len(keys))
		}
		msgs++
		consumed += n
	}
}

// Route is one routing-table entry: a prefix and its attribute set.
type Route struct {
	Prefix Prefix
	Attrs  *PathAttrs
}

// PackWithdrawals converts a prefix list into withdrawal-only UPDATE
// messages, each filled to the protocol's size limit — what a router emits
// when a failure invalidates routes before any re-announcement.
func PackWithdrawals(prefixes []Prefix) ([]*Update, error) {
	const base = HeaderLen + 2 + 2 // header + withdrawn len + attr len
	budget := MaxMessageLen - base
	var out []*Update
	var cur []Prefix
	curBytes := 0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, &Update{Withdrawn: cur})
			cur, curBytes = nil, 0
		}
	}
	for _, p := range prefixes {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("%w: prefix %v is not IPv4", ErrBadMessage, p)
		}
		w := PrefixWireLen(p)
		if curBytes+w > budget {
			flush()
		}
		cur = append(cur, p)
		curBytes += w
	}
	flush()
	return out, nil
}

// PackTable converts a routing table into a sequence of UPDATE messages,
// grouping prefixes by identical attribute sets and filling each message up
// to the 4096-byte limit — the way a router serializes a full-table
// transfer. Group order follows first appearance in the input, and prefix
// order within a group is preserved, so output is deterministic.
func PackTable(routes []Route) ([]*Update, error) {
	type group struct {
		attrs    *PathAttrs
		prefixes []Prefix
	}
	index := map[string]int{}
	var groups []*group
	for _, r := range routes {
		if r.Attrs == nil {
			return nil, fmt.Errorf("%w: route %v without attributes", ErrBadMessage, r.Prefix)
		}
		k := r.Attrs.Key()
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, &group{attrs: r.Attrs})
		}
		groups[gi].prefixes = append(groups[gi].prefixes, r.Prefix)
	}

	var out []*Update
	for _, g := range groups {
		attrBytes, err := g.attrs.marshalAttrs()
		if err != nil {
			return nil, err
		}
		// Fixed per-message overhead: header + withdrawn len + attr len + attrs.
		base := HeaderLen + 2 + 2 + len(attrBytes)
		budget := MaxMessageLen - base
		var cur []Prefix
		curBytes := 0
		flush := func() {
			if len(cur) > 0 {
				out = append(out, &Update{Attrs: g.attrs, NLRI: cur})
				cur, curBytes = nil, 0
			}
		}
		for _, p := range g.prefixes {
			w := PrefixWireLen(p)
			if curBytes+w > budget {
				flush()
			}
			cur = append(cur, p)
			curBytes += w
		}
		flush()
	}
	return out, nil
}
