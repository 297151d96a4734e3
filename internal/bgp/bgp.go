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
	"strings"
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

// A check is one validation step of the codec.
type check uint8

// The checks, in the order they run on one message: its header, the body
// of a type other than UPDATE, and an UPDATE body's fields in wire order
// (the prefix checks run on the withdrawn routes and again on the NLRI).
const (
	passed check = iota
	shortHeader
	badMarker
	badLength
	lengthMismatch
	shortOpen
	shortNotification
	keepaliveBody
	unknownType
	shortUpdate
	badWithdrawnLength
	badPrefixLength
	shortPrefix
	badAttrsLength
	shortAttrHeader
	shortExtAttrHeader
	shortAttrValue
	badOriginLength
	shortSegmentHeader
	shortSegment
	badSegmentType
	badNextHopLength
	badMEDLength
	badLocalPrefLength
	nlriWithoutAttrs
)

// faultText gives each check's error: the codec sentinel it wraps and the
// text that follows it, whose verbs print the fault's numbers in order. A
// check without text fails with the bare sentinel.
var faultText = [...]struct {
	sentinel error
	text     string
}{
	shortHeader:        {ErrTruncated, "%d header bytes"},
	badMarker:          {ErrBadMarker, ""},
	badLength:          {ErrBadLength, "%d"},
	lengthMismatch:     {ErrBadLength, "declared %d, have %d"},
	shortOpen:          {ErrTruncated, "OPEN body %d bytes"},
	shortNotification:  {ErrTruncated, "notification body"},
	keepaliveBody:      {ErrBadMessage, "keepalive with body"},
	unknownType:        {ErrBadType, "%d"},
	shortUpdate:        {ErrTruncated, "UPDATE body %d bytes"},
	badWithdrawnLength: {ErrBadLength, "withdrawn length %d"},
	badPrefixLength:    {ErrBadMessage, "prefix length %d"},
	shortPrefix:        {ErrTruncated, "prefix bytes"},
	badAttrsLength:     {ErrBadLength, "attribute length %d"},
	shortAttrHeader:    {ErrTruncated, "attribute header"},
	shortExtAttrHeader: {ErrTruncated, "extended attribute header"},
	shortAttrValue:     {ErrTruncated, "attribute value (%d declared)"},
	badOriginLength:    {ErrBadLength, "ORIGIN length %d"},
	shortSegmentHeader: {ErrTruncated, "AS_PATH segment header"},
	shortSegment:       {ErrTruncated, "AS_PATH segment"},
	badSegmentType:     {ErrBadMessage, "AS_PATH segment type %d"},
	badNextHopLength:   {ErrBadLength, "NEXT_HOP length %d"},
	badMEDLength:       {ErrBadLength, "MED length %d"},
	badLocalPrefLength: {ErrBadLength, "LOCAL_PREF length %d"},
	nlriWithoutAttrs:   {ErrBadMessage, "NLRI without path attributes"},
}

// A fault is what validating a message found: the check that failed, if
// one did, and the numbers its error reports. The validator returns
// faults, not errors, so the per-message path passes no interface and
// formats nothing; each exported function renders the fault once, as it
// returns, with err.
type fault struct {
	check check
	n, m  int
}

// err returns f as the codec's error, nil when every check passed.
func (f fault) err() error {
	if f.check == passed {
		return nil
	}
	return f.render()
}

// render is err for a fault that failed; kept apart so that err inlines.
func (f fault) render() error {
	t := faultText[f.check]
	if t.text == "" {
		return t.sentinel
	}
	args := []any{t.sentinel, f.n, f.m}
	return fmt.Errorf("%w: "+t.text, args[:1+strings.Count(t.text, "%d")]...)
}

// prefixList validates the NLRI-format prefix list p (withdrawn routes or
// NLRI) and counts its entries; when emit is set, it appends each entry's
// PrefixKey to keys in the same pass. On a fault, the keys of the entries
// before the bad one stay appended, for the caller to drop.
func prefixList(keys []uint64, p []byte, emit bool) ([]uint64, int, fault) {
	n := 0
	for ; len(p) > 0; n++ {
		bits := uint(p[0])
		if bits > 32 {
			return keys, n, fault{check: badPrefixLength, n: int(bits)}
		}
		size := 1 + (bits+7)/8
		if uint(len(p)) < size {
			return keys, n, fault{check: shortPrefix}
		}
		if emit {
			keys = append(keys, prefixKey(p))
		}
		p = p[size:]
	}
	return keys, n, fault{}
}

// prefixKey returns the PrefixKey of the valid prefix-list entry at the
// start of p, its address masked to its length. It reads the address as
// one big-endian word whenever four bytes follow the length byte within
// p's capacity, which the callers end where the buffer they were passed
// ends (for ScanStream, the rest of the stream), so only an entry at the
// very end of that buffer takes the byte loop. The mask clears whatever
// follows the entry's own address bytes.
func prefixKey(p []byte) uint64 {
	bits := uint(p[0])
	var addr uint32
	if cap(p) >= 5 {
		addr = binary.BigEndian.Uint32(p[1:5])
	} else {
		for i, b := range p[1 : 1+(bits+7)/8] {
			addr |= uint32(b) << (24 - 8*i)
		}
	}
	// A shift by 32 yields 0 in Go, so /0 masks everything away.
	return uint64(bits)<<32 | uint64(addr&(^uint32(0)<<(32-bits)))
}

// decodePrefixes decodes a validated prefix list of n entries.
func decodePrefixes(p []byte, n int) []Prefix {
	if n == 0 {
		return nil
	}
	out := make([]Prefix, n)
	for i := range out {
		k := prefixKey(p)
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(k))
		bits := int(k >> 32)
		out[i] = netip.PrefixFrom(netip.AddrFrom4(a), bits)
		p = p[1+(bits+7)/8:]
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

// PrefixWireLen returns the NLRI encoding size of one prefix.
func PrefixWireLen(p Prefix) int { return 1 + (p.Bits()+7)/8 }

// Parse decodes one message from data, which must contain exactly one whole
// message (as produced by SplitStream or read from MRT).
func Parse(data []byte) (Message, error) {
	typ, body, f := checkMessage(data)
	if f.check != passed {
		return nil, f.err()
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
		u, f := parseUpdate(body)
		if f.check != passed {
			return nil, f.err()
		}
		return u, nil
	case TypeNotification:
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	default:
		return &Keepalive{}, nil
	}
}

// markerOK reports whether a message's marker is 16 bytes of 0xFF,
// comparing it as two words.
func markerOK(msg []byte) bool {
	return binary.LittleEndian.Uint64(msg[0:8])&binary.LittleEndian.Uint64(msg[8:16]) == ^uint64(0)
}

// lengthField returns the message length a header declares, which must lie
// within the protocol's bounds.
func lengthField(hdr []byte) (int, fault) {
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	if length < HeaderLen || length > MaxMessageLen {
		return 0, fault{check: badLength, n: length}
	}
	return length, fault{}
}

// checkBody checks the body of a message of type typ, unless it is an
// UPDATE, whose body checkUpdate validates.
func checkBody(typ uint8, body []byte) fault {
	switch typ {
	case TypeOpen:
		if len(body) < 10 {
			return fault{check: shortOpen, n: len(body)}
		}
	case TypeUpdate:
	case TypeNotification:
		if len(body) < 2 {
			return fault{check: shortNotification}
		}
	case TypeKeepalive:
		if len(body) != 0 {
			return fault{check: keepaliveBody}
		}
	default:
		return fault{check: unknownType, n: int(typ)}
	}
	return fault{}
}

// checkMessage validates one whole message (its header, and the body of
// every type but UPDATE) and returns its type and its body, capped at the
// end of data. Parse and ScanMessage start with it; ScanStream, which
// frames its messages itself, makes the same checks inline.
func checkMessage(data []byte) (typ uint8, body []byte, f fault) {
	if len(data) < HeaderLen {
		return 0, nil, fault{check: shortHeader, n: len(data)}
	}
	if !markerOK(data) {
		return 0, nil, fault{check: badMarker}
	}
	length, f := lengthField(data)
	if f.check == passed && length != len(data) {
		f = fault{check: lengthMismatch, n: length, m: len(data)}
	}
	if f.check != passed {
		return 0, nil, f
	}
	typ, body = data[18], data[HeaderLen:len(data):len(data)]
	return typ, body, checkBody(typ, body)
}

// checkUpdate is the UPDATE validator of Parse, ScanMessage and ScanStream.
// It checks an UPDATE body's fields in the order they appear (withdrawn
// routes, path attributes, NLRI) and then that announcements carry path
// attributes, so every caller stops at the same check with the same fault,
// and it counts the entries of both prefix lists. Parse passes the
// PathAttrs to decode into and decodes the prefix lists afterwards; the
// scans pass nil, and the NLRI's PrefixKeys are appended to keys in the
// pass that validates them. On a fault, keys is returned at its length on
// entry.
//
// body's capacity must end where the buffer the caller was passed ends:
// prefixKey reads up to there.
func checkUpdate(body []byte, a *PathAttrs, keys []uint64) (_ []uint64, nWithdrawn, nNLRI int, f fault) {
	if len(body) < 4 {
		return keys, 0, 0, fault{check: shortUpdate, n: len(body)}
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wdLen+2 > len(body) {
		return keys, 0, 0, fault{check: badWithdrawnLength, n: wdLen}
	}
	if _, nWithdrawn, f = prefixList(nil, body[2:2+wdLen], false); f.check != passed {
		return keys, 0, 0, f
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+attrLen > len(rest) {
		return keys, 0, 0, fault{check: badAttrsLength, n: attrLen}
	}
	if f = parseAttrs(rest[2:2+attrLen], a); f.check != passed {
		return keys, 0, 0, f
	}
	start := len(keys)
	keys, nNLRI, f = prefixList(keys, rest[2+attrLen:], a == nil)
	if f.check == passed && nNLRI > 0 && attrLen == 0 {
		f = fault{check: nlriWithoutAttrs}
	}
	if f.check != passed {
		return keys[:start], 0, 0, f
	}
	return keys, nWithdrawn, nNLRI, f
}

func parseUpdate(body []byte) (*Update, fault) {
	// Allocate the Update and its PathAttrs as one block: a table transfer
	// parses millions of updates, the pair always lives and dies together,
	// and the second heap object was ~20% of the pipeline's allocations.
	box := &struct {
		u Update
		a PathAttrs
	}{}
	_, nWithdrawn, nNLRI, f := checkUpdate(body, &box.a, nil)
	if f.check != passed {
		return nil, f
	}
	// The body is valid, so its sections are where its length fields say.
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	attrLen := int(binary.BigEndian.Uint16(body[2+wdLen:]))
	u := &box.u
	u.Withdrawn = decodePrefixes(body[2:2+wdLen], nWithdrawn)
	if attrLen > 0 {
		u.Attrs = &box.a
	}
	u.NLRI = decodePrefixes(body[4+wdLen+attrLen:], nNLRI)
	return u, fault{}
}

// parseAttrs validates a path-attribute block, decoding it into a when a is
// non-nil.
func parseAttrs(data []byte, a *PathAttrs) fault {
	for len(data) > 0 {
		if len(data) < 3 {
			return fault{check: shortAttrHeader}
		}
		flags, typ := data[0], data[1]
		alen, hdr := int(data[2]), 3
		if flags&0x10 != 0 { // extended length
			if len(data) < 4 {
				return fault{check: shortExtAttrHeader}
			}
			alen, hdr = int(binary.BigEndian.Uint16(data[2:4])), 4
		}
		if len(data) < hdr+alen {
			return fault{check: shortAttrValue, n: alen}
		}
		val := data[hdr : hdr+alen]
		data = data[hdr+alen:]
		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return fault{check: badOriginLength, n: alen}
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
					return fault{check: shortSegmentHeader}
				}
				segType, n := v[0], int(v[1])
				if len(v) < 2+2*n {
					return fault{check: shortSegment}
				}
				if segType != SegmentSequence && segType != SegmentSet {
					return fault{check: badSegmentType, n: int(segType)}
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
				return fault{check: badNextHopLength, n: alen}
			}
			if a != nil {
				a.NextHop = netip.AddrFrom4([4]byte(val))
			}
		case AttrMED:
			if alen != 4 {
				return fault{check: badMEDLength, n: alen}
			}
			if a != nil {
				a.MED, a.HasMED = binary.BigEndian.Uint32(val), true
			}
		case AttrLocalPref:
			if alen != 4 {
				return fault{check: badLocalPrefLength, n: alen}
			}
			if a != nil {
				a.LocalPref, a.HasLocal = binary.BigEndian.Uint32(val), true
			}
		default:
			// Unknown attributes are skipped (optional transitive pass-through).
		}
	}
	return fault{}
}

// frameLen returns the length of the whole message at the start of data,
// or 0 when only part of one is there. A length field outside the
// protocol's bounds is a framing fault.
func frameLen(data []byte) (int, fault) {
	if len(data) < HeaderLen {
		return 0, fault{}
	}
	length, f := lengthField(data)
	if len(data) < length {
		length = 0
	}
	return length, f
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
		n, _ := frameLen(data[off:])
		if n == 0 {
			break
		}
		off += n
	}
	if count > 0 {
		msgs = make([]Message, 0, count)
	}
	for {
		n, f := frameLen(data[consumed:])
		if n == 0 {
			return msgs, consumed, f.err()
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
	typ, body, f := checkMessage(msg)
	if f.check == passed && typ == TypeUpdate {
		keys, _, _, f = checkUpdate(body, nil, keys)
	}
	return keys, f.err()
}

// ScanStream is SplitStream for callers that need only the announced
// prefixes, such as MCT's transfer-end estimate. It frames data the same
// way and checks every whole message with ScanMessage's rules, so on any
// input it stops at the same place with the same error and counts the
// same messages — but it builds no Message. Instead it appends each
// UPDATE's NLRI to keys and, for each UPDATE that announced any, calls
// update with the stream offset just past the message and the new length
// of keys.
func ScanStream(data []byte, keys []uint64, update func(end, nkeys int)) (_ []uint64, msgs, consumed int, err error) {
	// Each message is framed and header-checked in place, with checkMessage's
	// checks in its order; frameLen, markerOK and checkBody are small enough
	// to be inlined, so checkUpdate is the one call per UPDATE. A body runs
	// on to the end of data, so only the stream's last prefix takes
	// prefixKey's byte loop, and data is capped, so none reads past it.
	data = data[:len(data):len(data)]
	for {
		n, f := frameLen(data[consumed:])
		if n == 0 {
			return keys, msgs, consumed, f.err()
		}
		msg := data[consumed:]
		typ, body := msg[18], msg[HeaderLen:n]
		before := len(keys)
		switch {
		case !markerOK(msg):
			f = fault{check: badMarker}
		case typ != TypeUpdate:
			f = checkBody(typ, body)
		default:
			keys, _, _, f = checkUpdate(body, nil, keys)
		}
		if f.check != passed {
			return keys, msgs, consumed, f.err()
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
