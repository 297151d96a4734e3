package bgp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
)

// This file keeps the UPDATE validator as it was before checkUpdate, as
// the reference that FuzzUpdateReference holds checkUpdate, Parse,
// ScanMessage and ScanStream to: the same checks in the same order, each
// returning its error as it finds it, with the withdrawn routes and the
// NLRI each walked by their own functions. FuzzScanEquiv cannot stand in
// for it, because Parse and the scans share checkUpdate: a rule that
// changed there would change on both sides.

// refBadEntry reports whether the first entry of a non-empty prefix list is
// invalid: longer than 32 bits, or cut short.
func refBadEntry(data []byte) bool {
	bits := int(data[0])
	return bits > 32 || len(data) < 1+(bits+7)/8
}

// refEntryErr is the error for the first entry of a prefix list that
// refBadEntry rejected.
func refEntryErr(data []byte) error {
	if bits := data[0]; bits > 32 {
		return fmt.Errorf("%w: prefix length %d", ErrBadMessage, bits)
	}
	return fmt.Errorf("%w: prefix bytes", ErrTruncated)
}

// refCountPrefixes validates an NLRI-format prefix list and counts its
// entries, so that decoders can allocate their output once at exact size —
// prefix lists dominate table-transfer parsing, and append-growing a slice
// of 4096-byte messages' worth of prefixes resized several times per
// message.
func refCountPrefixes(data []byte) (int, error) {
	count := 0
	for rest := data; len(rest) > 0; count++ {
		if refBadEntry(rest) {
			return 0, refEntryErr(rest)
		}
		rest = rest[1+(int(rest[0])+7)/8:]
	}
	return count, nil
}

// refNextPrefix decodes the first entry of a prefix list, which refBadEntry
// accepted: its masked address (big-endian), its length, and the rest of
// the list.
func refNextPrefix(data []byte) (addr uint32, bits int, rest []byte) {
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

// refDecodePrefixes decodes a validated prefix list of n entries.
func refDecodePrefixes(data []byte, n int) []Prefix {
	if n == 0 {
		return nil
	}
	out := make([]Prefix, 0, n)
	for len(data) > 0 {
		addr, bits, rest := refNextPrefix(data)
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], addr)
		out = append(out, netip.PrefixFrom(netip.AddrFrom4(a), bits))
		data = rest
	}
	return out
}

// refAppendPrefixKeys validates an NLRI-format prefix list as refCountPrefixes
// does and, in the same pass, appends the PrefixKey of each entry to keys.
// On error the keys appended before the bad entry stay past the caller's
// length, and the caller drops them.
func refAppendPrefixKeys(keys []uint64, data []byte) ([]uint64, error) {
	for len(data) > 0 {
		if refBadEntry(data) {
			return keys, refEntryErr(data)
		}
		addr, bits, rest := refNextPrefix(data)
		keys = append(keys, uint64(uint32(bits))<<32|uint64(addr))
		data = rest
	}
	return keys, nil
}

// refSections is an UPDATE body validated up to its NLRI: its
// withdrawn-routes prefix list with its entry count, whether it carried
// path attributes, and the NLRI prefix list, not yet validated.
type refSections struct {
	withdrawn, nlri []byte
	nWithdrawn      int
	hasAttrs        bool
}

// refCheckUpdate validates an UPDATE body into s, in the order the fields
// appear, up to the NLRI. The path attributes are decoded into a when it
// is non-nil and only validated otherwise. The caller then walks the NLRI
// with refCountPrefixes's checks, counting it (Parse) or emitting its keys
// (ScanMessage), and ends with checkNLRI, so the first error is the same
// whichever path asks.
func refCheckUpdate(body []byte, a *PathAttrs, s *refSections) error {
	if len(body) < 4 {
		return fmt.Errorf("%w: UPDATE body %d bytes", ErrTruncated, len(body))
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wdLen+2 > len(body) {
		return fmt.Errorf("%w: withdrawn length %d", ErrBadLength, wdLen)
	}
	var err error
	s.withdrawn = body[2 : 2+wdLen]
	if s.nWithdrawn, err = refCountPrefixes(s.withdrawn); err != nil {
		return err
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+attrLen > len(rest) {
		return fmt.Errorf("%w: attribute length %d", ErrBadLength, attrLen)
	}
	s.hasAttrs = attrLen > 0
	if s.hasAttrs {
		if err = refParseAttrs(rest[2:2+attrLen], a); err != nil {
			return err
		}
	}
	s.nlri = rest[2+attrLen:]
	return nil
}

// checkNLRI is the last check of an UPDATE whose NLRI held n valid
// entries: announcements need path attributes.
func (s *refSections) checkNLRI(n int) error {
	if n > 0 && !s.hasAttrs {
		return fmt.Errorf("%w: NLRI without path attributes", ErrBadMessage)
	}
	return nil
}

func refParseUpdate(body []byte) (*Update, error) {
	// Allocate the Update and its PathAttrs as one block: a table transfer
	// parses millions of updates, the pair always lives and dies together,
	// and the second heap object was ~20% of the pipeline's allocations.
	box := &struct {
		u Update
		a PathAttrs
	}{}
	var s refSections
	if err := refCheckUpdate(body, &box.a, &s); err != nil {
		return nil, err
	}
	nNLRI, err := refCountPrefixes(s.nlri)
	if err == nil {
		err = s.checkNLRI(nNLRI)
	}
	if err != nil {
		return nil, err
	}
	u := &box.u
	u.Withdrawn = refDecodePrefixes(s.withdrawn, s.nWithdrawn)
	if s.hasAttrs {
		u.Attrs = &box.a
	}
	u.NLRI = refDecodePrefixes(s.nlri, nNLRI)
	return u, nil
}

// refParseAttrs validates a path-attribute block, decoding it into a when a is
// non-nil.
func refParseAttrs(data []byte, a *PathAttrs) error {
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

// refScanUpdate is the reference's scan of an UPDATE body, as ScanMessage
// made it: the checks up to the NLRI, the NLRI's keys appended to keys,
// then checkNLRI. On error keys is returned at its length on entry.
func refScanUpdate(body []byte, keys []uint64) ([]uint64, error) {
	var s refSections
	if err := refCheckUpdate(body, nil, &s); err != nil {
		return keys, err
	}
	out, err := refAppendPrefixKeys(keys, s.nlri)
	if err == nil {
		err = s.checkNLRI(len(out) - len(keys))
	}
	if err != nil {
		return keys, err
	}
	return out, nil
}

// checkUpdateReference holds the validator to the reference on one UPDATE
// body: the first len(buf)-tail bytes of buf, whose last tail bytes stay
// readable past it, as the next message's are to ScanStream. checkUpdate
// in both modes must accept and reject what the reference does, with the
// same error text and sentinel, the same keys (rolled back on error) and
// the same decoded Update; so must Parse, ScanMessage and ScanStream on
// the body framed as a message, when it fits in one.
func checkUpdateReference(tb testing.TB, buf []byte, tail int) {
	tb.Helper()
	buf = slices.Clip(buf)
	body := buf[:len(buf)-tail]
	wantKeys, scanErr := refScanUpdate(slices.Clip(body), []uint64{1})
	want, parseErr := refParseUpdate(slices.Clip(body))
	checkSameError(tb, "reference parse", parseErr, scanErr)

	keys, _, _, f := checkUpdate(body, nil, []uint64{1})
	checkSameError(tb, "reference", scanErr, f.err())
	if !slices.Equal(keys, wantKeys) {
		tb.Fatalf("checkUpdate keys %x, reference %x", keys, wantKeys)
	}
	u, f := parseUpdate(body)
	checkSameError(tb, "reference", parseErr, f.err())
	if parseErr == nil && !reflect.DeepEqual(u, want) {
		tb.Fatalf("parseUpdate %+v, reference %+v", u, want)
	}

	if HeaderLen+len(body) > MaxMessageLen {
		return
	}
	msg := frame(TypeUpdate, body)
	m, err := Parse(msg)
	checkSameError(tb, "reference", parseErr, err)
	if parseErr == nil && !reflect.DeepEqual(m, Message(want)) {
		tb.Fatalf("Parse %+v, reference %+v", m, want)
	}
	keys, err = ScanMessage(msg, []uint64{1})
	checkSameError(tb, "reference", scanErr, err)
	if !slices.Equal(keys, wantKeys) {
		tb.Fatalf("ScanMessage keys %x, reference %x", keys, wantKeys)
	}
	// The tail is shorter than a header, so the stream ends after msg.
	stream := append(msg, buf[len(body):]...)
	keys, msgs, consumed, err := ScanStream(stream, []uint64{1}, func(int, int) {})
	checkSameError(tb, "reference", scanErr, err)
	wantMsgs, wantConsumed := 0, 0
	if scanErr == nil {
		wantMsgs, wantConsumed = 1, len(msg)
	}
	if msgs != wantMsgs || consumed != wantConsumed || !slices.Equal(keys, wantKeys) {
		tb.Fatalf("ScanStream: %d messages, %d consumed, keys %x; want %d, %d, %x", msgs, consumed, keys, wantMsgs, wantConsumed, wantKeys)
	}
}

// FuzzUpdateReference is the differential target for the UPDATE validator:
// on any UPDATE body, checkUpdate, Parse, ScanMessage and ScanStream must
// agree with the reference in this file (see checkUpdateReference). The
// first byte, mod 8, is how many of the input's last bytes lie past the
// body in its buffer, where prefixKey's word reads may reach. It starts
// from every body of TestUpdateFaults, valid bodies with and without a
// tail, and tracegen-shaped UPDATEs. CI runs it for a short smoke window;
// run locally with
//
//	go test -run='^$' -fuzz=FuzzUpdateReference -fuzztime=30s ./internal/bgp
func FuzzUpdateReference(f *testing.F) {
	seed := func(tail byte, body []byte) { f.Add(append([]byte{tail}, body...)) }
	for _, tt := range updateFaultCases() {
		seed(0, tt.body)
		seed(3, append(tt.body, 0xFF, 0xFF, 0xFF))
	}
	good := goodUpdate(f)[HeaderLen:]
	seed(0, good)
	seed(4, append(good, 0xFF, 0xFF, 0xFF, 0xFF))
	ups, err := PackTable(tracegenTable(rand.New(rand.NewSource(2)), 40))
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range ups {
		wire, err := u.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		seed(7, append(wire[HeaderLen:], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := data[1:]
		checkUpdateReference(t, buf, min(int(data[0]%8), len(buf)))
	})
}
