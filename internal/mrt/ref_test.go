package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
)

// refReader is the streaming MRT reader ReadAll replaced, kept as the
// reference FuzzReader and TestReadAllSources hold ReadAll to. It decodes
// the input one record at a time through a bufio.Reader, reading each
// header and body into one scratch buffer, and copies every record's
// message bytes. Records of types other than BGP4MP/BGP4MP_ET +
// BGP4MP_MESSAGE are skipped.
type refReader struct {
	r *bufio.Reader
	// scratch holds the stream's last read, header or body; it keeps the
	// largest record read so far.
	scratch []byte
}

func newRefReader(r io.Reader) *refReader { return &refReader{r: bufio.NewReader(r)} }

// Next returns the next BGP4MP_MESSAGE record, or io.EOF at a clean end.
// The record's Raw is a copy the caller owns.
func (r *refReader) Next() (Record, error) {
	for {
		hdr, err := r.read(12)
		if err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			return Record{}, refReadErr("header", err)
		}
		sec := int64(binary.BigEndian.Uint32(hdr[0:4]))
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 1<<20 {
			return Record{}, fmt.Errorf("%w: implausible length %d", ErrBadRecord, length)
		}
		body, err := r.read(int(length))
		if err != nil {
			return Record{}, refReadErr("body", err)
		}
		isET := typ == TypeBGP4MPET
		if (typ != TypeBGP4MP && !isET) || sub != SubtypeMessage {
			continue // skip unknown record types
		}
		micros := sec * 1_000_000
		if isET {
			if len(body) < 4 {
				return Record{}, fmt.Errorf("%w: ET timestamp", ErrTruncated)
			}
			micros += int64(binary.BigEndian.Uint32(body[0:4]))
			body = body[4:]
		}
		if len(body) < 16 {
			return Record{}, fmt.Errorf("%w: BGP4MP body %d bytes", ErrTruncated, len(body))
		}
		if afi := binary.BigEndian.Uint16(body[6:8]); afi != 1 {
			continue // IPv4 only
		}
		return Record{
			TimeMicros: micros,
			PeerAS:     binary.BigEndian.Uint16(body[0:2]),
			LocalAS:    binary.BigEndian.Uint16(body[2:4]),
			PeerIP:     netip.AddrFrom4([4]byte(body[8:12])),
			LocalIP:    netip.AddrFrom4([4]byte(body[12:16])),
			Raw:        append([]byte(nil), body[16:]...),
		}, nil
	}
}

// read returns the next n bytes of the stream, read into the scratch
// buffer, with io.ReadFull's error when the stream ends short of them.
func (r *refReader) read(n int) ([]byte, error) {
	r.scratch = slices.Grow(r.scratch[:0], n)[:n]
	_, err := io.ReadFull(r.r, r.scratch)
	return r.scratch, err
}

// refReadErr reports a record whose header or body could not be read in
// full: as ErrTruncated when the stream ended inside it, and otherwise as
// the stream's own error, wrapped so that callers can match it.
func refReadErr(part string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, part, err)
	}
	return fmt.Errorf("mrt: reading record %s: %w", part, err)
}
