// Package mrt implements the subset of the MRT export format (RFC 6396)
// that BGP collectors such as Quagga use to archive received updates:
// BGP4MP/BGP4MP_MESSAGE records wrapping raw BGP messages, with one-second
// timestamps (the classic format the paper's MRT archives use) plus the
// microsecond BGP4MP_ET extension for lossless round-trips of simulator
// output.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"tdat/internal/bgp"
	"tdat/internal/bytepack"
)

// MRT type and subtype codes (RFC 6396).
const (
	TypeBGP4MP   = 16
	TypeBGP4MPET = 17 // extended timestamp (adds microseconds)

	SubtypeMessage = 1 // BGP4MP_MESSAGE, 2-byte AS numbers
)

// Errors returned by the codec.
var (
	ErrTruncated = errors.New("mrt: truncated record")
	ErrBadRecord = errors.New("mrt: malformed record")
)

// Record is one archived BGP message with collection metadata.
type Record struct {
	// TimeMicros is the collection timestamp in microseconds. Classic
	// BGP4MP records carry second resolution only; reading one yields a
	// timestamp rounded down to the second.
	TimeMicros int64
	PeerAS     uint16
	LocalAS    uint16
	PeerIP     netip.Addr
	LocalIP    netip.Addr
	// Raw is the full BGP message bytes (header included).
	Raw []byte
}

// Message parses the wrapped BGP message.
func (r *Record) Message() (bgp.Message, error) { return bgp.Parse(r.Raw) }

// Writer appends MRT records to a stream using BGP4MP_ET (microsecond)
// framing.
type Writer struct {
	w *bufio.Writer
}

// NewWriter creates a Writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	if !rec.PeerIP.Is4() || !rec.LocalIP.Is4() {
		return fmt.Errorf("%w: non-IPv4 peer addresses", ErrBadRecord)
	}
	// BGP4MP_MESSAGE body: peer AS(2) local AS(2) ifindex(2) AFI(2)
	// peer IP(4) local IP(4) message.
	body := make([]byte, 16+len(rec.Raw))
	binary.BigEndian.PutUint16(body[0:2], rec.PeerAS)
	binary.BigEndian.PutUint16(body[2:4], rec.LocalAS)
	binary.BigEndian.PutUint16(body[4:6], 0) // ifindex
	binary.BigEndian.PutUint16(body[6:8], 1) // AFI IPv4
	peer := rec.PeerIP.As4()
	local := rec.LocalIP.As4()
	copy(body[8:12], peer[:])
	copy(body[12:16], local[:])
	copy(body[16:], rec.Raw)

	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(rec.TimeMicros/1_000_000))
	binary.BigEndian.PutUint16(hdr[4:6], TypeBGP4MPET)
	binary.BigEndian.PutUint16(hdr[6:8], SubtypeMessage)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(4+len(body))) // + usec field
	binary.BigEndian.PutUint32(hdr[12:16], uint32(rec.TimeMicros%1_000_000))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("mrt: writing header: %w", err)
	}
	if _, err := w.w.Write(body); err != nil {
		return fmt.Errorf("mrt: writing body: %w", err)
	}
	return nil
}

// Flush writes buffered records through to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads MRT records. Records of types other than
// BGP4MP/BGP4MP_ET + BGP4MP_MESSAGE are skipped.
type Reader struct {
	r *bufio.Reader
	// hdr and body are the record scratch buffers. They live on the Reader
	// because a stack array passed to io.ReadFull escapes, costing one heap
	// allocation per record; body keeps the largest record read so far.
	hdr  [12]byte
	body []byte
}

// NewReader creates a Reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next returns the next BGP4MP_MESSAGE record, or io.EOF at a clean end.
// The record's Raw is a copy the caller owns.
func (r *Reader) Next() (Record, error) {
	var rec Record
	err := r.next(&rec)
	rec.Raw = append([]byte(nil), rec.Raw...)
	return rec, err
}

// next is Next into rec, with rec.Raw a view of the reader's body buffer,
// valid until the next read. On error rec is left as it was.
func (r *Reader) next(rec *Record) error {
	for {
		hdr := &r.hdr
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("%w: header: %v", ErrTruncated, err)
		}
		sec := int64(binary.BigEndian.Uint32(hdr[0:4]))
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 1<<20 {
			return fmt.Errorf("%w: implausible length %d", ErrBadRecord, length)
		}
		body := slices.Grow(r.body[:0], int(length))[:length]
		r.body = body
		if _, err := io.ReadFull(r.r, body); err != nil {
			return fmt.Errorf("%w: body: %v", ErrTruncated, err)
		}
		isET := typ == TypeBGP4MPET
		if (typ != TypeBGP4MP && !isET) || sub != SubtypeMessage {
			continue // skip unknown record types
		}
		micros := sec * 1_000_000
		if isET {
			if len(body) < 4 {
				return fmt.Errorf("%w: ET timestamp", ErrTruncated)
			}
			micros += int64(binary.BigEndian.Uint32(body[0:4]))
			body = body[4:]
		}
		if len(body) < 16 {
			return fmt.Errorf("%w: BGP4MP body %d bytes", ErrTruncated, len(body))
		}
		afi := binary.BigEndian.Uint16(body[6:8])
		if afi != 1 {
			continue // IPv4 only
		}
		rec.TimeMicros = micros
		rec.PeerAS = binary.BigEndian.Uint16(body[0:2])
		rec.LocalAS = binary.BigEndian.Uint16(body[2:4])
		rec.PeerIP = netip.AddrFrom4([4]byte(body[8:12]))
		rec.LocalIP = netip.AddrFrom4([4]byte(body[12:16]))
		rec.Raw = body[16:]
		return nil
	}
}

// recordBlock is how many records ReadAll gathers at a time.
const recordBlock = 512

// ReadAll drains the reader. It returns the records read before a failure
// together with the error. Every record's Raw is a capped view into a block
// of message bytes shared with its neighbours (bytepack): appending to one
// reallocates it and leaves the others intact. The result is allocated
// once, at exact size, from fixed-size blocks of records.
func ReadAll(r io.Reader) ([]Record, error) {
	rd := NewReader(r)
	var (
		full [][]Record // filled record blocks
		recs []Record   // the block being filled
		pack bytepack.Packer
	)
	for {
		if len(recs) == cap(recs) {
			if recs != nil {
				full = append(full, recs)
			}
			recs = make([]Record, 0, recordBlock)
		}
		rec := &recs[:len(recs)+1][len(recs)]
		if err := rd.next(rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			if len(full) == 0 && len(recs) == 0 {
				return nil, err
			}
			out := make([]Record, 0, len(full)*recordBlock+len(recs))
			for _, b := range full {
				out = append(out, b...)
			}
			return append(out, recs...), err
		}
		rec.Raw = pack.Copy(rec.Raw) // nil when empty, as Next returns it
		recs = recs[:len(recs)+1]
	}
}
