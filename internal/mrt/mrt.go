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
	"io/fs"
	"net/netip"
	"slices"
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

// reader decodes ReadAll's input. Records of types other than
// BGP4MP/BGP4MP_ET + BGP4MP_MESSAGE are skipped.
type reader struct {
	// buf and err are the input: the bytes not yet decoded, and the error
	// other than io.EOF that ended them, if any.
	buf []byte
	err error
}

// read returns a view of the next n bytes of the input. Short of n bytes
// it returns the error io.ReadFull would on a stream of the same bytes.
func (r *reader) read(n int) ([]byte, error) {
	if n <= len(r.buf) {
		b := r.buf[:n]
		r.buf = r.buf[n:]
		return b, nil
	}
	got := len(r.buf)
	r.buf = r.buf[got:]
	switch {
	case r.err != nil:
		return nil, r.err
	case got > 0:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, io.EOF
}

// next decodes the next BGP4MP_MESSAGE record into rec, with rec.Raw a
// view of the input's bytes, or returns io.EOF at a clean end. On error rec
// is left as it was.
func (r *reader) next(rec *Record) error {
	for {
		hdr, err := r.read(12)
		if err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return readErr("header", err)
		}
		sec := int64(binary.BigEndian.Uint32(hdr[0:4]))
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 1<<20 {
			return fmt.Errorf("%w: implausible length %d", ErrBadRecord, length)
		}
		body, err := r.read(int(length))
		if err != nil {
			return readErr("body", err)
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

// readErr reports a record whose header or body could not be read in
// full: as ErrTruncated when the input ended inside it, and otherwise as
// the reader's own error, wrapped so that callers can match it.
func readErr(part string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, part, err)
	}
	return fmt.Errorf("mrt: reading record %s: %w", part, err)
}

// minRead is ReadAll's first buffer size when it does not know the
// input's size, and the least it grows a full buffer by.
const minRead = 64 << 10

// ReadAll drains the reader. It returns the records read before a failure
// together with the error. The input is read
// once, into one buffer sized from the reader's Len or, for a regular
// file, its Stat, and decoded twice: once to count the records and their
// message bytes, then to copy those bytes into one block of exactly that
// size. Every record's Raw is a capped view into the block, so appending
// to one reallocates it and leaves the others intact; the records keep
// only their own message bytes alive, never the MRT headers or the
// records skipped. The result is allocated once, at exact size.
func ReadAll(r io.Reader) ([]Record, error) {
	rd := reader{}
	rd.buf, rd.err = readInput(r)
	input := rd.buf
	var (
		n, size int
		rec     Record
		err     error
	)
	for ; ; n++ {
		if err = rd.next(&rec); err != nil {
			break
		}
		size += len(rec.Raw)
	}
	if err == io.EOF {
		err = nil
	}
	if n == 0 {
		return nil, err
	}
	recs := make([]Record, n)
	block := make([]byte, 0, size)
	rd.buf = input
	for i := range recs {
		_ = rd.next(&recs[i]) // the first n records decoded above
		if raw := recs[i].Raw; len(raw) > 0 {
			block = append(block, raw...)
			recs[i].Raw = block[len(block)-len(raw) : len(block) : len(block)]
		} else {
			recs[i].Raw = nil // not an empty view of the block
		}
	}
	return recs, err
}

// readInput reads r to its end. It returns the bytes read and the error
// that stopped it, nil at io.EOF. The reader's Len, or a regular file's
// size, sizes the buffer, but only as a hint: the input is read to its
// end, however long, and a buffer that fills up grows geometrically, by at
// least minRead bytes at a time.
func readInput(r io.Reader) ([]byte, error) {
	size := minRead
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len() + 1 // one byte past the end, so the read that sees io.EOF needs no growth
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size()) + 1
		}
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), minRead))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
