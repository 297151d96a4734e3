// Package pcapio reads and writes classic libpcap capture files
// (https://wiki.wireshark.org/Development/LibpcapFileFormat) with
// microsecond timestamps and the Ethernet link type, which is all the
// simulator emits and the analyzer consumes. Big- and little-endian files
// are both read; files are written little-endian.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic numbers for microsecond-resolution pcap files.
const (
	magicLE = 0xA1B2C3D4 // written by this package
	magicBE = 0xD4C3B2A1 // byte-swapped input
)

// LinkTypeEthernet is the DLT value for Ethernet frames.
const LinkTypeEthernet = 1

// DefaultSnapLen is the snapshot length written into file headers: whole
// packets are captured, as in the paper's tcpdump setup ("the whole packet,
// including the headers and data, is captured").
const DefaultSnapLen = 65535

// Errors returned by the reader.
var (
	ErrBadMagic  = errors.New("pcapio: not a pcap file")
	ErrTruncated = errors.New("pcapio: truncated file")
	ErrLinkType  = errors.New("pcapio: unsupported link type")
	ErrCorrupt   = errors.New("pcapio: corrupt record header")
)

// MaxSaneSnapLen bounds the snapshot length the reader will honor from a
// file header. Real captures use at most a few hundred KB; a corrupt header
// claiming a multi-gigabyte snap length must not let a single corrupt
// record header drive a matching allocation.
const MaxSaneSnapLen = 1 << 24

// RecordError locates a record-level read failure: which record (0-based)
// and at which byte offset of the file the damage begins. It wraps the
// underlying cause (ErrTruncated for short reads, ErrCorrupt for
// implausible record headers) so errors.Is keeps working, and gives the
// lenient analysis path the position it reports in the degradation report.
type RecordError struct {
	// Index is the 0-based index of the unreadable record.
	Index int64
	// Offset is the file byte offset where the record begins.
	Offset int64
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *RecordError) Error() string {
	return fmt.Sprintf("record %d at byte %d: %v", e.Index, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RecordError) Unwrap() error { return e.Err }

// Record is one captured packet: a timestamp in microseconds since the epoch
// and the captured bytes. OrigLen records the original wire length, which
// exceeds len(Data) only if the capture was truncated by a snap length.
type Record struct {
	TimeMicros int64
	OrigLen    int
	Data       []byte
}

// Writer writes pcap records to an underlying stream.
type Writer struct {
	w       *bufio.Writer
	snapLen int
	started bool
}

// NewWriter creates a Writer. The file header is emitted lazily on the first
// Write (or on Flush) so an unused writer leaves the stream untouched.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), snapLen: DefaultSnapLen}
}

func (w *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicLE)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w.snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one record. The packet is written in full (no
// snap-length truncation on output).
func (w *Writer) WritePacket(timeMicros int64, data []byte) error {
	return w.WriteRecord(Record{TimeMicros: timeMicros, Data: data})
}

// WriteRecord appends one record preserving its original wire length, so a
// snap-length-clipped capture (len(Data) < OrigLen) round-trips. An OrigLen
// of zero is taken to mean the record is unclipped.
func (w *Writer) WriteRecord(rec Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return fmt.Errorf("pcapio: writing file header: %w", err)
		}
		w.started = true
	}
	origLen := rec.OrigLen
	if origLen == 0 {
		origLen = len(rec.Data)
	}
	var hdr [16]byte
	sec := rec.TimeMicros / 1_000_000
	usec := rec.TimeMicros % 1_000_000
	if usec < 0 {
		sec--
		usec += 1_000_000
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(usec))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(rec.Data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(rec.Data); err != nil {
		return fmt.Errorf("pcapio: writing record data: %w", err)
	}
	return nil
}

// Flush writes any buffered data (and the file header, if no packet has been
// written yet, so that an empty capture is still a valid pcap file).
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader reads pcap records from an underlying stream. It counts the
// records and raw file bytes it has consumed, which is what progress
// reporting (records/sec, ETA from the byte fraction of a sized input)
// needs from the ingest stage.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	linkType uint32
	snapLen  uint32
	records  int64
	bytes    int64
	// hdr is the record-header scratch buffer. It lives on the Reader (not
	// the stack of readRecordHeader) because a stack array passed to
	// io.ReadFull escapes, costing one heap allocation per record — which
	// TestReadIntoAllocs pins to zero.
	hdr [16]byte
}

// NewReader parses the file header and returns a Reader positioned at the
// first record. The magic number is checked before completeness, so a
// truncated-but-genuine pcap header reports ErrTruncated (recoverable
// damage: the lenient analysis path degrades to an empty capture) while
// non-pcap bytes report ErrBadMagic (the wrong file, a hard error).
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	n, err := io.ReadFull(br, hdr[:])
	if err != nil && n < 4 {
		return nil, fmt.Errorf("%w: file header: %v", ErrTruncated, err)
	}
	var order binary.ByteOrder
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicLE:
		order = binary.LittleEndian
	case magicBE:
		order = binary.BigEndian
	default:
		return nil, fmt.Errorf("%w: magic 0x%08x", ErrBadMagic, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: file header: %d of 24 bytes", ErrTruncated, n)
	}
	rd := &Reader{
		r:        br,
		order:    order,
		snapLen:  order.Uint32(hdr[16:20]),
		linkType: order.Uint32(hdr[20:24]),
	}
	if rd.linkType != LinkTypeEthernet {
		return nil, fmt.Errorf("%w: %d", ErrLinkType, rd.linkType)
	}
	rd.bytes = int64(len(hdr))
	return rd, nil
}

// SnapLen returns the snapshot length declared in the file header.
func (r *Reader) SnapLen() int { return int(r.snapLen) }

// RecordsRead returns the number of complete records consumed so far.
func (r *Reader) RecordsRead() int64 { return r.records }

// BytesRead returns the raw file bytes consumed so far (header plus every
// complete record) — an exact file offset for progress/ETA computation.
func (r *Reader) BytesRead() int64 { return r.bytes }

// ReadInto reads the next record into rec, reusing rec.Data's backing array
// (growing it only when a record exceeds its capacity). After the first few
// records the loop performs zero allocations (enforced by
// TestReadIntoAllocs and the CI bench gate), which is what lets the ingest
// hot path chew through fleet-sized corpora without per-record garbage.
//
// Buffer ownership: rec.Data is owned by the caller and overwritten by the
// next ReadInto — downstream layers must copy whatever bytes they keep
// (packet.DecodeInto documents the same rule for its field views).
//
// io.EOF marks a clean end of file. Damage is reported as a *RecordError
// locating the unreadable record: a file that ends mid-record wraps
// ErrTruncated (callers treat it as the paper treats tcpdump drop gaps —
// the trailing partial data is excluded), and a record header claiming an
// implausible capture length wraps ErrCorrupt (pcap framing has no resync
// point, so reading cannot continue past it).
func (r *Reader) ReadInto(rec *Record) error {
	capLen, origLen, tm, err := r.readRecordHeader()
	if err != nil {
		return err
	}
	n := int(capLen)
	buf := rec.Data[:0]
	// Read in bounded steps, growing the buffer only past its capacity: a
	// lying header over a short file must not force a huge up-front
	// allocation, and a record cut short reports the same error whatever
	// the buffer held before. Once the buffer fits, a record of up to
	// 64 KiB is one read and no allocation.
	const chunk = 1 << 16
	for len(buf) < n {
		off := len(buf)
		step := min(n-off, chunk)
		if cap(buf) >= off+step {
			buf = buf[:off+step]
		} else {
			buf = append(buf, make([]byte, step)...)
		}
		if _, err := io.ReadFull(r.r, buf[off:]); err != nil {
			rec.Data = buf[:0]
			return r.recordErr(fmt.Errorf("%w: record data: %v", ErrTruncated, err))
		}
	}
	r.records++
	r.bytes += 16 + int64(capLen)
	rec.TimeMicros = tm
	rec.OrigLen = int(origLen)
	rec.Data = buf
	return nil
}

// readRecordHeader parses the next 16-byte record header, applying the
// corrupt-length clamp.
func (r *Reader) readRecordHeader() (capLen, origLen uint32, timeMicros int64, err error) {
	hdr := &r.hdr
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, 0, io.EOF
		}
		return 0, 0, 0, r.recordErr(fmt.Errorf("%w: record header: %v", ErrTruncated, err))
	}
	sec := int64(r.order.Uint32(hdr[0:4]))
	usec := int64(r.order.Uint32(hdr[4:8]))
	capLen = r.order.Uint32(hdr[8:12])
	origLen = r.order.Uint32(hdr[12:16])
	// Sanity bound against corrupt headers: no honest record exceeds the
	// declared snap length (plus slack for writers that set it low), and no
	// snap length is gigabytes — without the clamp a single flipped bit in
	// a record header could demand a multi-GB allocation.
	bound := r.snapLen
	if bound > MaxSaneSnapLen {
		bound = MaxSaneSnapLen
	}
	if capLen > bound+65535 {
		return 0, 0, 0, r.recordErr(fmt.Errorf("%w: implausible capture length %d", ErrCorrupt, capLen))
	}
	return capLen, origLen, sec*1_000_000 + usec, nil
}

// recordErr wraps a record-level failure with its position.
func (r *Reader) recordErr(err error) error {
	return &RecordError{Index: r.records, Offset: r.bytes, Err: err}
}

// EachInto streams every record in r through fn without buffering the file
// — the ingest stage of the analysis pipeline, where downstream work starts
// while the trace is still being read. Every record arrives in one Record
// whose Data buffer is recycled between calls (ReadInto), so a whole-file
// scan performs no per-record allocation; fn must not retain rec.Data (or
// any packet.DecodeInto view into it) past its return — layers that keep
// bytes copy them (the flows demuxer's payload blocks). Iteration stops at
// the first fn error (returned verbatim). A trailing truncated record is
// reported like a tcpdump drop gap: fn has already seen every complete
// record and EachInto returns the *RecordError wrapping ErrTruncated.
func (r *Reader) EachInto(fn func(Record) error) error {
	var rec Record
	for {
		err := r.ReadInto(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// ReadAll reads every record of r into a slice, each with a copy of its
// data. Trailing damage is reported alongside the records read before it.
func ReadAll(r io.Reader) ([]Record, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var (
		out []Record
		rec Record
	)
	for {
		if err := rd.ReadInto(&rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			return out, err
		}
		out = append(out, Record{TimeMicros: rec.TimeMicros, OrigLen: rec.OrigLen, Data: append([]byte{}, rec.Data...)})
	}
}
