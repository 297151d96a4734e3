package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	packets := []Record{
		{TimeMicros: 1_500_000, Data: []byte{1, 2, 3}},
		{TimeMicros: 1_500_123, Data: []byte{4}},
		{TimeMicros: 2_000_000_000_000, Data: bytes.Repeat([]byte{0xAB}, 1500)},
	}
	for _, p := range packets {
		if err := w.WritePacket(p.TimeMicros, p.Data); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(packets) {
		t.Fatalf("read %d records, want %d", len(got), len(packets))
	}
	for i := range got {
		if got[i].TimeMicros != packets[i].TimeMicros {
			t.Errorf("record %d time = %d, want %d", i, got[i].TimeMicros, packets[i].TimeMicros)
		}
		if !bytes.Equal(got[i].Data, packets[i].Data) {
			t.Errorf("record %d data mismatch", i)
		}
		if got[i].OrigLen != len(packets[i].Data) {
			t.Errorf("record %d origLen = %d, want %d", i, got[i].OrigLen, len(packets[i].Data))
		}
	}
}

func TestEmptyCaptureIsValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 0 {
		t.Errorf("empty capture: records=%d err=%v", len(got), err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderRejectsShortHeader(t *testing.T) {
	// Short garbage is the wrong file, not a damaged capture.
	_, err := NewReader(bytes.NewReader(make([]byte, 10)))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("short garbage err = %v, want ErrBadMagic", err)
	}
	// A short header that starts with the pcap magic is a truncated capture.
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicLE)
	_, err = NewReader(bytes.NewReader(hdr[:10]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header err = %v, want ErrTruncated", err)
	}
	// Under four bytes nothing can be judged: treat as truncated.
	_, err = NewReader(bytes.NewReader(hdr[:2]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("2-byte file err = %v, want ErrTruncated", err)
	}
}

func TestReaderRejectsNonEthernet(t *testing.T) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicLE)
	binary.LittleEndian.PutUint32(hdr[20:24], 101) // raw IP
	_, err := NewReader(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrLinkType) {
		t.Errorf("err = %v, want ErrLinkType", err)
	}
}

func TestBigEndianInput(t *testing.T) {
	// Hand-build a big-endian file with a single 2-byte packet.
	var buf bytes.Buffer
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[0:4], magicLE) // written BE reads as swapped magic
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr[:])
	var rec [16]byte
	binary.BigEndian.PutUint32(rec[0:4], 7)  // sec
	binary.BigEndian.PutUint32(rec[4:8], 42) // usec
	binary.BigEndian.PutUint32(rec[8:12], 2)
	binary.BigEndian.PutUint32(rec[12:16], 2)
	buf.Write(rec[:])
	buf.Write([]byte{0xDE, 0xAD})

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 1 || got[0].TimeMicros != 7_000_042 || !bytes.Equal(got[0].Data, []byte{0xDE, 0xAD}) {
		t.Errorf("got %+v", got)
	}
}

func TestTruncatedRecordReported(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(1, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(2, []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the second record's data.
	chopped := buf.Bytes()[:buf.Len()-2]
	got, err := ReadAll(bytes.NewReader(chopped))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	if len(got) != 1 {
		t.Errorf("records before truncation = %d, want 1", len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: arbitrary timestamps and payload sizes survive a round trip
	// in order.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 1 + rnd.Intn(20)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []Record
		ts := int64(rnd.Intn(1_000_000_000))
		for i := 0; i < n; i++ {
			ts += int64(rnd.Intn(1_000_000))
			data := make([]byte, rnd.Intn(200))
			rnd.Read(data)
			want = append(want, Record{TimeMicros: ts, Data: data})
			if err := w.WritePacket(ts, data); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].TimeMicros != want[i].TimeMicros || !bytes.Equal(got[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadIntoEOFAtCleanEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(5, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.ReadInto(&rec); err != nil {
		t.Fatalf("first ReadInto: %v", err)
	}
	if err := r.ReadInto(&rec); err != io.EOF {
		t.Errorf("second ReadInto err = %v, want io.EOF", err)
	}
	if r.SnapLen() != DefaultSnapLen {
		t.Errorf("SnapLen = %d", r.SnapLen())
	}
}

// errWriter fails after n bytes to exercise writer error paths.
type errWriter struct{ room int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errors.New("disk full")
	}
	w.room -= len(p)
	return len(p), nil
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	// The writer buffers (bufio), so I/O failures surface at Flush — or
	// earlier once the buffer spills.
	w := NewWriter(&errWriter{room: 10})
	if err := w.WritePacket(1, []byte{1}); err != nil {
		// Acceptable: surfaced immediately.
		return
	}
	if err := w.Flush(); err == nil {
		t.Error("write error never surfaced")
	}
	// A large record spills the 4 KB bufio buffer mid-write.
	w2 := NewWriter(&errWriter{room: 24})
	err := w2.WritePacket(1, make([]byte, 10_000))
	if err == nil {
		err = w2.Flush()
	}
	if err == nil {
		t.Error("record error never surfaced")
	}
}

func TestImplausibleCaptureLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Append a record header claiming a gigantic capture length.
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[8:12], 0xFFFFFFF0)
	buf.Write(hdr[:])
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.ReadInto(&rec); !errors.Is(err, ErrCorrupt) {
		t.Errorf("implausible length: err = %v, want ErrCorrupt", err)
	}
}
