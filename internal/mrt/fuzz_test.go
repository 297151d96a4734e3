package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// nextAll is the reference ReadAll is held to: a loop over the streaming
// refReader's Next, whose every Raw is a copy of its own.
func nextAll(r io.Reader) ([]Record, error) {
	rd := newRefReader(r)
	var out []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// checkReadAll holds ReadAll to nextAll on one input: the same records,
// metadata and bytes, the same partial result and the same error, which
// is one of the package's sentinels or wraps the failing readers' errRead
// (see TestReadAllSources). Appending to any record's Raw must
// leave every other record's bytes as they were, although they share a
// block.
func checkReadAll(tb testing.TB, data []byte) {
	tb.Helper()
	checkReadAllFrom(tb, func() io.Reader { return bytes.NewReader(data) })
}

// checkReadAllFrom is checkReadAll over the reader open returns, opened
// once for each side.
func checkReadAllFrom(tb testing.TB, open func() io.Reader) {
	tb.Helper()
	got, err := ReadAll(open())
	want, wantErr := nextAll(open())
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		tb.Fatalf("ReadAll error %v, Next error %v", err, wantErr)
	}
	if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) && !errors.Is(err, errRead) {
		tb.Fatalf("untyped reader error: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("ReadAll read %d records %+v, Next %d records %+v", len(got), got, len(want), want)
	}
	for _, b := range []byte{0xAA, 0x55} {
		for i := range got {
			_ = append(got[i].Raw, b, b, b, b)
		}
		for i := range got {
			if !bytes.Equal(got[i].Raw, want[i].Raw) {
				tb.Fatalf("appending to a neighbour's Raw changed record %d: %x, want %x", i, got[i].Raw, want[i].Raw)
			}
		}
	}
}

// header is a 12-byte MRT record header.
func header(sec uint32, typ, sub uint16, length uint32) []byte {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], sec)
	binary.BigEndian.PutUint16(hdr[4:6], typ)
	binary.BigEndian.PutUint16(hdr[6:8], sub)
	binary.BigEndian.PutUint32(hdr[8:12], length)
	return hdr[:]
}

// archive writes recs with the package's Writer.
func archive(tb testing.TB, recs ...Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readerSeeds are FuzzReader's seeds: a valid archive, then one input per
// way the reader can stop or skip.
func readerSeeds(tb testing.TB) [][]byte {
	valid := archive(tb, sampleRecord(tb, 1_000_123), sampleRecord(tb, 2_500_000))
	ipv6 := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(ipv6[16+6:16+8], 2) // the first record's AFI
	empty := sampleRecord(tb, 3_000_000)
	empty.Raw = nil
	return [][]byte{
		valid,
		archive(tb, sampleRecord(tb, 1), empty), // a record with no message bytes
		valid[:7],                               // truncated header
		valid[:len(valid)-3],                    // truncated body
		append(header(1, TypeBGP4MP, SubtypeMessage, 1<<20+1), valid...), // implausible length
		append(header(1, TypeBGP4MPET, SubtypeMessage, 2), 0, 0),         // short ET timestamp
		ipv6, // non-IPv4 AFI
		append(append(header(1, 99, 1, 4), 0, 0, 0, 0), valid...), // unknown type
		header(1, TypeBGP4MPET, SubtypeMessage, 20),               // a header with no body bytes
		append(valid[:len(valid):len(valid)], valid[:5]...),       // a valid record, then a partial header
	}
}

// FuzzReader throws arbitrary bytes at the MRT reader: ReadAll must never
// panic and must agree with the streaming reference (see checkReadAll). CI runs
// it for a short smoke window; run locally with
//
//	go test -run='^$' -fuzz=FuzzReader -fuzztime=30s ./internal/mrt
func FuzzReader(f *testing.F) {
	for _, seed := range readerSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadAll(t, data)
	})
}

// bigArchive writes a few thousand records of varied size, larger than
// ReadAll's first read when it knows no size, with records it skips (an
// unknown type, a non-IPv4 AFI) between them, one record without message
// bytes and one larger than a bufio.Reader's buffer.
func bigArchive(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := 0; i < 1500; i++ {
		rec := sampleRecord(tb, int64(i))
		rec.Raw = append(rec.Raw, bytes.Repeat([]byte{byte(i)}, i%300)...)
		switch i {
		case 7:
			rec.Raw = nil
		case 500:
			rec.Raw = bytes.Repeat([]byte{0x42}, 5000)
		}
		one := archive(tb, rec)
		switch i % 97 {
		case 3:
			buf.Write(append(header(1, 99, 1, 4), 0, 0, 0, 0))
		case 5:
			binary.BigEndian.PutUint16(one[16+6:16+8], 2) // this record's AFI
		}
		buf.Write(one)
	}
	return buf.Bytes()
}

// TestReadAllBlocks checks that ReadAll's records keep only their own
// message bytes: every non-empty Raw starts where the one before it ends,
// in one block that holds no MRT header and no skipped record. It runs
// checkReadAll over the same archive, whole and cut short at a few points.
func TestReadAllBlocks(t *testing.T) {
	data := bigArchive(t)
	got, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for i, rec := range got {
		if len(rec.Raw) == 0 {
			continue
		}
		if prev != nil && reflect.ValueOf(rec.Raw).Pointer() != reflect.ValueOf(prev).Pointer()+uintptr(len(prev)) {
			t.Fatalf("record %d's message bytes do not follow the previous record's", i)
		}
		prev = rec.Raw
	}
	checkReadAll(t, data)
	for _, cut := range []int{1, 5, 12, len(data) / 2} {
		checkReadAll(t, data[:len(data)-cut])
	}
}

// errRead is the error the failing readers of TestReadAllSources return.
var errRead = errors.New("read failed")

// TestReadAllSources holds ReadAll to the reference over the inputs it
// reads differently from an in-memory reader: an *os.File, whose Stat
// sizes the buffer; readers with neither Len nor Stat, read through the
// growth path; and readers that return bytes and then fail with an error
// other than io.EOF, mid-header, mid-body and between records. A reader's
// own error must come back wrapped, and must not read as a truncated
// archive.
func TestReadAllSources(t *testing.T) {
	data := bigArchive(t)
	path := filepath.Join(t.TempDir(), "updates.mrt")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	one := len(archive(t, sampleRecord(t, 0)))
	failAt := func(n int) func() io.Reader {
		return func() io.Reader { return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(errRead)) }
	}
	for name, open := range map[string]func() io.Reader{
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
		"no size":        func() io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} },
		"one byte":       func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"data with EOF":  func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		"fail at start":  failAt(0),
		"fail at record": failAt(one), // the first record has no extra bytes
		"fail in header": failAt(one + 5),
		"fail in body":   failAt(one + 20),
	} {
		t.Run(name, func(t *testing.T) {
			checkReadAllFrom(t, open)
			got, err := ReadAll(open())
			failed := errors.Is(err, errRead)
			if failed != strings.HasPrefix(name, "fail") || !failed && err != nil {
				t.Fatalf("read %d records, err %v", len(got), err)
			}
			if errors.Is(err, ErrTruncated) {
				t.Fatalf("a reader's own error reads as a truncated archive: %v", err)
			}
		})
	}
}

// TestNextRawOwned checks that the reference's Raw is the caller's own:
// the next read does not overwrite it. checkReadAll compares ReadAll's
// records with the reference's after it has appended to them, and a
// reference whose records shared its scratch buffer would compare them all
// with the last record read.
func TestNextRawOwned(t *testing.T) {
	a, b := sampleRecord(t, 1), sampleRecord(t, 2)
	b.Raw[len(b.Raw)-1] ^= 0xFF
	rd := newRefReader(bytes.NewReader(archive(t, a, b)))
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Raw, a.Raw) {
		t.Errorf("first record's Raw changed after the next read: %x, want %x", first.Raw, a.Raw)
	}
}
