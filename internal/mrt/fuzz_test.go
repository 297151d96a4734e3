package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"tdat/internal/bytepack"
)

// nextAll is the reference ReadAll is held to: a loop over Next, whose
// every Raw is a copy of its own.
func nextAll(data []byte) ([]Record, error) {
	rd := NewReader(bytes.NewReader(data))
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
// is one of the package's sentinels. Appending to any record's Raw must
// leave every other record's bytes as they were, although they share
// blocks.
func checkReadAll(tb testing.TB, data []byte) {
	tb.Helper()
	got, err := ReadAll(bytes.NewReader(data))
	want, wantErr := nextAll(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		tb.Fatalf("ReadAll error %v, Next error %v", err, wantErr)
	}
	if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) {
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
	}
}

// FuzzReader throws arbitrary bytes at the MRT reader: ReadAll must never
// panic and must agree with a loop over Next (see checkReadAll). CI runs
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

// TestReadAllBlocks runs checkReadAll over an archive that fills several
// record and message-byte blocks and holds a record too large for one
// block, whole and cut short at a few points.
func TestReadAllBlocks(t *testing.T) {
	var recs []Record
	for i := 0; i < 3*recordBlock; i++ {
		rec := sampleRecord(t, int64(i))
		rec.Raw = append(rec.Raw, bytes.Repeat([]byte{byte(i)}, i%300)...)
		recs = append(recs, rec)
	}
	big := sampleRecord(t, 1)
	big.Raw = bytes.Repeat([]byte{0x42}, bytepack.MinBlock+1)
	recs = append(recs[:recordBlock], append([]Record{big}, recs[recordBlock:]...)...)
	data := archive(t, recs...)
	checkReadAll(t, data)
	if got, err := ReadAll(bytes.NewReader(data)); err != nil || len(got) != len(recs) {
		t.Fatalf("read %d of %d records, err %v", len(got), len(recs), err)
	}
	for _, cut := range []int{1, 5, 12, bytepack.MinBlock / 2} {
		checkReadAll(t, data[:len(data)-cut])
	}
}

// TestNextRawOwned checks that Next's Raw is the caller's own: the next
// read does not overwrite it.
func TestNextRawOwned(t *testing.T) {
	a, b := sampleRecord(t, 1), sampleRecord(t, 2)
	b.Raw[len(b.Raw)-1] ^= 0xFF
	rd := NewReader(bytes.NewReader(archive(t, a, b)))
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
