package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"

	"tdat/internal/bgp"
)

func sampleRecord(t testing.TB, micros int64) Record {
	t.Helper()
	u := &bgp.Update{
		Attrs: &bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []uint16{7018, 16910},
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []bgp.Prefix{netip.MustParsePrefix("206.209.232.0/21")},
	}
	raw, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return Record{
		TimeMicros: micros,
		PeerAS:     7018,
		LocalAS:    65000,
		PeerIP:     netip.MustParseAddr("192.0.2.1"),
		LocalIP:    netip.MustParseAddr("192.0.2.2"),
		Raw:        raw,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		sampleRecord(t, 1_235_728_588_000_123),
		sampleRecord(t, 1_235_728_592_500_000),
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if got[i].TimeMicros != recs[i].TimeMicros {
			t.Errorf("record %d time = %d, want %d", i, got[i].TimeMicros, recs[i].TimeMicros)
		}
		if got[i].PeerAS != 7018 || got[i].PeerIP != recs[i].PeerIP || got[i].LocalIP != recs[i].LocalIP {
			t.Errorf("record %d metadata = %+v", i, got[i])
		}
		if !bytes.Equal(got[i].Raw, recs[i].Raw) {
			t.Errorf("record %d raw bytes differ", i)
		}
	}
}

func TestReaderSkipsUnknownTypes(t *testing.T) {
	var buf bytes.Buffer
	// Unknown record: type 99, 4-byte body.
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], 1)
	binary.BigEndian.PutUint16(hdr[4:6], 99)
	binary.BigEndian.PutUint16(hdr[6:8], 1)
	binary.BigEndian.PutUint32(hdr[8:12], 4)
	buf.Write(hdr[:])
	buf.Write([]byte{0, 0, 0, 0})
	// Then a real record.
	w := NewWriter(&buf)
	if err := w.Write(sampleRecord(t, 42_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 1 || got[0].TimeMicros != 42_000_000 {
		t.Errorf("got %d records err=%v", len(got), err)
	}
}

func TestReaderClassicBGP4MPSecondResolution(t *testing.T) {
	// Hand-build a classic (non-ET) BGP4MP record; microseconds are lost.
	rec := sampleRecord(t, 0)
	body := make([]byte, 16+len(rec.Raw))
	binary.BigEndian.PutUint16(body[0:2], rec.PeerAS)
	binary.BigEndian.PutUint16(body[2:4], rec.LocalAS)
	binary.BigEndian.PutUint16(body[6:8], 1)
	peer := rec.PeerIP.As4()
	local := rec.LocalIP.As4()
	copy(body[8:12], peer[:])
	copy(body[12:16], local[:])
	copy(body[16:], rec.Raw)
	var buf bytes.Buffer
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], 77)
	binary.BigEndian.PutUint16(hdr[4:6], TypeBGP4MP)
	binary.BigEndian.PutUint16(hdr[6:8], SubtypeMessage)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d err=%v", len(got), err)
	}
	if got[0].TimeMicros != 77_000_000 {
		t.Errorf("time = %d, want 77000000", got[0].TimeMicros)
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecord(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := ReadAll(bytes.NewReader(buf.Bytes()[:buf.Len()-3]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestWriterRejectsIPv6(t *testing.T) {
	rec := sampleRecord(t, 1)
	rec.PeerIP = netip.MustParseAddr("2001:db8::1")
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(rec); !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

// BenchmarkReadAll reads a 20k-record archive of small UPDATEs, the shape
// of a collector's table-transfer archive (about four prefixes a message).
//
//	go test -run='^$' -bench=BenchmarkReadAll -benchmem ./internal/mrt
func BenchmarkReadAll(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{7018, 16910}, NextHop: netip.MustParseAddr("10.0.0.1")}
	const records = 20_000
	for i := 0; i < records; i++ {
		u := &bgp.Update{Attrs: attrs}
		for j := 0; j < 1+i%8; j++ {
			u.NLRI = append(u.NLRI, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), byte(j)}), 32))
		}
		raw, err := u.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		rec := Record{
			TimeMicros: int64(i) * 1000, PeerAS: 7018, LocalAS: 65000,
			PeerIP: netip.AddrFrom4([4]byte{10, 2, 0, byte(i%32) + 1}), LocalIP: netip.MustParseAddr("10.0.0.2"),
			Raw: raw,
		}
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := ReadAll(bytes.NewReader(data))
		if err != nil || len(recs) != records {
			b.Fatalf("read %d records, err %v", len(recs), err)
		}
	}
}
