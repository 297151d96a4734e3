package pcapio

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// writeTestCapture builds an in-memory capture of n records with varied
// sizes (including empty records) and returns the file bytes plus the
// records as written.
func writeTestCapture(t testing.TB, n int) ([]byte, []Record) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []Record
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, (i*37)%256)
		rec := Record{TimeMicros: int64(1_000_000 + i), Data: data}
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
		rec.OrigLen = len(data)
		want = append(want, rec)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestReadIntoMatchesWritten proves the reused-buffer mode yields exactly
// the records the writer wrote, record for record.
func TestReadIntoMatchesWritten(t *testing.T) {
	file, want := writeTestCapture(t, 64)
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	for i := range want {
		if err := r.ReadInto(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.TimeMicros != want[i].TimeMicros || rec.OrigLen != want[i].OrigLen ||
			!bytes.Equal(rec.Data, want[i].Data) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, rec, want[i])
		}
	}
	if err := r.ReadInto(&rec); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
	if r.RecordsRead() != int64(len(want)) || r.BytesRead() != int64(len(file)) {
		t.Fatalf("counters: records %d bytes %d, want %d/%d",
			r.RecordsRead(), r.BytesRead(), len(want), len(file))
	}
}

// TestEachIntoMatchesWritten streams a capture whole, cut inside its last
// record's data and cut inside its last record's header, through EachInto
// and ReadAll: both must yield the records the writer wrote before the
// cut, and report the cut as a RecordError locating the last record.
func TestEachIntoMatchesWritten(t *testing.T) {
	file, want := writeTestCapture(t, 48)
	last := len(want) - 1
	lastStart := int64(len(file) - 16 - len(want[last].Data))
	for _, cut := range []int{0, 3, len(want[last].Data) + 9} { // clean, mid-data, mid-header
		in := file[:len(file)-cut]
		r, err := NewReader(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Record
		eachErr := r.EachInto(func(rec Record) error {
			streamed = append(streamed, Record{TimeMicros: rec.TimeMicros, OrigLen: rec.OrigLen,
				Data: append([]byte(nil), rec.Data...)})
			return nil
		})
		all, allErr := ReadAll(bytes.NewReader(in))
		wantRecs := want
		if cut > 0 {
			wantRecs = want[:last]
			var re *RecordError
			if !errors.As(eachErr, &re) || !errors.Is(eachErr, ErrTruncated) ||
				re.Index != int64(last) || re.Offset != lastStart {
				t.Fatalf("cut %d: EachInto err %v, want ErrTruncated at record %d byte %d", cut, eachErr, last, lastStart)
			}
		} else if eachErr != nil {
			t.Fatalf("cut %d: EachInto err %v", cut, eachErr)
		}
		if (allErr == nil) != (eachErr == nil) || (allErr != nil && allErr.Error() != eachErr.Error()) {
			t.Fatalf("cut %d: ReadAll err %v, EachInto err %v", cut, allErr, eachErr)
		}
		for name, got := range map[string][]Record{"EachInto": streamed, "ReadAll": all} {
			if len(got) != len(wantRecs) {
				t.Fatalf("cut %d: %s read %d records, want %d", cut, name, len(got), len(wantRecs))
			}
			for i := range got {
				if got[i].TimeMicros != wantRecs[i].TimeMicros || got[i].OrigLen != wantRecs[i].OrigLen ||
					!bytes.Equal(got[i].Data, wantRecs[i].Data) {
					t.Fatalf("cut %d: %s record %d mismatch", cut, name, i)
				}
			}
		}
	}
}

// TestReadIntoTruncatedData checks that a record cut mid-data reports a
// positioned RecordError wrapping ErrTruncated.
func TestReadIntoTruncatedData(t *testing.T) {
	file, _ := writeTestCapture(t, 4)
	r, err := NewReader(bytes.NewReader(file[:len(file)-2]))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	var last error
	for {
		if last = r.ReadInto(&rec); last != nil {
			break
		}
	}
	if !errors.Is(last, ErrTruncated) {
		t.Fatalf("error %v, want ErrTruncated", last)
	}
	var re *RecordError
	if !errors.As(last, &re) {
		t.Fatalf("error %T lacks record position", last)
	}
}

// TestCutRecordErrorIgnoresBuffer cuts a record of more than 64 KiB
// exactly 64 KiB into its data: the error must not depend on whether the
// buffer ReadInto reuses already held a record that large, and ReadAll,
// which reuses one, reports the same error.
func TestCutRecordErrorIgnoresBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(1); i <= 2; i++ {
		if err := w.WritePacket(i, make([]byte, 70_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	cut := file[:len(file)-70_000+1<<16]
	secondErr := func(reuse bool) error {
		r, err := NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		var first, second Record
		if err := r.ReadInto(&first); err != nil {
			t.Fatal(err)
		}
		if reuse {
			return r.ReadInto(&first)
		}
		return r.ReadInto(&second)
	}
	fresh, reused := secondErr(false), secondErr(true)
	if !errors.Is(fresh, ErrTruncated) || reused == nil || fresh.Error() != reused.Error() {
		t.Fatalf("fresh buffer: %v; reused buffer: %v", fresh, reused)
	}
	if _, err := ReadAll(bytes.NewReader(cut)); err == nil || err.Error() != fresh.Error() {
		t.Fatalf("ReadAll: %v, want %v", err, fresh)
	}
}

// TestReadIntoAllocs is the local allocation-regression gate for the ingest
// loop: once the record buffer has grown to the capture's largest record,
// reading must allocate nothing. benchcheck.sh enforces the same floor in
// CI; this fails plain `go test` first.
func TestReadIntoAllocs(t *testing.T) {
	file, _ := writeTestCapture(t, 2100)
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	for i := 0; i < 64; i++ { // warm the buffer past the largest record
		if err := r.ReadInto(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(2000, func() {
		if err := r.ReadInto(&rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadInto allocates %.1f times per record, want 0", n)
	}
}

// BenchmarkReadInto is the reused-buffer record-loop microbenchmark the CI
// perf gate parses; scripts/benchfloor.txt pins its allocs/op to 0.
func BenchmarkReadInto(b *testing.B) {
	file, _ := writeTestCapture(b, 1000)
	body := file[24:] // replayable record stream past the file header
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		b.Fatal(err)
	}
	src := &loopReader{body: body}
	r.r.Reset(src)
	var rec Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReadInto(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader replays a record stream forever, so a benchmark can read an
// unbounded number of records from a fixed capture.
type loopReader struct {
	body []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.body) {
		l.off = 0
	}
	n := copy(p, l.body[l.off:])
	l.off += n
	return n, nil
}
