package faults

import (
	"bytes"
	"testing"

	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/tracegen"
)

// baseRecords materializes a small genuine transfer once per test binary —
// the clean substrate every fault corrupts.
func baseRecords(t *testing.T) []pcapio.Record {
	t.Helper()
	trace := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 11, Routes: 400})
	var recs []pcapio.Record
	for _, c := range trace.Captures {
		frame, err := c.Pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, pcapio.Record{TimeMicros: c.Time, Data: frame})
	}
	if len(recs) < 20 {
		t.Fatalf("substrate too small: %d records", len(recs))
	}
	return recs
}

func TestApplyIsDeterministicAndPure(t *testing.T) {
	recs := baseRecords(t)
	before := Serialize(recs)
	chain := []Fault{
		FlipBytes(0.3, 2, RegionAny),
		DuplicateRecords(0.2),
		ReorderRecords(0.2, 3),
		ClockRegression(7, 1_000),
	}
	a := Serialize(Apply(42, recs, chain...))
	b := Serialize(Apply(42, recs, chain...))
	if !bytes.Equal(a, b) {
		t.Error("same seed and chain produced different bytes")
	}
	if c := Serialize(Apply(43, recs, chain...)); bytes.Equal(a, c) {
		t.Error("different seeds produced identical damage")
	}
	if after := Serialize(recs); !bytes.Equal(before, after) {
		t.Error("Apply mutated its input records")
	}
}

func TestSerializeRoundTrips(t *testing.T) {
	recs := baseRecords(t)
	got, err := pcapio.ReadAll(bytes.NewReader(Serialize(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round-tripped %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].TimeMicros != recs[i].TimeMicros || !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestSnapLenClipsButKeepsOrigLen(t *testing.T) {
	recs := Apply(1, baseRecords(t), SnapLen(40))
	for i, r := range recs {
		if len(r.Data) > 40 {
			t.Fatalf("record %d still carries %d bytes", i, len(r.Data))
		}
		if len(r.Data) == 40 && r.OrigLen <= 40 {
			t.Fatalf("record %d lost its original wire length", i)
		}
	}
}

func TestFlipBytesAimsAtRegion(t *testing.T) {
	recs := baseRecords(t)
	flipped := Apply(5, recs, FlipBytes(1, 1, RegionPayload))
	var orig packet.Packet
	for i := range recs {
		if err := packet.DecodeInto(recs[i].Data, &orig); err != nil || len(orig.Payload) == 0 {
			continue
		}
		headerLen := len(recs[i].Data) - len(orig.Payload)
		if !bytes.Equal(recs[i].Data[:headerLen], flipped[i].Data[:headerLen]) {
			t.Fatalf("record %d: payload-aimed flip hit the headers", i)
		}
	}
}

func TestCorruptBGPLengthBreaksFraming(t *testing.T) {
	recs := Apply(2, baseRecords(t), CorruptBGPLength(1))
	damaged := 0
	var p packet.Packet
	for _, r := range recs {
		if err := packet.DecodeInto(r.Data, &p); err != nil || len(p.Payload) < 19 {
			continue
		}
		if p.Payload[16] == 0xFF && p.Payload[17] == 0xF0 {
			damaged++
		}
	}
	if damaged == 0 {
		t.Error("no BGP length fields corrupted at frac=1")
	}
}

func TestClockRegressionStepsBack(t *testing.T) {
	recs := Apply(3, baseRecords(t), ClockRegression(5, 2_000))
	regressed := false
	for i := 1; i < len(recs); i++ {
		if recs[i].TimeMicros < recs[i-1].TimeMicros {
			regressed = true
			break
		}
	}
	if !regressed {
		t.Error("time axis stayed monotonic")
	}
}

func TestOrphanConnectionsDropsOneDirection(t *testing.T) {
	recs := Apply(4, baseRecords(t), OrphanConnections(1))
	srcs := map[string]bool{}
	var p packet.Packet
	for _, r := range recs {
		if err := packet.DecodeInto(r.Data, &p); err != nil {
			continue
		}
		srcs[p.IP.Src.String()] = true
	}
	if len(srcs) != 1 {
		t.Errorf("surviving directions = %v, want exactly one", srcs)
	}
}

func TestTruncateInRecordCutsMidRecord(t *testing.T) {
	recs := baseRecords(t)
	file := Serialize(recs)
	cut := TruncateInRecord(file, 3)
	if len(cut) >= len(file) {
		t.Fatal("truncation removed nothing")
	}
	got, err := pcapio.ReadAll(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("mid-record cut read cleanly")
	}
	if len(got) != 3 {
		t.Errorf("salvaged %d records before the cut, want 3", len(got))
	}
}
