// Package faults deterministically corrupts packet captures — the
// adversarial counterpart of tracegen. Real sniffer captures (paper §III-A)
// arrive truncated mid-record, snapped, bit-flipped, duplicated, reordered,
// clock-jumped, and half-captured; the clean simulator traces never
// exercise any of that. This package wraps a record stream (or a serialized
// pcap byte stream) in composable, seedable corruptions so tests, the
// adversarial golden corpus, and fuzz seeds can state exactly which damage
// the analysis pipeline must survive.
//
// Two layers compose:
//
//   - Record faults (Fault) transform a decoded []pcapio.Record — clipping,
//     flipping, duplicating, reordering, clock damage, orphaned
//     half-connections. Apply chains them under one seed.
//   - File faults operate on serialized pcap bytes — truncation inside a
//     header or record, snap-length header rewrites — the damage that
//     breaks pcap framing itself.
//
// Everything is pure: inputs are deep-copied, so the same seed and fault
// chain always yields byte-identical output.
package faults

import (
	"encoding/binary"
	"math/rand"
	"net/netip"

	"tdat/internal/packet"
	"tdat/internal/pcapio"
)

// Fault is one composable record-stream corruption. It may mutate and/or
// reshape recs (which Apply has deep-copied) and returns the damaged
// stream. Faults draw all randomness from rnd so a chain is reproducible
// from its seed.
type Fault func(rnd *rand.Rand, recs []pcapio.Record) []pcapio.Record

// Apply deep-copies recs and runs the fault chain over it under one seeded
// RNG. The input is never modified.
func Apply(seed int64, recs []pcapio.Record, faults ...Fault) []pcapio.Record {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]pcapio.Record, len(recs))
	for i, r := range recs {
		out[i] = pcapio.Record{
			TimeMicros: r.TimeMicros,
			OrigLen:    r.OrigLen,
			Data:       append([]byte(nil), r.Data...),
		}
	}
	for _, f := range faults {
		out = f(rnd, out)
	}
	return out
}

// Serialize writes records to classic pcap bytes (little-endian, Ethernet),
// preserving snapped OrigLen, so file faults and golden corpus traces can
// be produced from a damaged record stream.
func Serialize(recs []pcapio.Record) []byte {
	var buf writerBuf
	w := pcapio.NewWriter(&buf)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			panic("faults: serialize: " + err.Error()) // in-memory writes cannot fail
		}
	}
	if err := w.Flush(); err != nil {
		panic("faults: serialize: " + err.Error())
	}
	return buf.b
}

// writerBuf is a minimal in-memory io.Writer.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// --- Record faults ---

// SnapLen clips every record's captured bytes to snap while keeping the
// original wire length — tcpdump's "-s" snapping, which truncates TCP
// payloads (and with tiny snap values, the headers themselves).
func SnapLen(snap int) Fault {
	return func(_ *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		for i := range recs {
			if len(recs[i].Data) > snap {
				if recs[i].OrigLen == 0 {
					recs[i].OrigLen = len(recs[i].Data)
				}
				recs[i].Data = recs[i].Data[:snap]
			}
		}
		return recs
	}
}

// Region selects where FlipBytes aims inside a frame.
type Region int

// Flip regions.
const (
	// RegionAny flips anywhere in the captured bytes.
	RegionAny Region = iota
	// RegionIPHeader flips inside the IPv4 header.
	RegionIPHeader
	// RegionTCPHeader flips inside the TCP header.
	RegionTCPHeader
	// RegionPayload flips inside the TCP payload (the BGP bytes).
	RegionPayload
)

// regionSpan locates region within a frame, falling back to the whole frame
// when the packet does not decode far enough to aim.
func regionSpan(frame []byte, region Region) (int, int) {
	lo, hi := 0, len(frame)
	if region == RegionAny || len(frame) == 0 {
		return lo, hi
	}
	var p packet.Packet
	if err := packet.DecodeInto(frame, &p); err != nil {
		return lo, hi
	}
	ipStart := packet.EthernetHeaderLen
	tcpStart := len(frame) - len(p.Payload) - 20 // ≥ data offset start; good enough to aim
	switch region {
	case RegionIPHeader:
		lo, hi = ipStart, ipStart+packet.IPv4HeaderLen
	case RegionTCPHeader:
		lo, hi = tcpStart, len(frame)-len(p.Payload)
	case RegionPayload:
		lo, hi = len(frame)-len(p.Payload), len(frame)
	}
	if lo < 0 || hi > len(frame) || lo >= hi {
		return 0, len(frame)
	}
	return lo, hi
}

// FlipBytes flips flips random bits inside region of each selected record
// (each record is hit independently with probability frac) — checksum
// garbage, damaged lengths, scrambled flags.
func FlipBytes(frac float64, flips int, region Region) Fault {
	return func(rnd *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		for i := range recs {
			if rnd.Float64() >= frac || len(recs[i].Data) == 0 {
				continue
			}
			lo, hi := regionSpan(recs[i].Data, region)
			for f := 0; f < flips; f++ {
				recs[i].Data[lo+rnd.Intn(hi-lo)] ^= byte(1 << rnd.Intn(8))
			}
		}
		return recs
	}
}

// CorruptBGPLength overwrites the 2-byte length field of the first BGP
// message header found in each selected record's payload with a value far
// beyond the 4096-byte protocol maximum, so stream framing meets a lying
// length mid-transfer.
func CorruptBGPLength(frac float64) Fault {
	return func(rnd *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		var p packet.Packet
		for i := range recs {
			if rnd.Float64() >= frac {
				continue
			}
			if err := packet.DecodeInto(recs[i].Data, &p); err != nil || len(p.Payload) < 19 {
				continue
			}
			// The payload starts at a message boundary for the first data
			// packet of a flight; damaging the bytes at the header's length
			// offset corrupts framing wherever the boundary actually falls.
			off := len(recs[i].Data) - len(p.Payload)
			binary.BigEndian.PutUint16(recs[i].Data[off+16:off+18], 0xFFF0)
		}
		return recs
	}
}

// DuplicateRecords re-delivers each selected record immediately after
// itself — the capture-side duplication a span port or a looped sniffer
// feed produces.
func DuplicateRecords(frac float64) Fault {
	return func(rnd *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		out := make([]pcapio.Record, 0, len(recs)+len(recs)/4)
		for _, r := range recs {
			out = append(out, r)
			if rnd.Float64() < frac {
				dup := r
				dup.Data = append([]byte(nil), r.Data...)
				out = append(out, dup)
			}
		}
		return out
	}
}

// ReorderRecords swaps each selected record with a neighbor up to maxDist
// positions ahead, leaving timestamps attached to their packets — so the
// stream is no longer in time order, the way merged multi-queue captures
// misorder.
func ReorderRecords(frac float64, maxDist int) Fault {
	if maxDist < 1 {
		maxDist = 1
	}
	return func(rnd *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		for i := range recs {
			if rnd.Float64() >= frac {
				continue
			}
			j := i + 1 + rnd.Intn(maxDist)
			if j < len(recs) {
				recs[i], recs[j] = recs[j], recs[i]
			}
		}
		return recs
	}
}

// ClockRegression steps the sniffer clock back by back microseconds at
// every k-th record (NTP step-backs during long captures), leaving all
// later timestamps shifted — the capture's time axis is no longer
// monotonic.
func ClockRegression(every int, back int64) Fault {
	if every < 1 {
		every = 1
	}
	return func(_ *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		var shift int64
		for i := range recs {
			if i > 0 && i%every == 0 {
				shift += back
			}
			recs[i].TimeMicros -= shift
		}
		return recs
	}
}

// ClockJump adds a single forward jump of jump microseconds starting at
// record index at — a suspended VM or a stepped clock mid-capture.
func ClockJump(at int, jump int64) Fault {
	return func(_ *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		for i := at; i >= 0 && i < len(recs); i++ {
			recs[i].TimeMicros += jump
		}
		return recs
	}
}

// OrphanConnections drops every record of one randomly chosen direction
// for each selected 4-tuple — the half-connections a unidirectional span
// or an asymmetric route leaves in a capture. Undecodable records pass
// through untouched.
func OrphanConnections(frac float64) Fault {
	type halfKey struct {
		a, b netip.AddrPort
	}
	return func(rnd *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		// Decide per canonical tuple, on first sight, whether to orphan it
		// and which direction survives.
		type verdict struct {
			orphan   bool
			keepFrom netip.AddrPort
		}
		seen := map[halfKey]verdict{}
		out := recs[:0]
		var p packet.Packet
		for _, r := range recs {
			if err := packet.DecodeInto(r.Data, &p); err != nil {
				out = append(out, r)
				continue
			}
			src := netip.AddrPortFrom(p.IP.Src, p.TCP.SrcPort)
			dst := netip.AddrPortFrom(p.IP.Dst, p.TCP.DstPort)
			k := halfKey{a: src, b: dst}
			if dst.Compare(src) < 0 {
				k = halfKey{a: dst, b: src}
			}
			v, ok := seen[k]
			if !ok {
				v.orphan = rnd.Float64() < frac
				v.keepFrom = k.a
				if rnd.Intn(2) == 0 {
					v.keepFrom = k.b
				}
				seen[k] = v
			}
			if v.orphan && src != v.keepFrom {
				continue
			}
			out = append(out, r)
		}
		return out
	}
}

// TruncateTail drops the trailing frac of the record stream — the capture
// stopped before the connections finished, so nothing past the cut (FINs
// included) was ever seen.
func TruncateTail(frac float64) Fault {
	return func(_ *rand.Rand, recs []pcapio.Record) []pcapio.Record {
		keep := int(float64(len(recs)) * (1 - frac))
		if keep < 0 {
			keep = 0
		}
		return recs[:keep]
	}
}

// --- File faults (serialized pcap bytes) ---

// TruncateFileAt cuts the serialized file after n bytes. Cutting inside the
// 24-byte global header yields the "truncated header" damage class;
// anywhere later, a capture that ends mid-record.
func TruncateFileAt(file []byte, n int) []byte {
	if n > len(file) {
		n = len(file)
	}
	return append([]byte(nil), file[:n]...)
}

// TruncateInRecord cuts the file mid-way through the data of record index
// (0-based), exactly the damage a full sniffer disk leaves. It panics if
// the file does not contain that record — corpus generation is the only
// caller and must hand it a healthy file.
func TruncateInRecord(file []byte, index int) []byte {
	off := 24
	for i := 0; ; i++ {
		if off+16 > len(file) {
			panic("faults: TruncateInRecord: record out of range")
		}
		capLen := int(binary.LittleEndian.Uint32(file[off+8 : off+12]))
		if i == index {
			return TruncateFileAt(file, off+16+capLen/2)
		}
		off += 16 + capLen
	}
}

// RewriteSnapLen overwrites the global header's snap length field — the
// zero-snaplen damage class pairs this with SnapLen(0)-clipped records.
func RewriteSnapLen(file []byte, snap uint32) []byte {
	out := append([]byte(nil), file...)
	if len(out) >= 24 {
		binary.LittleEndian.PutUint32(out[16:20], snap)
	}
	return out
}
