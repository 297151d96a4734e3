// Command gen (re)generates the committed adversarial trace corpus: small
// golden pcaps, each carrying one damage class a real sniffer capture can
// arrive with, plus fuzz seed inputs distilled from them. Run from the
// repository root:
//
//	go run ./internal/faults/gen
//
// Everything is derived from a fixed-seed simulator trace through the
// deterministic faults package, so regeneration is byte-stable: the output
// only changes when the generator (or a package it leans on) changes. The
// corpus is committed; tests read it from testdata and never regenerate.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"tdat/internal/faults"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/tracegen"
)

const (
	corpusDir     = "internal/pcapio/testdata/adversarial"
	pcapioFuzzDir = "internal/pcapio/testdata/fuzz/FuzzReader"
	bgpFuzzDir    = "internal/bgp/testdata/fuzz/FuzzParse"
	packetFuzzDir = "internal/packet/testdata/fuzz/FuzzDecode"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A small but genuine table transfer: real handshake, real BGP UPDATE
	// payloads, real FIN — the clean substrate every damage class corrupts.
	trace := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 3, Routes: 900})
	var recs []pcapio.Record
	for _, c := range trace.Captures {
		frame, err := c.Pkt.Marshal()
		if err != nil {
			return fmt.Errorf("marshaling capture frame: %w", err)
		}
		recs = append(recs, pcapio.Record{TimeMicros: c.Time, Data: frame})
	}
	clean := faults.Serialize(recs)

	// The five damage classes of the golden corpus (one file each).
	corpus := map[string][]byte{
		// The capture stopped ten bytes into the global header: a full disk
		// at the worst moment. The magic is intact, so this is recognizably
		// a pcap — just an empty one.
		"truncated_header.pcap": faults.TruncateFileAt(clean, 10),
		// The capture stopped mid-way through a record's bytes.
		"truncated_record.pcap": faults.TruncateInRecord(clean, len(recs)/2),
		// tcpdump -s snapping taken to its pathological limit: the header
		// declares snaplen 0 and every record carries zero captured bytes.
		"zero_snaplen.pcap": faults.RewriteSnapLen(
			faults.Serialize(faults.Apply(1, recs, faults.SnapLen(0))), 0),
		// BGP message headers lying about their length mid-transfer.
		"corrupt_bgp_length.pcap": faults.Serialize(
			faults.Apply(2, recs, faults.CorruptBGPLength(0.5))),
		// The sniffer clock stepping backwards during the capture.
		"clock_regression.pcap": faults.Serialize(
			faults.Apply(3, recs, faults.ClockRegression(10, 3_000_000))),
	}
	// Sorted order keeps the progress log byte-stable run to run.
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writeFile(filepath.Join(corpusDir, name), corpus[name]); err != nil {
			return err
		}
	}

	// Fuzz seeds: whole damaged files for the pcap reader…
	for i, name := range []string{"truncated_record.pcap", "zero_snaplen.pcap"} {
		if err := writeFuzzSeed(pcapioFuzzDir, fmt.Sprintf("adversarial-%d", i), corpus[name]); err != nil {
			return err
		}
	}
	// …BGP payload bytes with corrupt framing for the message parser…
	damaged := faults.Apply(2, recs, faults.CorruptBGPLength(0.5))
	seeded := 0
	var p packet.Packet
	for _, r := range damaged {
		if err := packet.DecodeInto(r.Data, &p); err != nil || len(p.Payload) < 19 {
			continue
		}
		if err := writeFuzzSeed(bgpFuzzDir, fmt.Sprintf("adversarial-%d", seeded), p.Payload); err != nil {
			return err
		}
		if seeded++; seeded == 4 {
			break
		}
	}
	// …and bit-flipped frames for the packet decoder.
	flipped := faults.Apply(4, recs, faults.FlipBytes(1, 4, faults.RegionIPHeader),
		faults.FlipBytes(1, 4, faults.RegionTCPHeader))
	for i := 0; i < 4 && i*7 < len(flipped); i++ {
		if err := writeFuzzSeed(packetFuzzDir, fmt.Sprintf("adversarial-%d", i), flipped[i*7].Data); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Printf("%s (%d bytes)\n", path, len(data))
	return os.WriteFile(path, data, 0o644)
}

// writeFuzzSeed writes one input in the go fuzz corpus file format.
func writeFuzzSeed(dir, name string, data []byte) error {
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	return writeFile(filepath.Join(dir, name), []byte(content))
}
