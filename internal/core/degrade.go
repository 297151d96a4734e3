// Degradation reporting: real sniffer captures arrive damaged — truncated
// mid-record by a full disk, snapped, bit-flipped, clock-stepped,
// half-captured. The lenient analysis path (the default) survives all of it
// and accounts for every concession here, per record and per connection, so
// an operator can judge whether the remaining analysis is trustworthy.
// Config.Strict turns each of these concessions into a fatal error instead.

package core

import (
	"errors"
	"fmt"
	"io"

	"tdat/internal/flows"
	"tdat/internal/obs"
)

// ErrStrict reports that strict mode refused degraded input. Use errors.Is
// to distinguish a strict refusal (the capture was damaged but analyzable)
// from a hard failure (not a pcap at all).
var ErrStrict = errors.New("core: strict mode: damaged capture")

// RecordIssue locates one pcap-level read failure (a truncated or corrupt
// record) in the input file.
type RecordIssue struct {
	// Index is the 0-based record index where reading failed.
	Index int64
	// Offset is the file byte offset of the damage.
	Offset int64
	// Err describes the failure.
	Err string
}

// ConnIssue records one per-connection concession of the lenient path.
type ConnIssue struct {
	// Conn is the connection 4-tuple ("sender->receiver").
	Conn string
	// Kind classifies the concession: "bgp-framing" (the recovered payload
	// stopped decoding as BGP) or "reassembly-cap" (the stream exceeded
	// Config.MaxReassemblyBytes and was truncated).
	Kind string
	// Detail is the human-readable specifics.
	Detail string
}

// Degradation is the structured account of everything the lenient analysis
// path skipped, evicted, or truncated while surviving a damaged capture.
// The zero value means the input was clean.
type Degradation struct {
	// UndecodableRecords counts records whose frames failed to decode as
	// Ethernet/IPv4/TCP (equal to Report.SkippedPackets).
	UndecodableRecords int
	// RecordErrors lists pcap-level read failures. Classic pcap has no
	// per-record resync point, so at most one is possible per file: the
	// record where reading stopped.
	RecordErrors []RecordIssue
	// TimestampRegressions counts packets whose capture timestamp went
	// backwards within a connection (stepped sniffer clock); analysis
	// re-sorts, but inter-arrival artifacts may remain.
	TimestampRegressions int64
	// EvictedConnections counts connections force-completed by the
	// demuxer's connection cap (flows.Options.MaxTracked) before their
	// traffic ended.
	EvictedConnections int
	// ResumedConnections counts connections whose later packets arrived
	// after an eviction and were analyzed as a separate partial connection.
	ResumedConnections int
	// ConnIssues lists per-connection reassembly concessions in connection
	// creation order.
	ConnIssues []ConnIssue
}

// Count totals the degradation events.
func (d *Degradation) Count() int {
	return d.UndecodableRecords + len(d.RecordErrors) + len(d.ConnIssues) +
		d.EvictedConnections + d.ResumedConnections + int(d.TimestampRegressions)
}

// Empty reports a clean run: nothing was skipped, evicted, or truncated.
func (d *Degradation) Empty() bool { return d.Count() == 0 }

// fromDemux folds the demuxer's tallies in.
func (d *Degradation) fromDemux(s flows.DemuxStats) {
	d.TimestampRegressions = s.TimestampRegressions
	d.EvictedConnections = s.Evicted
	d.ResumedConnections = s.Resumed
}

// addTransfer folds one analyzed connection's concessions in. Called from
// the ordered merge, so ConnIssues is deterministic at any worker count.
func (d *Degradation) addTransfer(t *TransferReport) {
	if t.ReassemblyError != "" {
		d.ConnIssues = append(d.ConnIssues, ConnIssue{
			Conn: connLabel(t.Conn), Kind: "bgp-framing", Detail: t.ReassemblyError,
		})
	}
	if t.ReassemblyTruncated > 0 {
		d.ConnIssues = append(d.ConnIssues, ConnIssue{
			Conn: connLabel(t.Conn), Kind: "reassembly-cap",
			Detail: fmt.Sprintf("%d recovered stream bytes beyond the byte cap left undecoded", t.ReassemblyTruncated),
		})
	}
}

// observe exports the tallies as metrics.
func (d *Degradation) observe(reg *obs.Registry) {
	reg.Counter("tdat_ingest_record_errors_total").Add(int64(len(d.RecordErrors)))
	framing, capped := 0, 0
	for _, ci := range d.ConnIssues {
		switch ci.Kind {
		case "bgp-framing":
			framing++
		case "reassembly-cap":
			capped++
		}
	}
	reg.Counter("tdat_reassembly_framing_errors_total").Add(int64(framing))
	reg.Counter("tdat_reassembly_capped_conns_total").Add(int64(capped))
}

// strictErr returns the ErrStrict-wrapped refusal for the first degradation
// event, or nil when the run was clean.
func (d *Degradation) strictErr() error {
	switch {
	case len(d.RecordErrors) > 0:
		r := d.RecordErrors[0]
		return fmt.Errorf("%w: record %d at byte %d: %s", ErrStrict, r.Index, r.Offset, r.Err)
	case d.UndecodableRecords > 0:
		return fmt.Errorf("%w: %d undecodable record(s)", ErrStrict, d.UndecodableRecords)
	case d.TimestampRegressions > 0:
		return fmt.Errorf("%w: capture timestamps regress (%d packet(s))", ErrStrict, d.TimestampRegressions)
	case d.EvictedConnections > 0:
		return fmt.Errorf("%w: connection cap evicted %d connection(s)", ErrStrict, d.EvictedConnections)
	case len(d.ConnIssues) > 0:
		ci := d.ConnIssues[0]
		return fmt.Errorf("%w: %s: %s: %s", ErrStrict, ci.Conn, ci.Kind, ci.Detail)
	}
	return nil
}

// WriteText renders the degradation report. Callers print it only when
// Empty is false, so clean-trace output stays byte-identical.
func (d *Degradation) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "degraded input: %d concession(s)\n", d.Count()); err != nil {
		return err
	}
	if d.UndecodableRecords > 0 {
		fmt.Fprintf(w, "  undecodable records skipped: %d\n", d.UndecodableRecords)
	}
	for _, r := range d.RecordErrors {
		fmt.Fprintf(w, "  pcap damage at record %d (byte %d): %s\n", r.Index, r.Offset, r.Err)
	}
	if d.TimestampRegressions > 0 {
		fmt.Fprintf(w, "  capture timestamps regressed on %d packet(s)\n", d.TimestampRegressions)
	}
	if d.EvictedConnections > 0 {
		fmt.Fprintf(w, "  connections force-completed by the connection cap: %d\n", d.EvictedConnections)
	}
	if d.ResumedConnections > 0 {
		fmt.Fprintf(w, "  connections resumed as partial after eviction: %d\n", d.ResumedConnections)
	}
	for _, ci := range d.ConnIssues {
		fmt.Fprintf(w, "  %s: %s: %s\n", ci.Conn, ci.Kind, ci.Detail)
	}
	return nil
}
