// Package core is the T-DAT facade: it wires the full analysis pipeline —
// pcap decoding, connection extraction (flows), sniffer-location ACK
// shifting, event-series generation, delay-factor classification, and the
// known-problem detectors — behind one Analyzer type (paper Fig 10).
package core

import (
	"io"

	"tdat/internal/bytepack"
	"tdat/internal/detect"
	"tdat/internal/explain"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/obs"
	"tdat/internal/reassembly"
	"tdat/internal/series"
	"tdat/internal/timerange"
)

// Micros aliases the analyzer time unit.
type Micros = timerange.Micros

// Config collects the tunables of every pipeline stage. The zero value
// selects the paper's defaults. Only the values a deployment or the
// paper's evaluation varies are settable; every other threshold (the
// transfer-end rules of mct.Config, the timer knee's sharpness guard, and
// the series and flows constants) is fixed at its default.
type Config struct {
	// Flows tunes connection extraction and loss classification. Its Obs
	// field is overwritten by New with Config.Obs: a value set there has
	// no effect.
	Flows flows.Options
	// Series tunes event-series generation (including sniffer location and
	// ACK shifting). Its Obs and Explain fields are overwritten with
	// Config.Obs and a per-connection recorder enabled by Config.Explain: a
	// value set there has no effect.
	Series series.Config
	// MajorThreshold is the major-factor-group cutoff (default 0.3).
	MajorThreshold float64
	// ConsecutiveLossThreshold is the burst-loss rule (default 8).
	ConsecutiveLossThreshold int
	// Workers sizes the per-connection analysis pool. 0 means
	// runtime.GOMAXPROCS(0); 1 preserves strictly sequential analysis.
	// Reports are byte-identical for every value — only wall-clock time
	// changes (regression-tested by TestParallelAnalysisByteIdentical).
	Workers int
	// Strict refuses damaged captures: the first degradation event —
	// undecodable record, pcap-level truncation or corruption, timestamp
	// regression, resource-cap eviction, BGP framing failure — aborts the
	// run with an ErrStrict-wrapped error instead of degrading. The lenient
	// default completes the analysis and accounts for every concession in
	// Report.Degradation. Enforced by the pcap entry points (AnalyzePcap,
	// AnalyzePcapWith); AnalyzePackets ignores it.
	Strict bool
	// MaxReassemblyBytes caps the per-connection reassembled stream
	// materialized for transfer-end estimation, so a corrupt-sequence
	// capture cannot demand gigabytes. 0 means unlimited.
	MaxReassemblyBytes int64
	// Obs receives the run's metrics, tracing spans, and progress when
	// non-nil. Nil keeps every pipeline stage on a zero-overhead fast
	// path (the benchmarks hold it to <2% vs. uninstrumented code).
	// Observability never changes analysis output.
	Obs *obs.Obs
	// Explain enables per-connection evidence capture: every detection and
	// factor attribution records the rule that fired, the measurements it
	// compared, and the contributing intervals (TransferReport.Evidence,
	// rendered by Report.Explain). Evidence is a pure function of the
	// connection — byte-identical at any worker count — and never changes
	// analysis output; off keeps the zero-allocation fast path.
	Explain bool
}

// Analyzer runs the T-DAT pipeline. It is safe for concurrent use.
type Analyzer struct {
	cfg Config
	// scanners keeps the transfer-end working sets between connections and
	// calls (see reassembleEnd). One per worker is enough for the
	// Analyzer's own pool; a set taken beyond that is dropped when given
	// back. Each kept set stays as large as the largest transfer it has
	// scanned (~15 MB for a 300k-route table) for as long as the Analyzer
	// lives. Its MCT seen-set is 4 MB for any full table (mct.KeyStream),
	// ~950k prefixes included, where one hash table for those took 16 MB.
	scanners chan *reassembly.Scanner
	// packers keeps the payload blocks of the last capture for the next
	// one (see packer). Only a capture that follows another on the same
	// Analyzer refills kept blocks: none does in tdat, which analyzes one
	// capture per Analyzer. One slot serves captures analyzed in turn; a
	// capture that overlaps another allocates its own blocks, and at most
	// one packer is kept when both return.
	packers chan *bytepack.Packer
}

// New creates an Analyzer. The Obs hook (when set) is threaded through to
// every stage, including the flows demuxer and series generation.
func New(cfg Config) *Analyzer {
	cfg.Flows.Obs = cfg.Obs
	cfg.Series.Obs = cfg.Obs
	a := &Analyzer{cfg: cfg}
	a.scanners = make(chan *reassembly.Scanner, a.workers())
	a.packers = make(chan *bytepack.Packer, 1)
	return a
}

// TransferReport is the full analysis of one table transfer (one TCP
// connection).
type TransferReport struct {
	Conn    *flows.Connection
	Catalog *series.Catalog
	// Transfer is the analysis window: TCP connection start to the MCT end
	// (or the last data packet when no BGP stream could be recovered).
	Transfer timerange.Range
	// MCT is the transfer-end estimate, when the BGP stream was decodable.
	MCT *mct.Result
	// Factors is the delay-ratio report over the transfer window.
	Factors *factors.Report

	// Timer is the inferred BGP pacing timer, if any.
	Timer *detect.TimerGapResult
	// ConsecLoss summarizes burst-loss episodes.
	ConsecLoss detect.ConsecutiveLossResult
	// ZeroAckBug is set when the zero-window/upstream-loss conflict series
	// is non-empty.
	ZeroAckBug bool

	// Messages counts BGP messages recovered by reassembly (0 when the
	// payload was not decodable as BGP).
	Messages int

	// ReassemblyError records a lenient-path BGP framing failure ("" when
	// clean); the transfer end then falls back to the last data packet,
	// exactly as for a non-BGP payload. Collected into Report.Degradation.
	ReassemblyError string
	// ReassemblyTruncated counts recovered stream bytes beyond
	// Config.MaxReassemblyBytes that were left undecoded.
	ReassemblyTruncated int64

	// Evidence is the provenance record behind this transfer's verdicts —
	// one entry per rule evaluation, in pipeline order. Populated only when
	// Config.Explain is set.
	Evidence []explain.Evidence
}

// Duration returns the transfer duration.
func (t *TransferReport) Duration() Micros { return t.Transfer.Len() }

// AnalysisFailure records a per-connection analysis panic that the worker
// pool recovered from: the run keeps every other connection's report and
// surfaces the casualty here instead of crashing.
type AnalysisFailure struct {
	// Conn is the connection 4-tuple ("sender->receiver").
	Conn string
	// Panic is the recovered panic value, rendered as text.
	Panic string
}

// Report is the analysis of a whole capture.
type Report struct {
	Transfers []*TransferReport
	// SkippedPackets counts records that failed to decode.
	SkippedPackets int
	// Failures lists connections whose analysis panicked (sorted by
	// connection tuple; also counted as tdat_analysis_panics_total).
	Failures []AnalysisFailure
	// Degradation accounts for everything the lenient path skipped,
	// evicted, or truncated to survive a damaged capture; its zero value
	// means the input was clean.
	Degradation Degradation
}

// AnalyzePcap reads a pcap stream and analyzes every connection in it.
// Ingest is streamed: connection analysis starts on the worker pool while
// the trace is still being read (see AnalyzePcapWith). The report carries
// no payload bytes.
func (a *Analyzer) AnalyzePcap(r io.Reader) (*Report, error) {
	return a.AnalyzePcapWith(r, a.AnalyzeConnection)
}

// connLabel renders the connection 4-tuple for span logs and failure
// reports.
func connLabel(c *flows.Connection) string {
	return c.Sender.String() + "->" + c.Receiver.String()
}

// connSpan opens a span for one per-connection stage; the label is only
// built when the span log will record it.
func (a *Analyzer) connSpan(stage obs.Stage, c *flows.Connection) obs.Span {
	o := a.cfg.Obs
	if o == nil {
		return obs.Span{}
	}
	label := ""
	if o.SpanLogEnabled() {
		label = connLabel(c)
	}
	return o.StartSpan(stage, label)
}

// recorder returns a fresh per-connection evidence recorder, or nil (the
// zero-allocation fast path) when Config.Explain is off.
func (a *Analyzer) recorder() *explain.Recorder {
	if a.cfg.Explain {
		return explain.New()
	}
	return nil
}

// generateSeries runs the series stage under a span, wiring the
// per-connection evidence recorder into the series heuristics.
func (a *Analyzer) generateSeries(tr *TransferReport, rec *explain.Recorder) {
	c := tr.Conn
	sp := a.connSpan(obs.StageSeries, c)
	scfg := a.cfg.Series
	scfg.Explain = rec
	tr.Catalog = series.Generate(c, scfg)
	sp.EndN(c.Profile.TotalDataBytes, int64(c.Profile.TotalDataPackets))
}

// finish runs the factor classification and the detectors under their
// spans, records the outcomes in the metrics registry, and seals the
// evidence record.
func (a *Analyzer) finish(tr *TransferReport, rec *explain.Recorder) {
	o := a.cfg.Obs
	sp := a.connSpan(obs.StageFactors, tr.Conn)
	tr.Factors = factors.AnalyzeEv(tr.Catalog, tr.Transfer, a.cfg.MajorThreshold, rec)
	sp.End()
	if o != nil {
		tr.Factors.Observe(o.Reg)
	}

	sp = a.connSpan(obs.StageDetect, tr.Conn)
	// A minJump of 0 selects the knee's default sharpness guard.
	if res, ok := detect.TimerGapsEv(tr.Catalog, tr.Transfer, 0, rec); ok {
		tr.Timer = &res
	}
	tr.ConsecLoss = detect.ConsecutiveLossesEv(tr.Catalog, tr.Transfer, a.cfg.ConsecutiveLossThreshold, rec)
	_, tr.ZeroAckBug = detect.ZeroAckBugEv(tr.Catalog, rec)
	sp.End()
	if o != nil {
		detect.Observe(o.Reg, tr.Timer != nil, tr.ConsecLoss, tr.ZeroAckBug)
	}
	tr.Evidence = rec.Evidence()
}

// analyze is the one per-connection analysis path: series generation,
// then the transfer window from window (which may fill in tr.MCT and the
// reassembly fields), then factor classification and the detectors.
func (a *Analyzer) analyze(c *flows.Connection, window func(tr *TransferReport) timerange.Range) *TransferReport {
	tr := &TransferReport{Conn: c}
	rec := a.recorder()
	a.generateSeries(tr, rec)
	tr.Transfer = window(tr)
	a.finish(tr, rec)
	return tr
}

// mctWindow is the transfer window from TCP start to the MCT end (paper
// §II-A steps ii & iii), or to the last data packet when no end was found.
func mctWindow(tr *TransferReport, res mct.Result, ok bool) timerange.Range {
	c := tr.Conn
	start, end := c.Profile.Start, c.Profile.End
	if ok {
		tr.MCT = &res
		end = res.End
	} else if len(c.Data) > 0 {
		end = c.Data[len(c.Data)-1].Time
	}
	if end <= start {
		end = start + 1
	}
	return timerange.R(start, end)
}

// AnalyzeConnection runs series generation, transfer-window estimation
// from the reassembled BGP stream, factor classification, and the
// detectors for one connection.
func (a *Analyzer) AnalyzeConnection(c *flows.Connection) *TransferReport {
	return a.analyze(c, func(tr *TransferReport) timerange.Range {
		sp := a.connSpan(obs.StageMCT, c)
		res, ok := a.reassembleEnd(c, tr)
		sp.EndN(c.Profile.TotalDataBytes, int64(tr.Messages))
		return mctWindow(tr, res, ok)
	})
}

// AnalyzeConnectionWithUpdates is AnalyzeConnection with the transfer end
// estimated from an externally archived update stream (e.g. a Quagga
// collector's MRT file via mct.FromMRT) instead of payload reassembly —
// the paper's §II-A step (ii) pipeline.
func (a *Analyzer) AnalyzeConnectionWithUpdates(c *flows.Connection, updates []mct.Update) *TransferReport {
	return a.analyze(c, func(tr *TransferReport) timerange.Range {
		sp := a.connSpan(obs.StageMCT, c)
		res, ok := mct.FindEnd(updates, mct.Config{})
		sp.EndN(0, int64(len(updates)))
		return mctWindow(tr, res, ok)
	})
}

// AnalyzeConnectionWindow analyzes c over an explicit window — e.g. a churn
// burst on an established session rather than the initial table transfer.
// An empty window selects the whole connection.
func (a *Analyzer) AnalyzeConnectionWindow(c *flows.Connection, window timerange.Range) *TransferReport {
	if window.Empty() {
		window = timerange.R(c.Profile.Start, c.Profile.End+1)
	}
	return a.analyze(c, func(*TransferReport) timerange.Range { return window })
}

// reassembleEnd recovers the BGP stream and estimates the transfer end,
// noting reassembly concessions (framing failure, byte-cap truncation) on
// the report. The stream is validated as strictly as bgp.Parse would, but
// only the announced prefixes are extracted: MCT needs nothing else. The
// working set comes from the Analyzer and goes back to it, so successive
// analyses reuse its grown buffers; the report keeps only the mct.Result
// values computed from them.
func (a *Analyzer) reassembleEnd(c *flows.Connection, tr *TransferReport) (mct.Result, bool) {
	s := a.scanner()
	defer a.release(s)
	res, msgs, err := s.ScanKeys(c, a.cfg.MaxReassemblyBytes)
	if err != nil && res.LooksLikeBGP {
		// Only a stream that demonstrably carried BGP counts as damaged; a
		// payload of some other protocol is a supported input (Messages
		// stays 0 and the transfer end falls back), not a concession.
		tr.ReassemblyError = err.Error()
	}
	tr.ReassemblyTruncated = res.TruncatedBytes
	if err != nil {
		return mct.Result{}, false
	}
	tr.Messages = msgs
	return mct.FindEndKeys(&s.Keys, mct.Config{})
}

// scanner takes a transfer-end working set from the Analyzer, or makes one
// when none is free.
func (a *Analyzer) scanner() *reassembly.Scanner {
	select {
	case s := <-a.scanners:
		return s
	default:
		return new(reassembly.Scanner)
	}
}

// release gives s back to the Analyzer, or drops it for the collector when
// the Analyzer already keeps one per worker.
func (a *Analyzer) release(s *reassembly.Scanner) {
	select {
	case a.scanners <- s:
	default:
	}
}

// packer takes a payload packer from the Analyzer for one capture's
// demuxer, or makes one when none is free.
func (a *Analyzer) packer() *bytepack.Packer {
	select {
	case p := <-a.packers:
		return p
	default:
		return new(bytepack.Packer)
	}
}

// releasePacker resets p, keeping the blocks its capture filled for the
// next capture, and gives it back to the Analyzer, or drops it when the
// Analyzer already keeps one. Every analysis of the capture must have
// returned, and with it cleared its connection's payload views (see
// pool.guarded): the next capture overwrites the blocks.
func (a *Analyzer) releasePacker(p *bytepack.Packer) {
	p.Reset()
	select {
	case a.packers <- p:
	default:
	}
}
