// Command tdat is the TCP Delay Analysis Tool: it reads a bidirectional
// pcap trace captured next to a BGP collector, extracts every TCP
// connection, and explains where each table transfer's time went — the
// 8-factor delay-ratio vector, the 3-group summary, and the known-problem
// detectors (pacing timers, consecutive losses, the zero-window bug).
//
// Usage:
//
//	tdat [-series] [-threshold 0.3] [-sniffer receiver|sender]
//	     [-mrt archive.mrt] [-workers N]
//	     [-strict] [-max-connections N] [-max-reassembly-bytes N]
//	     [-explain] [-trace-json run.trace.json]
//	     [-progress] [-metrics-addr :9177] [-metrics-hold 60s]
//	     [-span-log spans.jsonl] [-self-profile] [-metrics-json m.json]
//	     [-log-level info] trace.pcap
//
// With -mrt, transfer ends come from the collector's BGP archive (the
// paper's Quagga pipeline) instead of payload reassembly.
//
// Damaged captures are analyzed leniently by default: unreadable records,
// truncated tails, clock regressions, and corrupt BGP framing degrade the
// analysis and are itemized in a degradation report after the transfers.
// -strict refuses such input at the first concession; -max-connections and
// -max-reassembly-bytes bound demux and reassembly memory against
// adversarial traces (0 = unlimited).
//
// The observability flags never change analysis output and freely combine —
// each one independently enables the shared instrumentation layer:
// -progress reports ingest progress on stderr, -metrics-addr serves
// Prometheus /metrics plus /debug/vars, /debug/pprof, and /debug/explain,
// -span-log records per-stage tracing spans as JSON lines (schema v2; also
// feeds -trace-json and the -metrics-json histograms), -self-profile prints
// the analyzer's own delay-factor breakdown (which pipeline stage the run's
// time went to), and -metrics-json writes the same registry a -metrics-addr
// scrape would see as one JSON snapshot at exit.
//
// -explain records evidence provenance for every rule evaluation — which
// rule fired, the measurements compared, the thresholds, and the
// contributing intervals — rendered as a text report (or JSON with -json)
// and served on /debug/explain. -trace-json writes a Chrome trace_event
// file merging the pipeline spans with per-connection transfer timelines;
// open it at ui.perfetto.dev. Both are deterministic: byte-identical output
// at any -workers setting.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/netip"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/mrt"
	"tdat/internal/obs"
	"tdat/internal/series"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricsAddrHook, when set (by tests), receives the bound metrics address
// once the listener is up.
var metricsAddrHook func(string)

// run is main with its dependencies injected — the golden end-to-end test
// drives it in-process with a buffer for stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		plotSeries = fs.Bool("series", false, "render the event-series lanes per connection")
		threshold  = fs.Float64("threshold", 0.3, "major factor-group threshold (fraction of transfer duration)")
		sniffer    = fs.String("sniffer", "receiver", "sniffer location: receiver or sender")
		noShift    = fs.Bool("noshift", false, "disable sniffer-location ACK shifting")
		mrtPath    = fs.String("mrt", "", "collector MRT archive to pin transfer ends (Quagga pipeline)")
		asJSON     = fs.Bool("json", false, "emit machine-readable JSON per connection")
		workers    = fs.Int("workers", 0, "analysis worker count (0 = all CPUs, 1 = sequential); output is identical for any value")
		strict     = fs.Bool("strict", false, "refuse damaged captures: fail at the first degradation event instead of analyzing leniently")
		maxConns   = fs.Int("max-connections", 0, "cap simultaneously tracked connections; when full the oldest open one is force-completed (0 = unlimited)")
		maxReasm   = fs.Int64("max-reassembly-bytes", 0, "cap per-connection reassembled stream bytes (0 = unlimited)")
		explainOut = fs.Bool("explain", false, "record evidence provenance per rule evaluation; printed after the report (JSON with -json) and served on /debug/explain")
		traceJSON  = fs.String("trace-json", "", "write a Chrome trace_event timeline (pipeline spans + per-connection transfer lanes) to this file; open in Perfetto")

		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		progress    = fs.Bool("progress", false, "report ingest progress on stderr while analyzing")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (\":0\" picks a port)")
		metricsHold = fs.Duration("metrics-hold", 0, "keep the metrics listener up this long after analysis (lets scrapers catch one-shot runs)")
		spanLog     = fs.String("span-log", "", "append per-stage tracing spans as JSON lines (schema v2) to this file; combines freely with -metrics-json and -self-profile")
		selfProfile = fs.Bool("self-profile", false, "print the analyzer self delay-factor profile after the report; combines freely with -span-log and -metrics-json")
		metricsJSON = fs.String("metrics-json", "", "write a JSON metrics snapshot (the same registry a -metrics-addr scrape sees) to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "tdat: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tdat [flags] trace.pcap")
		fs.PrintDefaults()
		return 2
	}

	cfg := core.Config{
		MajorThreshold:     *threshold,
		Workers:            *workers,
		Strict:             *strict,
		MaxReassemblyBytes: *maxReasm,
	}
	cfg.Flows.MaxTracked = *maxConns
	cfg.Series.DisableShift = *noShift
	switch *sniffer {
	case "receiver":
		cfg.Series.Sniffer = series.AtReceiver
	case "sender":
		cfg.Series.Sniffer = series.AtSender
	default:
		slog.Error("unknown sniffer location", "sniffer", *sniffer)
		return 2
	}

	cfg.Explain = *explainOut

	// Any observability consumer enables the shared Obs hook; with none the
	// analyzer keeps its nil fast path.
	var o *obs.Obs
	if *progress || *metricsAddr != "" || *spanLog != "" || *selfProfile || *metricsJSON != "" || *traceJSON != "" {
		o = obs.New()
	}
	cfg.Obs = o
	if *traceJSON != "" {
		o.KeepSpans()
	}

	// The explain report is published to /debug/explain once analysis
	// completes; until then the handler answers 503.
	var explainBuf atomic.Pointer[[]byte]

	// flushSpans runs before the -metrics-hold sleep too, so a scraper-side
	// kill during the hold can't lose buffered span records.
	flushSpans := func() {}
	if *spanLog != "" {
		sf, err := os.Create(*spanLog)
		if err != nil {
			slog.Error("opening span log", "path", *spanLog, "err", err)
			return 1
		}
		defer sf.Close()
		sw := bufio.NewWriter(sf)
		flushSpans = func() { sw.Flush() }
		defer sw.Flush()
		o.SetSpanLog(sw)
		slog.Debug("span log enabled", "path", *spanLog)
	}

	if *metricsAddr != "" {
		explainRoute := obs.Route{Pattern: "/debug/explain", Handler: http.HandlerFunc(
			func(w http.ResponseWriter, _ *http.Request) {
				if !*explainOut {
					http.Error(w, "explain disabled: run with -explain", http.StatusNotFound)
					return
				}
				b := explainBuf.Load()
				if b == nil {
					http.Error(w, "analysis in progress", http.StatusServiceUnavailable)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.Write(*b)
			})}
		srv, err := obs.Serve(*metricsAddr, o, explainRoute)
		if err != nil {
			slog.Error("starting metrics listener", "addr", *metricsAddr, "err", err)
			return 1
		}
		defer srv.Close()
		slog.Info("metrics listening", "addr", srv.Addr(),
			"endpoints", "/metrics /debug/vars /debug/pprof /debug/explain")
		if metricsAddrHook != nil {
			metricsAddrHook(srv.Addr())
		}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		slog.Error("opening trace", "err", err)
		return 1
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && o != nil {
		o.Progress.SetTotalBytes(fi.Size())
	}

	stopProgress := func() {}
	if *progress {
		stopProgress = o.Progress.Run(stderr, 2*time.Second)
	}

	analyzer := core.New(cfg)
	var rep *core.Report
	if *mrtPath == "" {
		rep, err = analyzer.AnalyzePcap(f)
	} else {
		rep, err = analyzeWithArchive(analyzer, f, *mrtPath, *strict)
	}
	stopProgress()
	if err != nil {
		slog.Error("analysis failed", "err", err)
		return 1
	}
	if rep.SkippedPackets > 0 {
		slog.Warn("undecodable packets skipped", "count", rep.SkippedPackets)
	}
	if !rep.Degradation.Empty() {
		slog.Warn("damaged capture analyzed leniently; see degradation report",
			"concessions", rep.Degradation.Count())
	}
	for _, fl := range rep.Failures {
		slog.Warn("connection analysis panicked; report omitted",
			"conn", fl.Conn, "panic", fl.Panic)
	}

	var explainRep *core.ExplainReport
	if *explainOut {
		explainRep = rep.Explain()
		var buf bytes.Buffer
		if err := explainRep.WriteJSON(&buf); err == nil {
			b := buf.Bytes()
			explainBuf.Store(&b)
		}
	}

	code := 0
	if *asJSON {
		for _, t := range rep.Transfers {
			if err := t.WriteJSON(stdout); err != nil {
				slog.Error("writing report", "err", err)
				code = 1
				break
			}
		}
		if code == 0 && explainRep != nil {
			if err := explainRep.WriteJSON(stdout); err != nil {
				slog.Error("writing explain report", "err", err)
				code = 1
			}
		}
	} else {
		fmt.Fprintf(stdout, "%d connection(s)\n\n", len(rep.Transfers))
		for _, t := range rep.Transfers {
			if err := t.WriteText(stdout, *plotSeries); err != nil {
				slog.Error("writing report", "err", err)
				code = 1
				break
			}
			fmt.Fprintln(stdout)
		}
		// Printed only for damaged input, so clean-trace output is
		// byte-identical with and without the lenient machinery.
		if code == 0 && !rep.Degradation.Empty() {
			if err := rep.Degradation.WriteText(stdout); err != nil {
				slog.Error("writing degradation report", "err", err)
				code = 1
			}
		}
		if code == 0 && explainRep != nil {
			if err := explainRep.WriteText(stdout); err != nil {
				slog.Error("writing explain report", "err", err)
				code = 1
			}
		}
	}

	if *traceJSON != "" && code == 0 {
		// Pipeline spans under pid 1, per-connection timelines from pid 100,
		// merged into one catapult file.
		events := obs.SpanTraceEvents(o.Spans(), 1)
		events = append(events, rep.TraceEvents(100)...)
		tf, err := os.Create(*traceJSON)
		if err != nil {
			slog.Error("writing trace", "path", *traceJSON, "err", err)
			code = 1
		} else {
			if err := obs.WriteTrace(tf, events); err != nil {
				slog.Error("writing trace", "path", *traceJSON, "err", err)
				code = 1
			}
			tf.Close()
		}
	}

	if *selfProfile && code == 0 {
		o.WriteSelfProfile(stdout)
	}
	if *metricsJSON != "" {
		mf, err := os.Create(*metricsJSON)
		if err != nil {
			slog.Error("writing metrics snapshot", "path", *metricsJSON, "err", err)
			code = 1
		} else {
			if err := o.Registry().WriteJSON(mf); err != nil {
				slog.Error("writing metrics snapshot", "path", *metricsJSON, "err", err)
				code = 1
			}
			mf.Close()
		}
	}
	flushSpans()
	if *metricsHold > 0 && *metricsAddr != "" {
		slog.Info("holding metrics listener open", "hold", *metricsHold)
		time.Sleep(*metricsHold)
	}
	return code
}

// analyzeWithArchive runs the Quagga pipeline: connections from the pcap
// (streamed through the concurrent analysis pipeline), transfer ends from
// the MRT archive, matched by the sending router's address. An archive
// that is damaged after some readable records is refused under strict and
// otherwise analyzed up to the damage, with a warning.
func analyzeWithArchive(a *core.Analyzer, pcapF *os.File, mrtPath string, strict bool) (*core.Report, error) {
	mf, err := os.Open(mrtPath)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	mrecs, err := mrt.ReadAll(mf)
	if err != nil {
		if len(mrecs) == 0 {
			return nil, err
		}
		if strict {
			return nil, fmt.Errorf("%w: MRT archive %s after %d record(s): %v", core.ErrStrict, mrtPath, len(mrecs), err)
		}
		slog.Warn("damaged MRT archive; using the records before the damage",
			"path", mrtPath, "records", len(mrecs), "err", err)
	}
	// Bucket archive records by peer (router) address and sort each bucket
	// by timestamp once, so scoping each connection's lifetime window is a
	// pair of binary searches instead of a scan of the whole archive
	// (archives span many sessions; transfers × records scans dominated).
	byPeer := map[netip.Addr][]mrt.Record{}
	for _, r := range mrecs {
		byPeer[r.PeerIP] = append(byPeer[r.PeerIP], r)
	}
	for _, recs := range byPeer {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].TimeMicros < recs[j].TimeMicros })
	}
	// byPeer is read-only from here on: the per-connection analyses below
	// run concurrently on the worker pool.
	return a.AnalyzePcapWith(pcapF, func(c *flows.Connection) *core.TransferReport {
		// Only archive records within this connection's lifetime belong to
		// its transfer (plus a 1 s grace for the collector's write delay).
		recs := byPeer[c.Sender.Addr]
		start, end := c.Profile.Start, c.Profile.End+1_000_000
		lo := sort.Search(len(recs), func(i int) bool { return recs[i].TimeMicros >= start })
		hi := sort.Search(len(recs), func(i int) bool { return recs[i].TimeMicros > end })
		ups := mct.FromMRT(recs[lo:hi])
		return a.AnalyzeConnectionWithUpdates(c, ups)
	})
}
