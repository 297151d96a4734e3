// Concurrent analysis pipeline: ingest (read+decode) → demux (connection
// grouping and profiling) → analyze (series, factors, detectors) → ordered
// merge. Per-connection analysis is embarrassingly parallel — each
// connection's 34 event series and 8-factor delay-ratio vector are computed
// independently (paper §III-C/§III-D) — so connections fan out to a worker
// pool and results merge back in creation order, making reports
// byte-identical regardless of worker count.
//
// Every stage is instrumented through Config.Obs (per-stage duration
// histograms, worker-pool queue depth and queue wait, progress counters);
// with Obs nil each site costs one pointer test. A per-connection panic is
// recovered into Report.Failures instead of taking down the run.
package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"tdat/internal/flows"
	"tdat/internal/obs"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
)

// workers returns the effective worker-pool size.
func (a *Analyzer) workers() int {
	if a.cfg.Workers > 0 {
		return a.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// MapOrdered applies fn to every element of in on a pool of workers
// goroutines (0 means GOMAXPROCS) and returns the results in input order.
// With one worker — or one element — fn runs inline on the caller's
// goroutine, preserving strictly sequential behavior.
func MapOrdered[T, R any](workers int, in []T, fn func(T) R) []R {
	if len(in) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(in) {
		workers = len(in)
	}
	out := make([]R, len(in))
	if workers == 1 {
		for i, v := range in {
			out[i] = fn(v)
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = fn(in[i])
			}
		}()
	}
	for i := range in {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// guard wraps per-connection analysis so one connection's panic becomes an
// AnalysisFailure on the report (and a metrics counter tick) instead of a
// crashed run. Failures collect under a mutex and are sorted by connection
// tuple, so reports stay deterministic at any worker count.
type guard struct {
	a        *Analyzer
	mu       sync.Mutex
	failures []AnalysisFailure
}

// analyze runs fn(c), recovering a panic into a recorded failure (the
// returned report is then nil and merge skips the connection). Once fn
// returns or panics, it clears c's payload views: they point into the
// capture's packer, whose blocks the Analyzer's next capture refills.
func (g *guard) analyze(fn func(*flows.Connection) *TransferReport, c *flows.Connection) (tr *TransferReport) {
	defer func() {
		for i := range c.Data {
			c.Data[i].Payload = nil
		}
		if r := recover(); r != nil {
			if o := g.a.cfg.Obs; o != nil {
				o.Reg.Counter("tdat_analysis_panics_total").Inc()
			}
			g.mu.Lock()
			g.failures = append(g.failures, AnalysisFailure{Conn: connLabel(c), Panic: fmt.Sprint(r)})
			g.mu.Unlock()
			tr = nil
		}
	}()
	return fn(c)
}

// merge appends the surviving reports to rep in slice order — the
// demuxer's creation index on both entry points — then sorts and attaches
// the collected failures.
func (g *guard) merge(rep *Report, results []*TransferReport) {
	sp := g.a.span(obs.StageMerge)
	for _, t := range results {
		if t != nil {
			rep.Transfers = append(rep.Transfers, t)
			rep.Degradation.addTransfer(t)
		}
	}
	sp.End()
	sort.Slice(g.failures, func(i, j int) bool {
		if g.failures[i].Conn != g.failures[j].Conn {
			return g.failures[i].Conn < g.failures[j].Conn
		}
		return g.failures[i].Panic < g.failures[j].Panic
	})
	rep.Failures = g.failures
}

// AnalyzePackets analyzes pre-decoded packets, fanning connections out to
// the configured worker pool and merging reports in extraction order.
// A connection whose analysis panics is dropped into Report.Failures.
// Payloads are copied into blocks the Analyzer reuses for its next
// capture, so the report carries no payload bytes.
func (a *Analyzer) AnalyzePackets(pkts []flows.TimedPacket) *Report {
	o := a.cfg.Obs
	pack := a.packer()
	conns, ds := flows.ExtractOptsStats(pkts, a.cfg.Flows, pack)
	if o != nil {
		o.Reg.Gauge("tdat_pool_workers").Set(int64(a.workers()))
	}
	g := &guard{a: a}
	results := MapOrdered(a.workers(), conns, func(c *flows.Connection) *TransferReport {
		if o != nil {
			o.Progress.ConnStart()
		}
		tr := g.analyze(a.AnalyzeConnection, c)
		if o != nil {
			o.Progress.ConnDone()
			o.Reg.Counter("tdat_conns_analyzed_total").Inc()
		}
		return tr
	})
	a.releasePacker(pack)
	rep := &Report{}
	rep.Degradation.fromDemux(ds)
	g.merge(rep, results)
	if o != nil {
		rep.Degradation.observe(o.Reg)
	}
	return rep
}

// span opens an unlabeled span (whole-run stages like merge).
func (a *Analyzer) span(stage obs.Stage) obs.Span {
	return a.cfg.Obs.StartSpan(stage, "")
}

// AnalyzePcapWith streams a pcap capture through the full pipeline,
// applying analyze to each extracted connection. Connections completed
// early — a fresh SYN reusing the 4-tuple across session resets — are
// dispatched to the worker pool while the tail of the trace is still being
// read; the rest dispatch at EOF. Reports come back in connection creation
// order. Undecodable records are counted and skipped (tcpdump drop
// artifacts); a truncated tail is tolerated like the paper treats sniffer
// drop gaps, unless nothing at all was readable. A connection whose
// analysis panics lands in Report.Failures; the rest of the run completes.
//
// Payloads are copied into blocks the Analyzer reuses for its next
// capture. analyze may read a connection's payloads only until it returns;
// they are cleared then, so the report carries no payload bytes.
func (a *Analyzer) AnalyzePcapWith(r io.Reader, analyze func(*flows.Connection) *TransferReport) (*Report, error) {
	pr, err := pcapio.NewReader(r)
	if err != nil {
		// A truncated-but-genuine pcap header is damage, not the wrong
		// file: the lenient path degrades to an empty capture and says so;
		// strict mode refuses it. Bad magic stays a hard error either way.
		if !errors.Is(err, pcapio.ErrTruncated) {
			return nil, fmt.Errorf("core: reading pcap: %w", err)
		}
		if a.cfg.Strict {
			return nil, fmt.Errorf("%w: %v", ErrStrict, err)
		}
		rep := &Report{}
		rep.Degradation.RecordErrors = []RecordIssue{{Err: err.Error()}}
		if o := a.cfg.Obs; o != nil {
			rep.Degradation.observe(o.Reg)
		}
		return rep, nil
	}

	o := a.cfg.Obs
	nw := a.workers()
	var (
		recordsC  *obs.Counter
		skippedC  *obs.Counter
		analyzedC *obs.Counter
		depthG    *obs.Gauge
		inFlightG *obs.Gauge
		queueWait *obs.Histogram
	)
	if o != nil {
		recordsC = o.Reg.Counter("tdat_records_read_total")
		skippedC = o.Reg.Counter("tdat_packets_skipped_total")
		analyzedC = o.Reg.Counter("tdat_conns_analyzed_total")
		depthG = o.Reg.Gauge("tdat_pool_queue_depth")
		inFlightG = o.Reg.Gauge("tdat_conns_in_flight")
		queueWait = o.Reg.Histogram("tdat_pool_queue_wait_micros", obs.DurationBuckets)
		o.Reg.Gauge("tdat_pool_workers").Set(int64(nw))
	}

	g := &guard{a: a}
	var (
		mu      sync.Mutex
		results []*TransferReport // indexed by demuxer creation index
	)
	analyzeOne := func(idx int, c *flows.Connection) {
		if o != nil {
			inFlightG.Add(1)
			o.Progress.ConnStart()
		}
		rep := g.analyze(analyze, c)
		if o != nil {
			inFlightG.Add(-1)
			o.Progress.ConnDone()
			analyzedC.Inc()
		}
		mu.Lock()
		if idx >= len(results) {
			results = append(results, make([]*TransferReport, idx+1-len(results))...)
		}
		results[idx] = rep
		mu.Unlock()
	}

	type connJob struct {
		idx  int
		conn *flows.Connection
		enq  time.Time
	}
	var (
		jobs chan connJob
		wg   sync.WaitGroup
	)
	// With observability on, even a 1-worker run routes through the pool so
	// demux timing isn't polluted by inline analysis of early-emitted
	// connections (reports are merged by creation index either way, so
	// output is identical).
	parallel := nw > 1 || o != nil
	if parallel {
		// A small buffer decouples demux from the pool so the queue-depth
		// gauge reflects genuine backlog rather than channel handoff.
		jobs = make(chan connJob, 2*nw)
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					if o != nil {
						depthG.Add(-1)
						queueWait.Observe(obs.Since(j.enq).Microseconds())
					}
					analyzeOne(j.idx, j.conn)
				}
			}()
		}
	}
	d := flows.NewDemuxer(a.cfg.Flows, func(idx int, c *flows.Connection) {
		if !parallel {
			analyzeOne(idx, c)
			return
		}
		j := connJob{idx: idx, conn: c}
		if o != nil {
			depthG.Add(1)
			j.enq = obs.Now()
		}
		jobs <- j
	})
	pack := a.packer()
	d.UsePacker(pack)

	// Zero-copy ingest: one reused record buffer (pcapio.ReadInto) and one
	// reused packet struct (packet.DecodeInto). The demuxer copies what it
	// keeps into per-connection columnar storage and the packer's blocks
	// before Add returns, so nothing downstream aliases either buffer.
	// With observability on, three clock reads per record split the time
	// between the decode and demux stages.
	var pkt packet.Packet
	records, skipped := 0, 0
	readErr := pr.EachInto(func(rec pcapio.Record) error {
		records++
		var t0, t1 time.Time
		if o != nil {
			recordsC.Inc()
			o.Progress.AddRecords(1)
			o.Progress.SetBytesRead(pr.BytesRead())
			t0 = obs.Now()
		}
		err := packet.DecodeInto(rec.Data, &pkt)
		if o != nil {
			t1 = obs.Now()
			o.StageObserve(obs.StageDecode, t1.Sub(t0).Microseconds())
		}
		if err != nil {
			if a.cfg.Strict {
				return fmt.Errorf("%w: record %d undecodable: %v", ErrStrict, records-1, err)
			}
			skipped++
			skippedC.Inc()
			return nil
		}
		d.Add(flows.TimedPacket{Time: rec.TimeMicros, Pkt: &pkt})
		if o != nil {
			o.StageObserve(obs.StageDemux, obs.Since(t1).Microseconds())
		}
		return nil
	})
	d.Finish()
	if parallel {
		close(jobs)
		wg.Wait()
	}
	a.releasePacker(pack)
	if readErr != nil {
		if a.cfg.Strict {
			if errors.Is(readErr, ErrStrict) {
				return nil, readErr
			}
			return nil, fmt.Errorf("%w: %v", ErrStrict, readErr)
		}
		if records == 0 {
			return nil, fmt.Errorf("core: reading pcap: %w", readErr)
		}
	}

	rep := &Report{SkippedPackets: skipped}
	rep.Degradation.UndecodableRecords = skipped
	rep.Degradation.fromDemux(d.Stats())
	if readErr != nil {
		// Lenient path with a readable prefix: the file damage is a
		// degradation event, located exactly when the pcap layer can.
		issue := RecordIssue{Index: int64(records), Err: readErr.Error()}
		var re *pcapio.RecordError
		if errors.As(readErr, &re) {
			issue = RecordIssue{Index: re.Index, Offset: re.Offset, Err: re.Err.Error()}
		}
		rep.Degradation.RecordErrors = append(rep.Degradation.RecordErrors, issue)
	}
	g.merge(rep, results)
	if a.cfg.Strict {
		if err := rep.Degradation.strictErr(); err != nil {
			return nil, err
		}
	}
	if o != nil {
		rep.Degradation.observe(o.Reg)
	}
	return rep, nil
}
