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
	"cmp"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
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

// pool analyzes the connections of one capture as the demuxer emits them,
// on worker goroutines or inline, and collects their reports by creation
// index. A connection whose analysis panics becomes an AnalysisFailure on
// the report (and a metrics counter tick) instead of a crashed run.
type pool struct {
	a       *Analyzer
	analyze func(*flows.Connection) *TransferReport
	// jobs queues emitted connections for the workers; nil analyzes each
	// one inline, inside the demuxer's emit. emit starts a worker with each
	// of the first nw connections it queues, so a capture of one
	// connection starts one.
	jobs    chan connJob
	nw      int
	started int
	wg      sync.WaitGroup

	mu       sync.Mutex
	results  []*TransferReport // indexed by demuxer creation index
	failures []AnalysisFailure

	// metrics (nil handles when Config.Obs is nil)
	analyzedC *obs.Counter
	depthG    *obs.Gauge
	inFlightG *obs.Gauge
	queueWait *obs.Histogram
}

// connJob is one emitted connection waiting for a worker.
type connJob struct {
	idx  int
	conn *flows.Connection
	enq  time.Time
}

// emit is the demuxer's callback: it queues c for a worker, or analyzes
// it at once when the pool has none.
func (p *pool) emit(idx int, c *flows.Connection) {
	if p.jobs == nil {
		p.run(idx, c)
		return
	}
	if p.started < p.nw {
		p.started++
		p.wg.Add(1)
		go p.work()
	}
	j := connJob{idx: idx, conn: c}
	if p.a.cfg.Obs != nil {
		p.depthG.Add(1)
		j.enq = obs.Now()
	}
	p.jobs <- j
}

// work is one worker: it analyzes queued connections until the queue is
// closed.
func (p *pool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		if p.a.cfg.Obs != nil {
			p.depthG.Add(-1)
			p.queueWait.Observe(obs.Since(j.enq).Microseconds())
		}
		p.run(j.idx, j.conn)
	}
}

// run analyzes one connection and files its report under its creation
// index.
func (p *pool) run(idx int, c *flows.Connection) {
	o := p.a.cfg.Obs
	if o != nil {
		p.inFlightG.Add(1)
		o.Progress.ConnStart()
	}
	tr := p.guarded(c)
	if o != nil {
		p.inFlightG.Add(-1)
		o.Progress.ConnDone()
		p.analyzedC.Inc()
	}
	p.mu.Lock()
	if idx >= len(p.results) {
		p.results = append(p.results, make([]*TransferReport, idx+1-len(p.results))...)
	}
	p.results[idx] = tr
	p.mu.Unlock()
}

// guarded runs analyze(c), recovering a panic into a recorded failure (the
// returned report is then nil and merge skips the connection). Once
// analyze returns or panics, it clears c's payload views: they point into
// the capture's packer, whose blocks the Analyzer's next capture refills.
func (p *pool) guarded(c *flows.Connection) (tr *TransferReport) {
	defer func() {
		for i := range c.Data {
			c.Data[i].Payload = nil
		}
		if r := recover(); r != nil {
			if o := p.a.cfg.Obs; o != nil {
				o.Reg.Counter("tdat_analysis_panics_total").Inc()
			}
			p.mu.Lock()
			p.failures = append(p.failures, AnalysisFailure{Conn: connLabel(c), Panic: fmt.Sprint(r)})
			p.mu.Unlock()
			tr = nil
		}
	}()
	return p.analyze(c)
}

// merge appends the surviving reports to rep in creation order, then sorts
// the failures by connection tuple and attaches them, so reports stay
// deterministic at any worker count.
func (p *pool) merge(rep *Report) {
	sp := p.a.span(obs.StageMerge)
	for _, t := range p.results {
		if t != nil {
			rep.Transfers = append(rep.Transfers, t)
			rep.Degradation.addTransfer(t)
		}
	}
	sp.End()
	sort.Slice(p.failures, func(i, j int) bool {
		if p.failures[i].Conn != p.failures[j].Conn {
			return p.failures[i].Conn < p.failures[j].Conn
		}
		return p.failures[i].Panic < p.failures[j].Panic
	})
	rep.Failures = p.failures
}

// AnalyzePackets analyzes pre-decoded packets through the same demux, worker
// pool and ordered merge as AnalyzePcapWith. The packets are demuxed in time
// order — a time-disordered slice is sorted (stably) first — so connection
// grouping follows capture time, and pkts itself is left as it is.
// Config.Strict is not enforced here. A connection whose analysis panics is
// dropped into Report.Failures. Payloads are copied into blocks the
// Analyzer reuses for its next capture, so the report carries no payload
// bytes.
func (a *Analyzer) AnalyzePackets(pkts []flows.TimedPacket) *Report {
	if !slices.IsSortedFunc(pkts, byTime) {
		pkts = slices.Clone(pkts)
		slices.SortStableFunc(pkts, byTime)
	}
	rep, _ := a.dispatch(a.AnalyzeConnection, func(d *flows.Demuxer) error {
		for _, tp := range pkts {
			d.Add(tp)
		}
		return nil
	})
	if o := a.cfg.Obs; o != nil {
		rep.Degradation.observe(o.Reg)
	}
	return rep
}

// byTime orders packets by capture time.
func byTime(a, b flows.TimedPacket) int { return cmp.Compare(a.Time, b.Time) }

// span opens an unlabeled span (whole-run stages like merge).
func (a *Analyzer) span(stage obs.Stage) obs.Span {
	return a.cfg.Obs.StartSpan(stage, "")
}

// dispatch is the body of both capture-level entries. feed routes the
// capture's packets into the demuxer in capture order; each connection the
// demuxer completes is handed to analyze on the worker pool — early, while
// feed is still running, when a fresh SYN reuses its 4-tuple, the rest at
// the end — and the reports merge in connection creation order. The
// demuxer copies payloads into the Analyzer's packer, which is reset for
// the next capture once the pool has drained. A feed error is returned
// then, in place of the report.
func (a *Analyzer) dispatch(analyze func(*flows.Connection) *TransferReport, feed func(*flows.Demuxer) error) (*Report, error) {
	o := a.cfg.Obs
	nw := a.workers()
	p := &pool{a: a, analyze: analyze, nw: nw}
	if o != nil {
		p.analyzedC = o.Reg.Counter("tdat_conns_analyzed_total")
		p.depthG = o.Reg.Gauge("tdat_pool_queue_depth")
		p.inFlightG = o.Reg.Gauge("tdat_conns_in_flight")
		p.queueWait = o.Reg.Histogram("tdat_pool_queue_wait_micros", obs.DurationBuckets)
		o.Reg.Gauge("tdat_pool_workers").Set(int64(nw))
	}
	// With observability on, even a 1-worker run routes through the pool so
	// demux timing isn't polluted by inline analysis of early-emitted
	// connections (reports are merged by creation index either way, so
	// output is identical).
	if nw > 1 || o != nil {
		// A small buffer decouples demux from the pool so the queue-depth
		// gauge reflects genuine backlog rather than channel handoff.
		p.jobs = make(chan connJob, 2*nw)
	}
	d := flows.NewDemuxer(a.cfg.Flows, p.emit)
	pack := a.packer()
	d.UsePacker(pack)
	err := feed(d)
	d.Finish()
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
	}
	a.releasePacker(pack)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	rep.Degradation.fromDemux(d.Stats())
	p.merge(rep)
	return rep, nil
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
	var recordsC, skippedC *obs.Counter
	if o != nil {
		recordsC = o.Reg.Counter("tdat_records_read_total")
		skippedC = o.Reg.Counter("tdat_packets_skipped_total")
	}
	var readErr error
	records, skipped := 0, 0
	rep, err := a.dispatch(analyze, func(d *flows.Demuxer) error {
		// Zero-copy ingest: one reused record buffer (pcapio.ReadInto) and
		// one reused packet struct (packet.DecodeInto). The demuxer copies
		// what it keeps into per-connection columnar storage and the
		// packer's blocks before Add returns, so nothing downstream aliases
		// either buffer. With observability on, three clock reads per
		// record split the time between the decode and demux stages.
		var pkt packet.Packet
		readErr = pr.EachInto(func(rec pcapio.Record) error {
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
		switch {
		case readErr == nil:
			return nil
		case a.cfg.Strict && errors.Is(readErr, ErrStrict):
			return readErr
		case a.cfg.Strict:
			return fmt.Errorf("%w: %v", ErrStrict, readErr)
		case records == 0:
			return fmt.Errorf("core: reading pcap: %w", readErr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep.SkippedPackets = skipped
	rep.Degradation.UndecodableRecords = skipped
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
