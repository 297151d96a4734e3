package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"tdat/benchmark/result"
	"tdat/internal/bgp"
	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/explain"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/mrt"
	"tdat/internal/obs"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/reassembly"
	"tdat/internal/series"
	"tdat/internal/timerange"
)

// A pass is one timed sweep of the traced run over the whole capture. The
// per-record layers cannot be timed per record without distorting them,
// so their passes are cumulative (read; read+decode; read+decode+demux)
// and a layer's time is the difference between two passes.
type passID int

const (
	passMRT passID = iota
	passRead
	passDecode
	passDemux
	passSeries
	passReassembly
	passBGP
	passMCT
	passFactors
	passDetect
	passCoreW1
	passCoreW2
	numPasses
)

var passNames = [numPasses]string{
	"mrt.ReadAll",
	"pcapio.EachInto",
	"+packet.DecodeInto",
	"+flows.Demuxer",
	"series.Generate",
	"reassembly.ReassembleOpts",
	"bgp.SplitStream",
	"mct",
	"factors.AnalyzeEv",
	"detect",
	"core workers=1",
	"core workers=2",
}

// minRounds is the least number of times the traced run sweeps every
// layer; exported traces hold the first minRounds rounds.
const minRounds = 15

// tracer drives every layer through its public functions in the order
// core.AnalyzeConnection calls them, one pass over all connections at a
// time.
type tracer struct {
	b      *bench
	w1, w2 *core.Analyzer
	// byPeer is the collector archive grouped by router.
	byPeer map[netip.Addr][]mrt.Record
	// streams holds each connection's recovered BGP byte stream, the input
	// of the bgp pass.
	streams [][]byte
	pkt     packet.Packet

	// Per-connection state of the current round, indexed by creation order.
	conns    []*flows.Connection
	recs     []*explain.Recorder
	cats     []*series.Catalog
	reasm    []*reassembly.Result
	reasmErr []error
	windows  []timerange.Range
	mcts     []mct.Result
	hasMCT   []bool
	facs     []*factors.Report

	// Work counts of the current round.
	records, skipped, earlyEmits, msgs, updates, evidence int
	streamBytes                                           int64

	ns, allocs [numPasses][]float64
	m0, m1     runtime.MemStats

	// Span export: spans[i] bounds connection i within the current pass.
	origin  time.Time
	spans   [][2]time.Duration
	export  bool
	pid     int64
	labels  []string
	events  []obs.TraceEvent
	checked *tally
}

// traced runs whole rounds of every pass for at least minRounds rounds
// and at least dur. Each round's outputs are checked against the
// reference: the layer-by-layer window, MCT result and factor vectors must
// equal the end-to-end ones, or the run is wrong.
func (b *bench) traced(dur time.Duration, export bool, cal *calibrator, pid int64, checked *tally) (map[string]result.Metric, []obs.TraceEvent, error) {
	t := &tracer{
		b:       b,
		w1:      b.w.newAnalyzer(1),
		w2:      b.w.newAnalyzer(min(2, runtime.NumCPU())),
		export:  export,
		pid:     pid,
		checked: checked,
	}
	if export {
		t.events = append(t.events, obs.MetaEvent("process_name", pid, 0, b.w.Name))
		for p, name := range passNames {
			t.events = append(t.events, obs.MetaEvent("thread_name", pid, int64(p)+1, name))
		}
	}
	var calMs []float64
	t.origin = time.Now()
	for round := 0; round < minRounds || time.Since(t.origin) < dur; round++ {
		if err := t.round(round); err != nil {
			return nil, nil, err
		}
		calMs = append(calMs, cal.once(1))
	}
	return t.metrics(calScale(result.Median(calMs))), t.events, nil
}

func (t *tracer) round(r int) error {
	// One untimed read first, so the cumulative passes all start with the
	// capture bytes equally warm.
	if err := t.read(); err != nil {
		return err
	}
	whole := []struct {
		p  passID
		fn func() error
	}{
		{passMRT, t.readArchive},
		{passRead, t.read},
		{passDecode, t.decode},
		{passDemux, t.demux},
	}
	for _, s := range whole {
		if err := t.timePass(r, s.p, false, s.fn); err != nil {
			return err
		}
	}
	t.resize()
	if t.streams == nil {
		if err := t.buildStreams(); err != nil {
			return err
		}
	}
	perConn := []struct {
		p  passID
		fn func(i int) error
	}{
		{passSeries, t.series},
		// The bgp pass keeps nothing, so running it first lets both
		// passes that parse the stream start from the same live heap.
		{passBGP, t.split},
		{passReassembly, t.reassemble},
		{passMCT, t.mct},
		{passFactors, t.factors},
		{passDetect, t.detect},
	}
	t.msgs, t.updates, t.evidence, t.streamBytes = 0, 0, 0, 0
	for _, s := range perConn {
		if err := t.timePass(r, s.p, true, func() error { return t.eachConn(s.fn) }); err != nil {
			return err
		}
	}
	if err := t.crossCheck(); err != nil {
		return err
	}
	// Drop this round's layer outputs, so the whole-capture runs collect
	// garbage over a heap like the end-to-end runs'.
	clear(t.conns)
	clear(t.recs)
	clear(t.cats)
	clear(t.reasm)
	clear(t.facs)
	t.byPeer = nil
	for _, p := range []passID{passCoreW1, passCoreW2} {
		a := t.w1
		if p == passCoreW2 {
			a = t.w2
		}
		var rep *core.Report
		if err := t.timePass(r, p, false, func() (err error) {
			rep, err = t.b.w.analyze(a, t.b.in)
			return err
		}); err != nil {
			return err
		}
		if err := t.checked.add(t.b.in, t.b.ref, rep, false); err != nil {
			return err
		}
	}
	return nil
}

// timePass runs fn between two MemStats reads, timing only fn, and
// records the pass (and, for perConn passes, each connection) as spans.
// A full collection first gives every pass the same starting heap, so a
// collection the previous pass provoked is not charged to this one; what
// collection costs the whole pipeline shows in core.ms_unaccounted.
func (t *tracer) timePass(round int, p passID, perConn bool, fn func() error) error {
	runtime.GC()
	runtime.ReadMemStats(&t.m0)
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	runtime.ReadMemStats(&t.m1)
	if err != nil {
		return fmt.Errorf("%s: %s: %w", t.b.w.Name, passNames[p], err)
	}
	t.ns[p] = append(t.ns[p], float64(t1.Sub(t0).Nanoseconds()))
	t.allocs[p] = append(t.allocs[p], float64(t.m1.Mallocs-t.m0.Mallocs))
	if !t.export || round >= minRounds {
		return nil
	}
	tid := int64(p) + 1
	t.events = append(t.events, t.span(passNames[p], tid, t0.Sub(t.origin), t1.Sub(t.origin),
		map[string]any{"run": round}))
	if perConn {
		for i, s := range t.spans {
			t.events = append(t.events, t.span(passNames[p], tid, s[0], s[1],
				map[string]any{"run": round, "conn": t.labels[i]}))
		}
	}
	return nil
}

// span renders [start, end) as a complete event, widened outward to whole
// microseconds so a child never pokes out of its parent.
func (t *tracer) span(name string, tid int64, start, end time.Duration, args map[string]any) obs.TraceEvent {
	ts := start.Microseconds()
	te := (end + time.Microsecond - 1).Microseconds()
	return obs.TraceEvent{
		Name: name, Cat: "benchmark", Ph: "X", Ts: ts, Dur: max(te-ts, 1),
		Pid: t.pid, Tid: tid, Args: args,
	}
}

// eachConn applies fn to every connection, marking its span.
func (t *tracer) eachConn(fn func(i int) error) error {
	for i := range t.conns {
		t.spans[i][0] = time.Since(t.origin)
		if err := fn(i); err != nil {
			return err
		}
		t.spans[i][1] = time.Since(t.origin)
	}
	return nil
}

func (t *tracer) reader() (*pcapio.Reader, error) {
	return pcapio.NewReader(bytes.NewReader(t.b.in.Pcap))
}

func (t *tracer) read() error {
	pr, err := t.reader()
	if err != nil {
		return err
	}
	n := 0
	err = pr.EachInto(func(pcapio.Record) error {
		n++
		return nil
	})
	t.records = n
	return err
}

func (t *tracer) decode() error {
	pr, err := t.reader()
	if err != nil {
		return err
	}
	skipped := 0
	err = pr.EachInto(func(rec pcapio.Record) error {
		if packet.DecodeInto(rec.Data, &t.pkt) != nil {
			skipped++
		}
		return nil
	})
	t.skipped = skipped
	return err
}

func (t *tracer) demux() error {
	pr, err := t.reader()
	if err != nil {
		return err
	}
	conns := t.conns[:0]
	d := flows.NewDemuxer(flows.Options{}, func(idx int, c *flows.Connection) {
		for len(conns) <= idx {
			conns = append(conns, nil)
		}
		conns[idx] = c
	})
	err = pr.EachInto(func(rec pcapio.Record) error {
		if packet.DecodeInto(rec.Data, &t.pkt) == nil {
			d.Add(flows.TimedPacket{Time: rec.TimeMicros, Pkt: &t.pkt})
		}
		return nil
	})
	d.Finish()
	t.conns = conns
	t.earlyEmits = d.Stats().EarlyEmits
	return err
}

// resize sizes the per-connection state for this round's connections.
func (t *tracer) resize() {
	n := len(t.conns)
	if len(t.cats) == n {
		return
	}
	t.recs = make([]*explain.Recorder, n)
	t.cats = make([]*series.Catalog, n)
	t.reasm = make([]*reassembly.Result, n)
	t.reasmErr = make([]error, n)
	t.windows = make([]timerange.Range, n)
	t.mcts = make([]mct.Result, n)
	t.hasMCT = make([]bool, n)
	t.facs = make([]*factors.Report, n)
	t.spans = make([][2]time.Duration, n)
	t.labels = make([]string, n)
	for i, c := range t.conns {
		t.labels[i] = c.Sender.String() + "->" + c.Receiver.String()
	}
}

// readArchive decodes the collector archive and groups it by router, as
// each quagga-mrt analysis does before its connections are analyzed.
func (t *tracer) readArchive() error {
	recs, err := mrt.ReadAll(bytes.NewReader(t.b.in.MRT))
	if err != nil {
		return err
	}
	t.byPeer = bucketByPeer(recs)
	return nil
}

// buildStreams recovers each connection's BGP stream once, outside the
// timing, from the reassembled messages' wire bytes.
func (t *tracer) buildStreams() error {
	t.streams = make([][]byte, len(t.conns))
	for i, c := range t.conns {
		res, err := reassembly.ReassembleOpts(c, reassembly.Options{KeepRaw: true})
		if err != nil {
			return fmt.Errorf("%s: rebuilding stream: %w", t.b.w.Name, err)
		}
		var buf []byte
		for _, m := range res.Messages {
			buf = append(buf, m.Raw...)
		}
		t.streams[i] = buf
	}
	return nil
}

func (t *tracer) series(i int) error {
	var rec *explain.Recorder
	if t.b.w.Explain {
		rec = explain.New()
	}
	t.recs[i] = rec
	t.cats[i] = series.Generate(t.conns[i], series.Config{Explain: rec})
	return nil
}

func (t *tracer) reassemble(i int) error {
	t.reasm[i], t.reasmErr[i] = reassembly.ReassembleOpts(t.conns[i], reassembly.Options{})
	t.streamBytes += t.reasm[i].StreamBytes
	return nil
}

func (t *tracer) split(i int) error {
	msgs, _, err := bgp.SplitStream(t.streams[i])
	t.msgs += len(msgs)
	return err
}

// mct estimates the transfer end and derives the analysis window exactly
// as core does, falling back to the last data packet.
func (t *tracer) mct(i int) error {
	c := t.conns[i]
	var ups []mct.Update
	if t.b.w.MRT {
		ups = mct.FromMRT(scope(t.byPeer, c))
	} else if res := t.reasm[i]; t.reasmErr[i] == nil && len(res.Messages) > 0 {
		times := make([]core.Micros, len(res.Messages))
		msgs := make([]bgp.Message, len(res.Messages))
		for j, m := range res.Messages {
			times[j], msgs[j] = m.Time, m.Msg
		}
		ups = mct.FromMessages(times, msgs)
	}
	t.updates += len(ups)
	t.hasMCT[i] = false
	if len(ups) > 0 {
		t.mcts[i], t.hasMCT[i] = mct.FindEnd(ups, mct.Config{})
	}
	start, end := c.Profile.Start, c.Profile.End
	if t.hasMCT[i] {
		end = t.mcts[i].End
	} else if len(c.Data) > 0 {
		end = c.Data[len(c.Data)-1].Time
	}
	if end <= start {
		end = start + 1
	}
	t.windows[i] = timerange.R(start, end)
	return nil
}

func (t *tracer) factors(i int) error {
	t.facs[i] = factors.AnalyzeEv(t.cats[i], t.windows[i], 0, t.recs[i])
	return nil
}

func (t *tracer) detect(i int) error {
	cat, win, rec := t.cats[i], t.windows[i], t.recs[i]
	detect.TimerGapsEv(cat, win, 0, rec)
	detect.ConsecutiveLossesEv(cat, win, 0, rec)
	detect.ZeroAckBugEv(cat, rec)
	t.evidence += len(rec.Evidence())
	return nil
}

// crossCheck requires every connection's layer-by-layer window, MCT
// result and factor vectors to equal the end-to-end reference.
func (t *tracer) crossCheck() error {
	ref := t.b.ref
	if len(t.conns) != len(ref.fps) {
		return fmt.Errorf("%s: traced run found %d connections, reference %d", t.b.w.Name, len(t.conns), len(ref.fps))
	}
	for i, c := range t.conns {
		j, ok := ref.index[c.Sender.Addr]
		if !ok || !ref.present[j] {
			return fmt.Errorf("%s: traced connection %s has no reference", t.b.w.Name, t.labels[i])
		}
		fp := ref.fps[j]
		if t.windows[i] != fp.Window || t.hasMCT[i] != fp.HasMCT || t.mcts[i] != fp.MCT ||
			t.facs[i].V != fp.V || t.facs[i].G != fp.G {
			return fmt.Errorf("%s: traced analysis of %s differs from the end-to-end report", t.b.w.Name, t.labels[i])
		}
	}
	return nil
}

// metrics turns the pass medians into per-layer self times and counts,
// scaling times to the reference host. Every layer is measured on every
// workload's inputs, but the pipeline runs either the archive reader or
// reassembly and BGP parsing (with MRT, its mct pass parses the archive),
// so the sum that core.ms_unaccounted subtracts leaves the others out.
func (t *tracer) metrics(scale float64) map[string]result.Metric {
	ms := func(p passID) float64 { return result.Median(t.ns[p]) / 1e6 * scale }
	al := func(p passID) float64 { return result.Median(t.allocs[p]) }
	// A layer inside a pass is the pass minus the pass within it, taken
	// round by round so that host drift between rounds cancels.
	selfMs := func(outer, inner passID) float64 {
		d := make([]float64, len(t.ns[outer]))
		for i := range d {
			d[i] = t.ns[outer][i] - t.ns[inner][i]
		}
		return result.Median(d) / 1e6 * scale
	}
	layers := map[string]float64{
		"mrt.ms":        ms(passMRT),
		"pcapio.ms":     ms(passRead),
		"packet.ms":     selfMs(passDecode, passRead),
		"flows.ms":      selfMs(passDemux, passDecode),
		"series.ms":     ms(passSeries),
		"reassembly.ms": selfMs(passReassembly, passBGP),
		"bgp.ms":        ms(passBGP),
		"mct.ms":        ms(passMCT),
		"factors.ms":    ms(passFactors),
		"detect.ms":     ms(passDetect),
	}
	m := map[string]result.Metric{}
	unused := map[string]bool{"mrt.ms": true}
	if t.b.w.MRT {
		unused = map[string]bool{"reassembly.ms": true, "bgp.ms": true}
	}
	var sum float64
	for name, v := range layers {
		m[name] = result.Metric{Value: v, Unit: "ms"}
		if !unused[name] {
			sum += v
		}
	}
	count := func(name string, v float64) { m[name] = result.Metric{Value: v, Unit: "count"} }
	count("mrt.allocs", al(passMRT))
	count("pcapio.records", float64(t.records))
	count("packet.skipped", float64(t.skipped))
	count("flows.allocs", al(passDemux)-al(passDecode))
	count("flows.conns", float64(len(t.conns)))
	count("flows.early_emits", float64(t.earlyEmits))
	count("series.allocs", al(passSeries))
	count("reassembly.allocs", al(passReassembly)-al(passBGP))
	count("bgp.allocs", al(passBGP))
	count("bgp.msgs", float64(t.msgs))
	count("mct.allocs", al(passMCT))
	count("mct.updates", float64(t.updates))
	count("explain.evidence", float64(t.evidence))
	m["reassembly.stream_mb"] = result.Metric{Value: float64(t.streamBytes) / (1 << 20), Unit: "MB"}
	w1, w2 := ms(passCoreW1), ms(passCoreW2)
	m["core.parallel_eff"] = result.Metric{Value: w1 / (w2 * 2), Unit: "ratio"}
	m["core.ms_unaccounted"] = result.Metric{Value: w1 - sum, Unit: "ms"}
	return m
}
