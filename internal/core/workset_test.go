package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tdat/internal/flows"
	"tdat/internal/obs"
	"tdat/internal/tracegen"
)

// bigRoutes is the table size of a paced transfer whose working set is
// several times the other captures'.
const bigRoutes = 24_000

// reuseCaptures are the captures one Analyzer is shared across: a gate-style
// mix, a reset-split session, a lossy one, and a large paced transfer.
func reuseCaptures(t *testing.T) map[string][]byte {
	t.Helper()
	pcap := func(pkts []flows.TimedPacket) []byte {
		data, _ := writePcap(t, pkts, 0)
		return data
	}
	return map[string][]byte{
		"gate": pcap(multiConnPackets(t, 6)),
		"reset": pcap(tracegen.RunWithReset(tracegen.Scenario{
			Kind: tracegen.KindPaced, Seed: 73, Routes: 4_000,
			PacingTimer: 200_000, PacingBudget: 24, Horizon: 120_000_000,
		}, 700_000).Packets()),
		"lossy": pcap(tracegen.Run(tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 512010, Routes: 1_500}).Packets()),
		"big": pcap(tracegen.Run(tracegen.Scenario{
			Kind: tracegen.KindPaced, Seed: 74, Routes: bigRoutes,
			PacingTimer: 200_000, PacingBudget: 24,
		}).Packets()),
	}
}

// TestSharedAnalyzerByteIdentical shares one Analyzer, and so its
// transfer-end working sets, across four goroutines analyzing every capture
// at once, each in its own order: every report must equal a fresh
// Analyzer's byte for byte. Before that, the same Analyzer analyzes the
// large capture and then the small ones, so nothing of a larger transfer
// may leak into a smaller one. Run it under -race.
func TestSharedAnalyzerByteIdentical(t *testing.T) {
	caps := reuseCaptures(t)
	names := []string{"big", "gate", "reset", "lossy"}
	analyze := func(a *Analyzer, name string) (*Report, error) {
		rep, err := a.AnalyzePcap(bytes.NewReader(caps[name]))
		if err == nil && (len(rep.Transfers) == 0 || len(rep.Failures) > 0) {
			err = fmt.Errorf("%d transfers, failures %v", len(rep.Transfers), rep.Failures)
		}
		return rep, err
	}
	for _, workers := range []int{1, 2} {
		want := map[string][]byte{}
		for _, name := range names {
			rep, err := analyze(New(Config{Workers: workers}), name)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			want[name] = serializeReport(t, rep)
		}
		shared := New(Config{Workers: workers})
		for _, name := range names {
			rep, err := analyze(shared, name)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			if !bytes.Equal(serializeReport(t, rep), want[name]) {
				t.Errorf("workers=%d %s: report after the larger captures differs from a fresh Analyzer's", workers, name)
			}
		}
		// Goroutine g analyzes names[(g+i)%len(names)] as its i-th capture.
		reps := make([][]*Report, 4)
		errs := make([]error, len(reps))
		var wg sync.WaitGroup
		for g := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range names {
					rep, err := analyze(shared, names[(g+i)%len(names)])
					if err != nil {
						errs[g] = err
						return
					}
					reps[g] = append(reps[g], rep)
				}
			}()
		}
		wg.Wait()
		for g, rs := range reps {
			if errs[g] != nil {
				t.Fatalf("workers=%d goroutine %d: %v", workers, g, errs[g])
			}
			for i, rep := range rs {
				if name := names[(g+i)%len(names)]; !bytes.Equal(serializeReport(t, rep), want[name]) {
					t.Errorf("workers=%d goroutine %d %s: report differs from a fresh Analyzer's", workers, g, name)
				}
			}
		}
	}
}

// TestWarmTransferEndAllocatesNothing checks that once an Analyzer's
// working set has grown to a connection, estimating its transfer end again
// allocates nothing, for a small transfer and a large one.
func TestWarmTransferEndAllocatesNothing(t *testing.T) {
	for _, sc := range []tracegen.Scenario{
		{Kind: tracegen.KindClean, Seed: 75, Routes: 2_000},
		{Kind: tracegen.KindPaced, Seed: 74, Routes: bigRoutes, PacingTimer: 200_000, PacingBudget: 24},
	} {
		conns := flows.Extract(tracegen.Run(sc).Packets())
		if len(conns) != 1 {
			t.Fatalf("%d routes: %d connections", sc.Routes, len(conns))
		}
		a := New(Config{Workers: 1})
		var tr TransferReport
		res, ok := a.reassembleEnd(conns[0], &tr)
		if !ok || res.UniquePrefixes == 0 || tr.ReassemblyError != "" {
			t.Fatalf("%d routes: end %+v, ok %v, error %q", sc.Routes, res, ok, tr.ReassemblyError)
		}
		if allocs := testing.AllocsPerRun(10, func() { a.reassembleEnd(conns[0], &tr) }); allocs != 0 {
			t.Errorf("%d routes: a warm transfer end allocates %.1f times, want 0", sc.Routes, allocs)
		}
	}
}

// TestRecycledPayloadBlocks holds the capture-level entries to the payload
// recycling contract. One Analyzer analyzes capture A, keeps the report,
// analyzes capture B, whose payloads refill A's blocks, and then A again.
// No report may carry a payload view, and every report, the kept one
// included, must render its text, JSON and evidence exactly as a fresh
// Analyzer's does. It runs both entries at workers 1 and 2, with
// observability off and on (on, AnalyzePcap takes the pool path even at
// one worker). Run it under -race.
func TestRecycledPayloadBlocks(t *testing.T) {
	pkts := [][]flows.TimedPacket{
		multiConnPackets(t, 4),
		tracegen.Run(tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 512010, Routes: 1_500}).Packets(),
	}
	var pcaps [][]byte
	for _, p := range pkts {
		data, _ := writePcap(t, p, 0)
		pcaps = append(pcaps, data)
	}
	entries := []struct {
		name    string
		analyze func(a *Analyzer, capture int) (*Report, error)
	}{
		{"AnalyzePcap", func(a *Analyzer, i int) (*Report, error) { return a.AnalyzePcap(bytes.NewReader(pcaps[i])) }},
		{"AnalyzePackets", func(a *Analyzer, i int) (*Report, error) { return a.AnalyzePackets(pkts[i]), nil }},
	}
	render := func(rep *Report) []byte {
		out := serializeReport(t, rep)
		ex := rep.Explain()
		buf := bytes.NewBuffer(out)
		if err := ex.WriteText(buf); err != nil {
			t.Fatal(err)
		}
		if err := ex.WriteJSON(buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, e := range entries {
		for _, workers := range []int{1, 2} {
			for _, withObs := range []bool{false, true} {
				name := fmt.Sprintf("%s workers=%d obs=%v", e.name, workers, withObs)
				analyzer := func() *Analyzer {
					cfg := Config{Workers: workers, Explain: true}
					if withObs {
						cfg.Obs = obs.New()
					}
					return New(cfg)
				}
				analyze := func(a *Analyzer, i int) *Report {
					rep, err := e.analyze(a, i)
					if err != nil {
						t.Fatalf("%s, capture %d: %v", name, i, err)
					}
					if len(rep.Transfers) == 0 || len(rep.Failures) > 0 {
						t.Fatalf("%s, capture %d: %d transfers, failures %v", name, i, len(rep.Transfers), rep.Failures)
					}
					return rep
				}
				want := [][]byte{render(analyze(analyzer(), 0)), render(analyze(analyzer(), 1))}
				a := analyzer()
				order := []int{0, 1, 0}
				var reps []*Report
				for _, i := range order {
					reps = append(reps, analyze(a, i))
				}
				for k, rep := range reps {
					for _, tr := range rep.Transfers {
						for j, d := range tr.Conn.Data {
							if d.Payload != nil {
								t.Fatalf("%s, analysis %d: %v keeps the payload of data event %d", name, k, tr.Conn.Sender, j)
							}
						}
					}
					if !bytes.Equal(render(rep), want[order[k]]) {
						t.Errorf("%s, analysis %d: report differs from a fresh Analyzer's", name, k)
					}
				}
			}
		}
	}
}
