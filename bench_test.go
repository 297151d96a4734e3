// Benchmarks that regenerate every table and figure of the paper's
// evaluation (printed once per run), plus microbenchmarks of the hot data
// structures and ablations of the analyzer's design choices.
//
//	go test -bench=. -benchmem
package tdat_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tdat/internal/core"
	"tdat/internal/experiments"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/netem"
	"tdat/internal/obs"
	"tdat/internal/pcapio"
	"tdat/internal/series"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// sharedSuite generates the three datasets once per bench run; the per-
// iteration work of the table/figure benches is the aggregation itself.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		// Progress goes to stderr: stdout carries the regenerated tables and
		// figures, and tooling (benchstat, the CI perf gate) parses it.
		fmt.Fprintln(os.Stderr, "# generating benchmark suite (default scale, seed 42)...")
		suite = experiments.RunSuite(experiments.DefaultScale())
	})
	return suite
}

// onceEach prints each experiment's rows exactly once per bench run.
var printed sync.Map

func printOnce(key string, f func(w io.Writer)) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		f(os.Stdout)
	}
}

// --- Paper tables ---

func BenchmarkTable1Datasets(b *testing.B) {
	s := sharedSuite(b)
	printOnce("table1", func(w io.Writer) { experiments.Table1(w, s) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard, s)
	}
}

func BenchmarkTable2Problems(b *testing.B) {
	s := sharedSuite(b)
	printOnce("table2", func(w io.Writer) { experiments.Table2(w, s, 3) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard, s, 3)
	}
}

func BenchmarkTable3RetxDelays(b *testing.B) {
	printOnce("table3", func(w io.Writer) { experiments.Table3(w, 1042) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard, 1042)
	}
}

func BenchmarkTable4Factors(b *testing.B) {
	s := sharedSuite(b)
	printOnce("table4", func(w io.Writer) { experiments.Table4(w, s) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard, s)
	}
}

func BenchmarkTable5ProblemDelay(b *testing.B) {
	s := sharedSuite(b)
	printOnce("table5", func(w io.Writer) { experiments.Table5(w, s, 3) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard, s, 1)
	}
}

// --- Paper figures ---

func BenchmarkFig3DurationCDF(b *testing.B) {
	s := sharedSuite(b)
	printOnce("fig3", func(w io.Writer) { experiments.Fig3(w, s) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(io.Discard, s)
	}
}

func BenchmarkFig4StretchCDF(b *testing.B) {
	s := sharedSuite(b)
	printOnce("fig4", func(w io.Writer) { experiments.Fig4(w, s) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig4(io.Discard, s)
	}
}

func BenchmarkFig5TimerGapExample(b *testing.B) {
	printOnce("fig5", func(w io.Writer) { experiments.Fig5(w, 1043) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard, 1043)
	}
}

func BenchmarkFig6ConsecutiveRetx(b *testing.B) {
	printOnce("fig6", func(w io.Writer) { experiments.Fig6(w, 1044) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(io.Discard, 1044)
	}
}

func BenchmarkFig7DownstreamLoss(b *testing.B) {
	printOnce("fig7", func(w io.Writer) { experiments.Fig7(w, 1045) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(io.Discard, 1045)
	}
}

func BenchmarkFig8UpstreamLoss(b *testing.B) {
	printOnce("fig8", func(w io.Writer) { experiments.Fig8(w, 1046) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(io.Discard, 1046)
	}
}

func BenchmarkFig9PeerGroupBlocking(b *testing.B) {
	printOnce("fig9", func(w io.Writer) { experiments.Fig9(w, 1047) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(io.Discard, 1047)
	}
}

func BenchmarkFig11SeriesExample(b *testing.B) {
	printOnce("fig11", func(w io.Writer) { experiments.Fig11(w, 1048) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(io.Discard, 1048)
	}
}

func BenchmarkFig14Scatter(b *testing.B) {
	s := sharedSuite(b)
	printOnce("fig14", func(w io.Writer) { experiments.Fig14(w, s) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig14(io.Discard, s)
	}
}

func BenchmarkFig15Concurrent(b *testing.B) {
	printOnce("fig15", func(w io.Writer) { experiments.Fig15(w, 1049, nil) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig15(io.Discard, 1049, []int{1, 8})
	}
}

func BenchmarkFig16DurationByFactor(b *testing.B) {
	s := sharedSuite(b)
	printOnce("fig16", func(w io.Writer) { experiments.Fig16(w, s) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig16(io.Discard, s)
	}
}

func BenchmarkFig17TimerKnee(b *testing.B) {
	s := sharedSuite(b)
	printOnce("fig17", func(w io.Writer) {
		experiments.Fig17(w, s)
		experiments.Fig17Gaps(w, s)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig17(io.Discard, s)
	}
}

// --- Parallel pipeline (connections fan out to the worker pool) ---

// parallelSuite builds one merged 32-connection capture (distinct router
// addresses, mixed pathologies) shared by the parallel benchmarks.
var (
	parallelOnce sync.Once
	parallelPkts []flows.TimedPacket
)

func parallelTrace(b *testing.B) []flows.TimedPacket {
	b.Helper()
	parallelOnce.Do(func() {
		const conns = 32
		for i := 0; i < conns; i++ {
			sc := tracegen.Scenario{Seed: int64(8000 + i), Routes: 2_000 + 250*(i%4)}
			switch i % 3 {
			case 0:
				sc.Kind = tracegen.KindPaced
				sc.PacingTimer = 200_000
				sc.PacingBudget = 24
			case 1:
				sc.Kind = tracegen.KindClean
			default:
				sc.Kind = tracegen.KindBandwidth
				sc.UpstreamRate = 120_000
			}
			tr := tracegen.Run(sc)
			// Each scenario simulates the same address pair; give every
			// transfer its own router address so the capture holds 32
			// distinct connections.
			addr := netip.AddrFrom4([4]byte{10, 2, 0, byte(i) + 1})
			for _, tp := range tr.Packets() {
				if tp.Pkt.TCP.SrcPort == 179 {
					tp.Pkt.IP.Src = addr
				} else {
					tp.Pkt.IP.Dst = addr
				}
				parallelPkts = append(parallelPkts, tp)
			}
		}
		sort.SliceStable(parallelPkts, func(i, j int) bool {
			return parallelPkts[i].Time < parallelPkts[j].Time
		})
	})
	return parallelPkts
}

// BenchmarkAnalyzeParallel measures whole-capture analysis throughput in
// connections/sec as the worker pool grows. Reports are byte-identical at
// every worker count (see core's TestParallelAnalysisByteIdentical); only
// wall-clock changes. Scaling needs real cores: on a 1-CPU box every row
// reports roughly the same rate.
func BenchmarkAnalyzeParallel(b *testing.B) {
	pkts := parallelTrace(b)
	ws := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		ws = append(ws, n)
	}
	for _, w := range ws {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			analyzer := core.New(core.Config{Workers: w})
			var conns int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := analyzer.AnalyzePackets(pkts)
				conns = len(rep.Transfers)
			}
			if conns != 32 {
				b.Fatalf("transfers = %d, want 32", conns)
			}
			b.ReportMetric(float64(conns)*float64(b.N)/b.Elapsed().Seconds(), "conns/sec")
		})
	}
}

// BenchmarkAnalyzeParallelObs quantifies the observability layer's cost on
// the same workload: disabled (Config.Obs nil — the default fast path,
// whose regression budget vs. the uninstrumented seed is <2%), enabled
// (metrics + stage histograms), and enabled with the span log draining to
// io.Discard. The disabled row is the one BenchmarkAnalyzeParallel also
// exercises; the enabled rows price the full instrumentation.
func BenchmarkAnalyzeParallelObs(b *testing.B) {
	pkts := parallelTrace(b)
	modes := []struct {
		name string
		mk   func() *obs.Obs
	}{
		{"disabled", func() *obs.Obs { return nil }},
		{"enabled", obs.New},
		{"enabled+spanlog", func() *obs.Obs {
			o := obs.New()
			o.SetSpanLog(io.Discard)
			return o
		}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			analyzer := core.New(core.Config{Workers: 1, Obs: m.mk()})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := analyzer.AnalyzePackets(pkts)
				if len(rep.Transfers) != 32 {
					b.Fatalf("transfers = %d, want 32", len(rep.Transfers))
				}
			}
			b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "conns/sec")
		})
	}
}

// BenchmarkAnalyzeParallelStream is the same workload through the
// streaming pcap path — ingest, demux, and the analysis pool overlap.
func BenchmarkAnalyzeParallelStream(b *testing.B) {
	pkts := parallelTrace(b)
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf)
	for _, tp := range pkts {
		frame, err := tp.Pkt.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WritePacket(tp.Time, frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	ws := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		ws = append(ws, n)
	}
	for _, nw := range ws {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			analyzer := core.New(core.Config{Workers: nw})
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := analyzer.AnalyzePcap(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Transfers) != 32 {
					b.Fatalf("transfers = %d", len(rep.Transfers))
				}
			}
			b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "conns/sec")
		})
	}
}

// --- Analyzer throughput (paper §V-C: 26 s/connection in Perl) ---

func BenchmarkAnalyzerThroughput(b *testing.B) {
	printOnce("throughput", func(w io.Writer) {
		fmt.Fprintf(w, "\n=== Analyzer throughput ===\n%s\n", experiments.MeasureThroughput(20, 2042))
	})
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindSlowReceiver, Seed: 2042, Routes: 12_000})
	pkts := tr.Packets()
	analyzer := core.New(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := analyzer.AnalyzePackets(pkts)
		if len(rep.Transfers) != 1 {
			b.Fatal("analysis failed")
		}
	}
	b.ReportMetric(float64(len(pkts)), "packets/conn")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationAckShift compares factor attribution with and without
// the sniffer-location ACK shift.
func BenchmarkAblationAckShift(b *testing.B) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindBandwidth, Seed: 3042, Routes: 12_000, UpstreamRate: 60_000})
	pkts := tr.Packets()
	printOnce("ablation-ackshift", func(w io.Writer) {
		fmt.Fprintf(w, "\n=== Ablation: ACK shift (bandwidth-limited transfer) ===\n")
		for _, disable := range []bool{false, true} {
			cfg := core.Config{}
			cfg.Series.DisableShift = disable
			rep := core.New(cfg).AnalyzePackets(pkts)
			t := rep.Transfers[0]
			fmt.Fprintf(w, "shift=%-5v V=%v G=%v\n", !disable, t.Factors.V, t.Factors.G)
		}
	})
	analyzer := core.New(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.AnalyzePackets(pkts)
	}
}

// BenchmarkAblationMajorThreshold sweeps the major-factor cutoff (paper
// claims 0.3–0.5 is qualitatively stable).
func BenchmarkAblationMajorThreshold(b *testing.B) {
	s := sharedSuite(b)
	printOnce("ablation-threshold", func(w io.Writer) {
		fmt.Fprintf(w, "\n=== Ablation: major-factor threshold (ISPA-Vendor dominant-group counts) ===\n")
		for _, th := range []float64{0.3, 0.4, 0.5} {
			counts := map[factors.Group]int{}
			for _, t := range s.Vendor().Transfers {
				rep := factors.AnalyzeEv(t.Report.Catalog, t.Report.Transfer, th, nil)
				if !rep.Unknown() {
					counts[rep.MajorGroups[0]]++
				}
			}
			fmt.Fprintf(w, "threshold=%.1f sender=%d receiver=%d network=%d\n",
				th, counts[factors.GroupSender], counts[factors.GroupReceiver], counts[factors.GroupNetwork])
		}
	})
	t0 := s.Vendor().Transfers[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factors.AnalyzeEv(t0.Report.Catalog, t0.Report.Transfer, 0.3, nil)
	}
}

// BenchmarkAblationWindowThreshold sweeps the small-window cutoff (3·MSS in
// the paper, adopted from the rate-analysis literature).
func BenchmarkAblationWindowThreshold(b *testing.B) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindSlowReceiver, Seed: 4042, Routes: 15_000, CollectorRate: 20_000})
	pkts := tr.Packets()
	printOnce("ablation-window", func(w io.Writer) {
		fmt.Fprintf(w, "\n=== Ablation: small-window threshold (slow-receiver transfer) ===\n")
		for _, mss := range []int{2, 3, 4} {
			cfg := core.Config{}
			cfg.Series.SmallWindowMSS = mss
			rep := core.New(cfg).AnalyzePackets(pkts)
			t := rep.Transfers[0]
			fmt.Fprintf(w, "smallWindow=%d·MSS recvApp=%.2f recvWindow=%.2f\n",
				mss, t.Factors.V.At(factors.ReceiverApp), t.Factors.V.At(factors.ReceiverWindow))
		}
	})
	analyzer := core.New(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.AnalyzePackets(pkts)
	}
}

// reorderedLossyTransfer is the reordering ablation's input: an
// upstream-lossy transfer in which five pairs of back-to-back new data
// segments, spread over the capture, swap arrival times and keep their IP
// IDs, as in-network reordering leaves them. It returns the capture and
// the number of swapped pairs.
func reorderedLossyTransfer() ([]flows.TimedPacket, int) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindUpstreamLoss, Seed: 5042, Routes: 12_000, LossRate: 0.05})
	pkts := tr.Packets()
	const pairs = 5
	spacing := len(pkts) / (pairs + 1)
	swapped := 0
	for i := spacing; i+1 < len(pkts) && swapped < pairs; i++ {
		a, b := tr.Captures[i], tr.Captures[i+1]
		if a.Dir != netem.DirData || b.Dir != netem.DirData || a.Pkt.PayloadLen() == 0 ||
			b.Pkt.TCP.Seq != a.Pkt.TCP.Seq+uint32(a.Pkt.PayloadLen()) {
			continue
		}
		pkts[i].Pkt, pkts[i+1].Pkt = b.Pkt, a.Pkt
		swapped++
		i += spacing
	}
	return pkts, swapped
}

// reorderAblation analyzes pkts with the reordering filter on or off and
// returns the transfer's gap-fill and reordered segment counts and its
// network-loss ratio.
func reorderAblation(pkts []flows.TimedPacket, filter bool) (gapFills, reordered int, netLoss float64) {
	cfg := core.Config{}
	cfg.Flows.DisableReorderFilter = !filter
	t := core.New(cfg).AnalyzePackets(pkts).Transfers[0]
	return t.Conn.Profile.GapFillCount, t.Conn.Profile.ReorderCount, t.Factors.V.At(factors.NetLoss)
}

// TestReorderAblationShowsFilter: on the ablation's input, the filter
// counts every swapped segment as reordered, and without the filter each
// is one more gap fill.
func TestReorderAblationShowsFilter(t *testing.T) {
	pkts, swapped := reorderedLossyTransfer()
	if swapped != 5 {
		t.Fatalf("swapped %d pairs, want 5", swapped)
	}
	onFills, onReordered, _ := reorderAblation(pkts, true)
	offFills, offReordered, _ := reorderAblation(pkts, false)
	if onReordered != swapped || offReordered != 0 || offFills != onFills+swapped {
		t.Errorf("filter on: %d gap fills, %d reordered; off: %d gap fills, %d reordered; want %d reordered moving to gap fills",
			onFills, onReordered, offFills, offReordered, swapped)
	}
}

// BenchmarkAblationReorderFilter toggles the Jaiswal reordering filter.
func BenchmarkAblationReorderFilter(b *testing.B) {
	pkts, _ := reorderedLossyTransfer()
	printOnce("ablation-reorder", func(w io.Writer) {
		fmt.Fprintf(w, "\n=== Ablation: reordering filter (upstream-lossy transfer, five reordered pairs) ===\n")
		for _, filter := range []bool{true, false} {
			gapFills, reordered, netLoss := reorderAblation(pkts, filter)
			fmt.Fprintf(w, "filter=%-5v gapFills=%d reordered=%d netLossRatio=%.2f\n",
				filter, gapFills, reordered, netLoss)
		}
	})
	analyzer := core.New(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.AnalyzePackets(pkts)
	}
}

// BenchmarkAblationConsecLossThreshold sweeps the ≥8 consecutive-loss rule.
func BenchmarkAblationConsecLossThreshold(b *testing.B) {
	s := sharedSuite(b)
	printOnce("ablation-consec", func(w io.Writer) {
		fmt.Fprintf(w, "\n=== Ablation: consecutive-loss threshold (episodes across suite) ===\n")
		for _, th := range []int{4, 8, 16} {
			total := 0
			for _, ds := range s.Datasets {
				for _, t := range ds.Transfers {
					cfg := core.Config{ConsecutiveLossThreshold: th}
					_ = cfg
					if t.Report.ConsecLoss.MaxRun >= th {
						total++
					}
				}
			}
			fmt.Fprintf(w, "threshold=%-3d transfers with an episode: %d\n", th, total)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Vendor().Transfers[0].Report.ConsecLoss
	}
}

// --- Microbenchmarks: the set container and codecs ---

func randomSet(rnd *rand.Rand, n int) *timerange.Set {
	s := timerange.NewSet()
	for i := 0; i < n; i++ {
		start := timerange.Micros(rnd.Intn(1_000_000))
		s.Add(timerange.R(start, start+timerange.Micros(rnd.Intn(1_000))))
	}
	return s
}

func BenchmarkRangeSetAdd(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		randomSet(rnd, 1000)
	}
}

func BenchmarkRangeSetUnion(b *testing.B) {
	rnd := rand.New(rand.NewSource(2))
	x := randomSet(rnd, 1000)
	y := randomSet(rnd, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Union(y)
	}
}

func BenchmarkRangeSetIntersect(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	x := randomSet(rnd, 1000)
	y := randomSet(rnd, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkSeriesGeneration(b *testing.B) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 6042, Routes: 12_000})
	conns := flows.Extract(toTimed(tr))
	if len(conns) != 1 {
		b.Fatal("extraction failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series.Generate(conns[0], series.Config{})
	}
}

func BenchmarkFlowExtraction(b *testing.B) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 7042, Routes: 12_000})
	pkts := toTimed(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows.Extract(pkts)
	}
}

func toTimed(tr *tracegen.Trace) []flows.TimedPacket { return tr.Packets() }

// BenchmarkAccuracyGroundTruth scores the analyzer's dominant-group verdict
// against the simulator's known pathology (the reproduction's headline
// quality metric), with the ACK-shift ablation.
func BenchmarkAccuracyGroundTruth(b *testing.B) {
	printOnce("accuracy", func(w io.Writer) { experiments.AccuracyTable(w, 3042, 5) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Accuracy(3042, 1, false)
	}
}

// BenchmarkPaperScaleTransfer pushes one full-size (300k-route) table
// through the pipeline — the paper's headline "tens of minutes" case.
func BenchmarkPaperScaleTransfer(b *testing.B) {
	printOnce("paperscale", func(w io.Writer) { experiments.PaperScale(w, 5042) })
	tr := tracegen.Run(tracegen.Scenario{
		Kind: tracegen.KindPaced, Seed: 5042, Routes: 300_000,
		PacingTimer: 200_000, PacingBudget: 24, Horizon: 3_600_000_000,
	})
	pkts := tr.Packets()
	analyzer := core.New(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.AnalyzePackets(pkts)
	}
	b.ReportMetric(float64(len(pkts)), "packets")
}
