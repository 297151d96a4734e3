// Package experiments regenerates every table and figure of the paper's
// evaluation from synthetic datasets: it runs the tracegen dataset profiles
// through the full T-DAT pipeline and prints the same rows and series the
// paper reports (Tables I–V, Figures 3–17). Absolute numbers reflect the
// reproduction scale documented in EXPERIMENTS.md; the qualitative shape —
// which factors dominate where — is the claim under test.
package experiments

import (
	"fmt"
	"io"

	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/mrt"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// archiveUpdates converts a trace's collector archive to MCT updates the
// way tdat -mrt converts the collector's MRT file: through mct.FromMRT,
// which scans each message for its prefix keys with bgp.ScanMessage.
func archiveUpdates(tr *tracegen.Trace) []mct.Update {
	recs := make([]mrt.Record, len(tr.Archive))
	for i, e := range tr.Archive {
		recs[i] = mrt.Record{TimeMicros: e.Time, Raw: e.Raw}
	}
	return mct.FromMRT(recs)
}

// Micros aliases the simulator time unit.
type Micros = timerange.Micros

// Scale sets the reproduction size. The paper's datasets have 10396/436/94
// transfers; the default scale keeps the same ordering at laptop runtimes.
type Scale struct {
	VendorTransfers int
	QuaggaTransfers int
	RVTransfers     int
	VendorRouters   int
	QuaggaRouters   int
	RVRouters       int
	Seed            int64
	// Workers sizes the per-transfer generate+analyze pool (0 means
	// GOMAXPROCS, 1 strictly sequential). Every worker count yields the
	// same suite: scenario draws are sequential (tracegen.Picks) and each
	// simulation is seeded per transfer.
	Workers int
}

// DefaultScale is used by cmd/experiments and the benchmarks.
func DefaultScale() Scale {
	return Scale{
		VendorTransfers: 240, VendorRouters: 24,
		QuaggaTransfers: 120, QuaggaRouters: 27,
		RVTransfers: 94, RVRouters: 40, // RV transfer count is paper-exact
		Seed: 42,
	}
}

// FullScale is the paper-exact dataset size (Table I: 10396/436/94
// transfers). The suite takes ~10 minutes and a few GB on one core;
// RunDatasetWorkers strips packet payloads after analysis to keep that
// bounded.
func FullScale() Scale {
	return Scale{
		VendorTransfers: 10396, VendorRouters: 24,
		QuaggaTransfers: 436, QuaggaRouters: 27,
		RVTransfers: 94, RVRouters: 59,
		Seed: 42,
	}
}

// QuickScale is a fast smoke-test scale for unit tests.
func QuickScale() Scale {
	return Scale{
		VendorTransfers: 14, VendorRouters: 5,
		QuaggaTransfers: 10, QuaggaRouters: 4,
		RVTransfers: 8, RVRouters: 4,
		Seed: 7,
	}
}

// AnalyzedTransfer pairs a generated transfer with its analyzer verdict.
type AnalyzedTransfer struct {
	Router tracegen.Router
	Kind   tracegen.Kind
	Report *core.TransferReport
	// GroundDuration is the simulator's true transfer time.
	GroundDuration Micros
	// Packets and Bytes describe the capture volume.
	Packets int
	Bytes   int64
}

// Duration returns the analyzer-estimated transfer duration in seconds.
func (a *AnalyzedTransfer) Duration() float64 {
	return float64(a.Report.Duration()) / 1e6
}

// Dataset is one fully generated and analyzed dataset.
type Dataset struct {
	Name      string
	Profile   tracegen.DatasetProfile
	Transfers []AnalyzedTransfer
}

// RunDatasetWorkers generates and analyzes one dataset profile on a pool
// of workers goroutines (0 means GOMAXPROCS). Quagga-style profiles
// (UseArchive) pin the transfer end from the collector's BGP archive,
// vendor-style ones recover it from the packet payload via reassembly —
// the two pipelines of paper §II-A. Transfers are drawn sequentially
// (tracegen.Picks), then each pick's simulate+analyze runs on the pool;
// results merge in pick order, so the dataset is identical for every
// worker count.
func RunDatasetWorkers(p tracegen.DatasetProfile, workers int) *Dataset {
	ds := &Dataset{Name: p.Name, Profile: p}
	// Transfers parallelize across the pool; each transfer is a single
	// connection, so its own analysis stays sequential.
	analyzer := core.New(core.Config{Workers: 1})
	results := core.MapOrdered(workers, p.Picks(), func(pk tracegen.Pick) *AnalyzedTransfer {
		tr := tracegen.RunWithProfile(pk.Scenario, p)
		pkts := tr.Packets()
		var rep *core.Report
		if p.UseArchive {
			conns := flows.Extract(pkts)
			rep = &core.Report{}
			for _, c := range conns {
				rep.Transfers = append(rep.Transfers,
					analyzer.AnalyzeConnectionWithUpdates(c, archiveUpdates(tr)))
				// Analysis is done; drop payload bytes (AnalyzePackets'
				// reports carry none) so retaining thousands of analyzed
				// transfers (the full paper scale) stays within memory.
				for i := range c.Data {
					c.Data[i].Payload = nil
				}
			}
		} else {
			rep = analyzer.AnalyzePackets(pkts)
		}
		if len(rep.Transfers) != 1 {
			return nil // malformed capture; skip (counted as tcpdump artifact)
		}
		at := &AnalyzedTransfer{
			Router:         pk.Router,
			Kind:           tr.Kind,
			Report:         rep.Transfers[0],
			GroundDuration: tr.GroundDuration,
			Packets:        len(pkts),
		}
		for _, c := range tr.Captures {
			at.Bytes += int64(c.Pkt.WireLen())
		}
		return at
	})
	for _, at := range results {
		if at != nil {
			ds.Transfers = append(ds.Transfers, *at)
		}
	}
	return ds
}

// Suite is the full three-dataset reproduction, shared across experiments.
type Suite struct {
	Scale    Scale
	Datasets []*Dataset // Vendor, Quagga, RV
}

// RunSuite generates and analyzes all three datasets, spreading transfers
// over s.Workers goroutines.
func RunSuite(s Scale) *Suite {
	return &Suite{
		Scale: s,
		Datasets: []*Dataset{
			RunDatasetWorkers(tracegen.ISPAVendor(s.VendorTransfers, s.VendorRouters, s.Seed), s.Workers),
			RunDatasetWorkers(tracegen.ISPAQuagga(s.QuaggaTransfers, s.QuaggaRouters, s.Seed+1), s.Workers),
			RunDatasetWorkers(tracegen.RouteViews(s.RVTransfers, s.RVRouters, s.Seed+2), s.Workers),
		},
	}
}

// Vendor, Quagga, RV return the respective datasets.
func (s *Suite) Vendor() *Dataset { return s.Datasets[0] }

// Quagga returns the ISP_A Quagga dataset.
func (s *Suite) Quagga() *Dataset { return s.Datasets[1] }

// RV returns the RouteViews dataset.
func (s *Suite) RV() *Dataset { return s.Datasets[2] }

// header prints a boxed experiment title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
