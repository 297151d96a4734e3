// Command tracegen synthesizes BGP/TCP capture files: it runs one
// table-transfer scenario in the discrete-event simulator and writes the
// sniffer's pcap plus the collector's MRT archive — ready for tdat,
// pcap2bgp, tcpprof, or bgplot.
//
// Usage:
//
//	tracegen -kind paced -routes 12000 -seed 1 -o transfer.pcap [-mrt transfer.mrt]
//	tracegen -dataset ispa-vendor -n 20 -outdir traces/   # a whole dataset
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tdat/internal/mrt"
	"tdat/internal/netem"
	"tdat/internal/obs"
	"tdat/internal/tcpsim"
	"tdat/internal/tracegen"
)

// parseGE reads the -burst-loss value: three comma-separated probabilities
// pGoodBad,pBadGood,dropBad of the Gilbert-Elliott loss process.
func parseGE(s string) (*netem.GEParams, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("want pGoodBad,pBadGood,dropBad, got %q", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("field %d of %q: %v", i+1, s, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("field %d of %q: %v outside [0,1]", i+1, s, v)
		}
		vals[i] = v
	}
	return &netem.GEParams{PGoodBad: vals[0], PBadGood: vals[1], DropBad: vals[2]}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the golden tests drive it
// in-process with buffers for stdout and stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset  = fs.String("dataset", "", "write a whole dataset: ispa-vendor|ispa-quagga|routeviews")
		n        = fs.Int("n", 20, "transfers in the dataset (-dataset mode)")
		outdir   = fs.String("outdir", "traces", "output directory (-dataset mode)")
		kind     = fs.String("kind", "clean", "scenario kind: clean|paced|slow-receiver|small-window|upstream-loss|downstream-loss|bandwidth|zero-ack-bug|heavy-tail-app|bimodal-app|varying-rate|fanout")
		routes   = fs.Int("routes", 12_000, "routing table size")
		seed     = fs.Int64("seed", 1, "random seed")
		rtt      = fs.Int64("rtt", 8_000, "round-trip propagation in microseconds")
		out      = fs.String("o", "transfer.pcap", "output pcap file")
		mrtOut   = fs.String("mrt", "", "also write the collector MRT archive here")
		timer    = fs.Int64("timer", 200_000, "pacing timer (paced kind), microseconds")
		budget   = fs.Int("budget", 24, "updates per pacing tick (paced kind)")
		rate     = fs.Int64("rate", 0, "collector processing or link rate override, bytes/sec")
		recvbuf  = fs.Int("recvbuf", 0, "collector receive buffer override, bytes")
		stack    = fs.String("stack", "reno", "sender stack: reno|cubic|rate-paced|sack|stretch-ack|wscale-bug")
		lossRate = fs.Float64("loss", 0, "drop probability override for the loss kinds")
		profile  = fs.String("rate-profile", "", "varying-rate capacity shape: step|sawtooth")
		rateLow  = fs.Int64("rate-low", 0, "varying-rate trough capacity, bytes/sec")
		ratePer  = fs.Int64("rate-period", 0, "varying-rate profile period, microseconds")
		burst    = fs.String("burst-loss", "", "Gilbert-Elliott burst loss for the loss kinds as pGoodBad,pBadGood,dropBad (e.g. 0.05,0.25,0.9)")
		members  = fs.Int("members", 0, "fanout peer-group size")
		slack    = fs.Int("slack", 0, "fanout peer-group slack bound, updates")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 2
	}

	if *dataset != "" {
		return writeDataset(stdout, *dataset, *n, *seed, *outdir)
	}

	k, err := tracegen.ParseKind(*kind)
	if err != nil {
		slog.Error("unknown kind", "err", err)
		return 2
	}
	st, err := tcpsim.ParseStack(*stack)
	if err != nil {
		slog.Error("unknown stack", "err", err)
		return 2
	}
	sc := tracegen.Scenario{
		Kind: k, Seed: *seed, Routes: *routes, RTT: *rtt,
		PacingTimer: *timer, PacingBudget: *budget, Stack: st,
		LossRate: *lossRate, RateProfile: *profile, RateLow: *rateLow,
		RatePeriod: tracegen.Micros(*ratePer), GroupMembers: *members,
		GroupSlack: *slack,
	}
	if *rate > 0 {
		sc.CollectorRate = *rate
		sc.UpstreamRate = *rate
	}
	if *recvbuf > 0 {
		sc.RecvBuf = *recvbuf
	}
	if *burst != "" {
		ge, err := parseGE(*burst)
		if err != nil {
			slog.Error("bad -burst-loss", "err", err)
			return 2
		}
		sc.BurstLoss = ge
	}
	tr := tracegen.Run(sc)
	fmt.Fprintf(stdout, "scenario %s: %d captures, %d routes delivered, ground duration %.2fs\n",
		k, len(tr.Captures), tr.RoutesDelivered, float64(tr.GroundDuration)/1e6)

	if err := writeFile(*out, tr.WritePcap); err != nil {
		slog.Error("writing output", "err", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)

	if *mrtOut != "" {
		err := writeFile(*mrtOut, func(w io.Writer) error {
			mw := mrt.NewWriter(w)
			if err := tr.WriteMRT(mw); err != nil {
				return err
			}
			return mw.Flush()
		})
		if err != nil {
			slog.Error("writing output", "err", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d records)\n", *mrtOut, len(tr.Archive))
	}
	return 0
}

// writeDataset generates a whole profile's worth of transfers as numbered
// pcap files (plus one merged MRT archive), mimicking a collection
// deployment's output directory. It holds one transfer in memory at a
// time.
func writeDataset(stdout io.Writer, name string, n int, seed int64, dir string) int {
	var profile tracegen.DatasetProfile
	switch name {
	case "ispa-vendor":
		profile = tracegen.ISPAVendor(n, max(2, n/8), seed)
	case "ispa-quagga":
		profile = tracegen.ISPAQuagga(n, max(2, n/8), seed)
	case "routeviews":
		profile = tracegen.RouteViews(n, max(2, n/8), seed)
	default:
		slog.Error("unknown dataset", "dataset", name)
		return 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		slog.Error("writing output", "err", err)
		return 1
	}
	err := writeFile(filepath.Join(dir, "archive.mrt"), func(w io.Writer) error {
		mw := mrt.NewWriter(w)
		for _, pk := range profile.Picks() {
			tr := tracegen.RunWithProfile(pk.Scenario, profile)
			pcap := filepath.Join(dir, fmt.Sprintf("transfer-%03d-%s.pcap", pk.Index, tr.Kind))
			if err := writeFile(pcap, tr.WritePcap); err != nil {
				return err
			}
			if err := tr.WriteMRT(mw); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d packets, %s, router %d)\n",
				pcap, len(tr.Captures), tr.Kind, pk.Router.ID)
		}
		return mw.Flush()
	})
	if err != nil {
		slog.Error("writing output", "err", err)
		return 1
	}
	fmt.Fprintf(stdout, "dataset %s: %d transfers under %s\n", profile.Name, n, dir)
	return 0
}

// writeFile creates path, fills it with write, and closes it, reporting
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
