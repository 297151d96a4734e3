// Command bgplot renders a pcap trace as terminal graphics — the repo's
// stand-in for the paper's BGPlot/SCNMPlot (Table VI): a tcptrace-style
// time-sequence diagram plus the derived T-DAT event-series lanes.
//
// Usage:
//
//	bgplot [-conn 0] [-width 110] [-height 20] [-log-level info] trace.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"tdat/internal/asciiplot"
	"tdat/internal/core"
	"tdat/internal/obs"
	"tdat/internal/series"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the golden test drives it
// in-process with buffers for stdout and stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgplot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		connIdx  = fs.Int("conn", 0, "connection index to plot")
		width    = fs.Int("width", 110, "plot width in columns")
		height   = fs.Int("height", 20, "time-sequence plot height in rows")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "bgplot: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: bgplot [flags] trace.pcap")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		slog.Error("opening trace", "err", err)
		return 1
	}
	defer f.Close()

	rep, err := core.New(core.Config{}).AnalyzePcap(f)
	if err != nil {
		slog.Error("analysis failed", "err", err)
		return 1
	}
	if *connIdx < 0 || *connIdx >= len(rep.Transfers) {
		slog.Error("connection index out of range", "conn", *connIdx, "connections", len(rep.Transfers))
		return 1
	}
	t := rep.Transfers[*connIdx]
	fmt.Fprintf(stdout, "connection %s -> %s (transfer %.2fs)\n\n",
		t.Conn.Sender, t.Conn.Receiver, float64(t.Duration())/1e6)
	if err := asciiplot.TimeSequence(stdout, t.Conn, *width, *height); err != nil {
		slog.Error("rendering time-sequence plot", "err", err)
		return 1
	}
	fmt.Fprintln(stdout)
	rows := []asciiplot.Row{
		{Label: "Transmission", Set: t.Catalog.Get(series.Transmission)},
		{Label: "Outstanding", Set: t.Catalog.Get(series.Outstanding)},
		{Label: "SendAppLimited", Set: t.Catalog.Get(series.SendAppLimited)},
		{Label: "AdvBndOut", Set: t.Catalog.Get(series.AdvBndOut)},
		{Label: "CwndBndOut", Set: t.Catalog.Get(series.CwndBndOut)},
		{Label: "UpstreamLoss", Set: t.Catalog.Get(series.UpstreamLoss)},
		{Label: "DownstreamLoss", Set: t.Catalog.Get(series.DownstreamLoss)},
		{Label: "ZeroAdvWindow", Set: t.Catalog.Get(series.ZeroAdvWindow)},
		{Label: "BandwidthLimited", Set: t.Catalog.Get(series.BandwidthLimited)},
	}
	if err := asciiplot.Series(stdout, t.Transfer, rows, *width); err != nil {
		slog.Error("rendering series lanes", "err", err)
		return 1
	}
	return 0
}
