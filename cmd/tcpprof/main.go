// Command tcpprof is the repo's mini-tcptrace (paper Table VI, tcptrace'):
// it extracts TCP connections from a pcap trace and prints per-connection
// profiles — endpoints, duration, RTT, MSS, advertised windows, volumes,
// and retransmission/out-of-sequence/reordering labels.
//
// Usage:
//
//	tcpprof trace.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"tdat/internal/flows"
	"tdat/internal/obs"
	"tdat/internal/pcapio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the golden tests drive it
// in-process with buffers for stdout and stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcpprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "tcpprof: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tcpprof [flags] trace.pcap")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		slog.Error("opening trace", "err", err)
		return 1
	}
	defer f.Close()
	recs, err := pcapio.ReadAll(f)
	if err != nil && len(recs) == 0 {
		slog.Error("reading trace", "err", err)
		return 1
	}
	if err != nil {
		slog.Warn("trace truncated (tcpdump drop?)", "records", len(recs), "err", err)
	}
	conns, skipped := flows.FromPcap(recs)
	fmt.Fprintf(stdout, "%d records (%d undecodable), %d connections\n\n", len(recs), skipped, len(conns))
	for i, c := range conns {
		p := c.Profile
		fmt.Fprintf(stdout, "conn %d: %s -> %s\n", i, c.Sender, c.Receiver)
		fmt.Fprintf(stdout, "  span: %.3fs - %.3fs (%.3fs)\n",
			float64(p.Start)/1e6, float64(p.End)/1e6, float64(p.End-p.Start)/1e6)
		fmt.Fprintf(stdout, "  rtt: %.2fms  mss: %d  max adv window: %d  initiator=sender: %v\n",
			float64(p.RTT)/1e3, p.MSS, p.MaxAdvWindow, p.InitiatorIsSender)
		fmt.Fprintf(stdout, "  data: %d bytes in %d packets; acks: %d\n",
			p.TotalDataBytes, p.TotalDataPackets, len(c.Acks))
		fmt.Fprintf(stdout, "  retransmissions: %d  out-of-sequence: %d  reordered: %d\n",
			p.RetransmitCount, p.GapFillCount, p.ReorderCount)
		fmt.Fprintf(stdout, "  loss recovery: upstream %.3fs in %d ranges, downstream %.3fs in %d ranges\n\n",
			float64(c.UpstreamLoss.Size())/1e6, c.UpstreamLoss.Len(),
			float64(c.DownstreamLoss.Size())/1e6, c.DownstreamLoss.Len())
	}
	return 0
}
