// Command pcap2bgp reconstructs TCP data streams from a raw packet trace
// and extracts the BGP messages they carry, saving them in MRT format —
// the paper's side tool (§II-A, Table VI) for vendor collectors that keep
// no BGP archive of their own. It tolerates out-of-order delivery and
// retransmissions and reports capture holes instead of guessing framing.
//
// Usage:
//
//	pcap2bgp [-o out.mrt] [-v] [-online] trace.pcap
//
// With -online the trace is processed in a single pass with the streaming
// reassembler (per-direction state only), the mode a collector box would
// run live; the default mode reassembles per extracted connection.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/netip"
	"os"
	"sort"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/mrt"
	"tdat/internal/obs"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/reassembly"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the golden tests drive it
// in-process with buffers for stdout and stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcap2bgp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "output MRT file (default: stdout summary only)")
		verbose  = fs.Bool("v", false, "print per-message details")
		online   = fs.Bool("online", false, "single-pass streaming mode")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "pcap2bgp: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pcap2bgp [flags] trace.pcap")
		fs.PrintDefaults()
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		slog.Error("opening trace", "err", err)
		return 1
	}
	defer f.Close()
	if *online {
		return runOnline(f, stdout, *out, *verbose)
	}

	recs, err := pcapio.ReadAll(f)
	if err != nil && len(recs) == 0 {
		slog.Error("reading trace", "err", err)
		return 1
	}
	if err != nil {
		slog.Warn("trace truncated (tcpdump drop?)", "records", len(recs), "err", err)
	}

	conns, skipped := flows.FromPcap(recs)
	if skipped > 0 {
		slog.Warn("undecodable packets skipped", "count", skipped)
	}

	var mw *mrt.Writer
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			slog.Error("creating output", "err", err)
			return 1
		}
		defer of.Close()
		mw = mrt.NewWriter(of)
	}

	for ci, c := range conns {
		res, err := reassembly.Reassemble(c)
		if err != nil {
			fmt.Fprintf(stdout, "connection %d (%s -> %s): framing error: %v\n", ci, c.Sender, c.Receiver, err)
			continue
		}
		updates, prefixes := 0, 0
		for _, m := range res.Messages {
			if u, ok := m.Msg.(*bgp.Update); ok {
				updates++
				prefixes += len(u.NLRI)
			}
			if *verbose {
				fmt.Fprintf(stdout, "  %12d %T\n", m.Time, m.Msg)
			}
			if mw != nil {
				rec := mrt.Record{
					TimeMicros: m.Time,
					PeerIP:     c.Sender.Addr,
					LocalIP:    c.Receiver.Addr,
					Raw:        m.Raw,
				}
				if err := mw.Write(rec); err != nil {
					slog.Error("writing MRT", "err", err)
					return 1
				}
			}
		}
		fmt.Fprintf(stdout, "connection %d (%s -> %s): %d bytes, %d messages (%d updates, %d prefixes), %d capture holes\n",
			ci, c.Sender, c.Receiver, res.StreamBytes, len(res.Messages), updates, prefixes, len(res.MissingRanges))
	}
	if mw != nil {
		if err := mw.Flush(); err != nil {
			slog.Error("writing MRT", "err", err)
			return 1
		}
	}
	return 0
}

// dirKey identifies one direction of one connection.
type dirKey struct {
	src, dst     [4]byte
	sport, dport uint16
}

// runOnline reads the capture record by record into one reused record and
// packet and feeds each direction's streaming reassembler, which copies
// the bytes it keeps. The output file is created once the first record has
// been read (or the capture proved empty), so a capture with no readable
// record leaves none behind. The first failed MRT write ends the run.
func runOnline(r io.Reader, stdout io.Writer, out string, verbose bool) int {
	pr, err := pcapio.NewReader(r)
	var rec pcapio.Record
	if err == nil {
		err = pr.ReadInto(&rec)
	}
	if err != nil && err != io.EOF {
		slog.Error("reading trace", "err", err)
		return 1
	}
	var mw *mrt.Writer
	if out != "" {
		of, err := os.Create(out)
		if err != nil {
			slog.Error("creating output", "err", err)
			return 1
		}
		defer of.Close()
		mw = mrt.NewWriter(of)
	}
	type dirState struct {
		stream   *reassembly.Stream
		messages int
		updates  int
		prefixes int
		dead     bool
	}
	streams := map[dirKey]*dirState{}
	var p packet.Packet
	skipped := 0
	var writeErr error
	for ; err == nil; err = pr.ReadInto(&rec) {
		if err := packet.DecodeInto(rec.Data, &p); err != nil {
			skipped++
			continue
		}
		k := dirKey{
			src: p.IP.Src.As4(), dst: p.IP.Dst.As4(),
			sport: p.TCP.SrcPort, dport: p.TCP.DstPort,
		}
		st, ok := streams[k]
		if !ok {
			st = &dirState{}
			src, dst := p.IP.Src, p.IP.Dst
			st.stream = reassembly.NewStream(func(m reassembly.Message) {
				st.messages++
				if u, okU := m.Msg.(*bgp.Update); okU {
					st.updates++
					st.prefixes += len(u.NLRI)
				}
				if verbose {
					fmt.Fprintf(stdout, "  %12d %s->%s %T\n", m.Time, src, dst, m.Msg)
				}
				if mw != nil && writeErr == nil {
					writeErr = mw.Write(mrt.Record{
						TimeMicros: m.Time, PeerIP: src, LocalIP: dst, Raw: m.Raw,
					})
				}
			})
			streams[k] = st
		}
		if st.dead {
			continue
		}
		if err := st.stream.Packet(rec.TimeMicros, &p); err != nil {
			fmt.Fprintf(stdout, "direction %v:%d -> %v:%d: %v (direction abandoned)\n",
				p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort, err)
			st.dead = true
		}
		if writeErr != nil {
			slog.Error("writing MRT", "err", writeErr)
			return 1
		}
	}
	if err != io.EOF {
		slog.Warn("trace truncated (tcpdump drop?)", "records", pr.RecordsRead(), "err", err)
	}
	if skipped > 0 {
		slog.Warn("undecodable packets skipped", "count", skipped)
	}
	total := 0
	// Report in a fixed direction order, not map order, so repeated runs
	// over one capture emit byte-identical summaries.
	keys := make([]dirKey, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return bytes.Compare(a.src[:], b.src[:]) < 0
		}
		if a.dst != b.dst {
			return bytes.Compare(a.dst[:], b.dst[:]) < 0
		}
		if a.sport != b.sport {
			return a.sport < b.sport
		}
		return a.dport < b.dport
	})
	for _, k := range keys {
		st := streams[k]
		if st.messages == 0 {
			continue
		}
		src := netip.AddrFrom4(k.src)
		dst := netip.AddrFrom4(k.dst)
		fmt.Fprintf(stdout, "%v:%d -> %v:%d: %d messages (%d updates, %d prefixes)\n",
			src, k.sport, dst, k.dport, st.messages, st.updates, st.prefixes)
		total += st.messages
	}
	fmt.Fprintf(stdout, "online mode: %d messages total\n", total)
	if mw != nil {
		if err := mw.Flush(); err != nil {
			slog.Error("writing MRT", "err", err)
			return 1
		}
	}
	return 0
}
