// Peer-group blocking (paper §II-B3, Fig 9): two collectors share one
// vendor peer group on the router. One collector dies mid-transfer; the
// healthy session stalls until the dead member's hold timer evicts it.
// T-DAT finds the blocking by intersecting series across the two
// connections — the cross-connection analysis the set representation makes
// cheap.
//
//	go run ./examples/peergroup
package main

import (
	"fmt"
	"log"
	"os"

	"tdat/internal/asciiplot"
	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/series"
	"tdat/internal/tracegen"
)

func main() {
	// Kill the vendor collector 1 s into the transfer; the router's hold
	// timer is 180 s (the ISP_A default).
	pg := tracegen.RunPeerGroup(7, 2, 20_000, 1_000_000, 180_000_000)
	fmt.Printf("ground truth: member failed at t1=%.1fs, removed from the group at t2=%.1fs\n",
		float64(pg.KillAt)/1e6, float64(pg.HoldExpiry)/1e6)
	fmt.Printf("healthy collector received %d routes (ground duration %.1fs)\n\n",
		pg.Healthy.RoutesDelivered, float64(pg.Healthy.GroundDuration)/1e6)

	analyzer := core.New(core.Config{})
	healthyRep := analyzer.AnalyzePackets(pg.Healthy.Packets())
	faultyRep := analyzer.AnalyzePackets(pg.Faulty.Packets())
	if len(healthyRep.Transfers) != 1 || len(faultyRep.Transfers) != 1 {
		log.Fatal("expected one connection per capture")
	}
	healthy, faulty := healthyRep.Transfers[0], faultyRep.Transfers[0]

	// The paper's cross-connection intersection:
	//   healthy.SendAppLimited ∩ faulty.Loss
	res, ok := detect.PeerGroupBlocking(healthy.Catalog, faulty.Catalog, 0)
	if !ok {
		log.Fatal("blocking not detected")
	}
	fmt.Printf("detected peer-group blocking: longest pause %.1fs (ground truth %.1fs)\n",
		float64(res.LongestPause)/1e6, float64(pg.HoldExpiry-pg.KillAt)/1e6)
	fmt.Printf("blocked periods: %v\n\n", res.Blocked)

	// Visualize both sessions on the healthy session's timeline.
	span := healthy.Conn.Span()
	rows := []asciiplot.Row{
		{Label: "healthy.Transmission", Set: healthy.Catalog.Get(series.Transmission)},
		{Label: "healthy.SendAppLimited", Set: healthy.Catalog.Get(series.SendAppLimited)},
		{Label: "faulty.Outstanding", Set: faulty.Catalog.Get(series.Outstanding)},
		{Label: "blocked (intersection)", Set: res.Blocked},
	}
	if err := asciiplot.Series(os.Stdout, span, rows, 100); err != nil {
		log.Fatal(err)
	}
}
