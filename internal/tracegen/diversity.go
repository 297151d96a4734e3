package tracegen

import (
	"net/netip"

	"tdat/internal/bgpsim"
	"tdat/internal/dist"
	"tdat/internal/sim"
)

// heavyTailProfile is the KindHeavyTailApp send pattern: Pareto idle gaps
// (40 ms scale, tail index 1.5 — infinite variance, so a few giant pauses
// dominate) and Pareto burst sizes, both clamped to keep a single draw
// from stalling or flooding the whole transfer.
func heavyTailProfile(seed int64) *bgpsim.AppProfile {
	return &bgpsim.AppProfile{
		Seed:    seed + 101,
		IdleGap: dist.Clamp{D: dist.Pareto{Alpha: 1.5, Xm: 40_000}, Lo: 1_000, Hi: 8_000_000},
		Burst:   dist.Clamp{D: dist.Pareto{Alpha: 1.3, Xm: 6}, Lo: 1, Hi: 512},
	}
}

// bimodalProfile is the KindBimodalApp send pattern: a steady trickle mode
// (30 ms gaps, ~8-update bursts) mixed with a bulk-batch mode (400 ms
// gaps, ~64-update bursts) — the two-regime behavior of routers that
// alternate incremental updates with periodic batch refreshes.
func bimodalProfile(seed int64) *bgpsim.AppProfile {
	return &bgpsim.AppProfile{
		Seed: seed + 103,
		IdleGap: dist.Clamp{
			D:  dist.Bimodal{Mean1: 30_000, Std1: 8_000, Weight1: 0.7, Mean2: 400_000, Std2: 60_000},
			Lo: 1_000, Hi: 2_000_000,
		},
		Burst: dist.Clamp{
			D:  dist.Bimodal{Mean1: 8, Std1: 2, Weight1: 0.8, Mean2: 64, Std2: 12},
			Lo: 1, Hi: 256,
		},
	}
}

// addReplicas dials the unobserved members 1..GroupMembers-1 of a
// KindFanout peer group, each over the observed member's spec. Member 0,
// the observed connection, stalls on the group slack bound behind member
// 1, which reads at CollectorRate; the rest share one unthrottled host.
// That is the route-server-scale amplification of paper §II-B3. One slow
// member is enough: further throttled members would read in lockstep with
// it and hold the group back no longer. The observed member's archive
// completes only once the whole group is within slack of done, so it alone
// decides when a run ends.
func addReplicas(eng *sim.Engine, sc Scenario, speaker *bgpsim.Speaker, group *bgpsim.PeerGroup) {
	fastHost := bgpsim.NewCollectorHost(eng, bgpsim.CollectorConfig{})
	for i := 1; i < sc.GroupMembers; i++ {
		spec := observedSpec(sc, netip.AddrFrom4([4]byte{10, 0, byte(2 + i>>8), byte(i)}))
		h := fastHost
		if i == 1 {
			// The slow member pairs a throttled reader with tight socket
			// buffers: a member's cursor only stalls once it has written
			// SendBuf+RecvBuf plus whatever the app drained, so with default
			// 64 KB buffers a small table fits entirely in flight and the
			// slack bound never binds. Tight buffers push the app bottleneck
			// back to the speaker, the way RunPeerGroup pins SendBuf.
			spec.RouterTCP.SendBuf = 4096
			spec.CollectorTCP.RecvBuf = 4096
			h = bgpsim.NewCollectorHost(eng, bgpsim.CollectorConfig{TotalRate: sc.CollectorRate})
		}
		conn := bgpsim.Dial(eng, spec, 7018)
		speaker.AddSession(conn.RouterPeer, group)
		h.AddSession(conn.CollectorPeer, 7018)
	}
}
