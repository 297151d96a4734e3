package mct

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
)

// pfx makes distinct /24 prefixes.
func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

// transferStream builds n updates of 4 fresh prefixes each, spaced dt apart
// starting at t0.
func transferStream(t0 Micros, n int, dt Micros) []Update {
	var out []Update
	for i := 0; i < n; i++ {
		var ps []netip.Prefix
		for j := 0; j < 4; j++ {
			ps = append(ps, pfx(i*4+j))
		}
		out = append(out, Update{Time: t0 + Micros(i)*dt, Prefixes: ps})
	}
	return out
}

func TestFindEndEmptyStream(t *testing.T) {
	if _, ok := FindEnd(nil, Config{}); ok {
		t.Error("found a transfer in an empty stream")
	}
}

func TestFindEndCleanTransfer(t *testing.T) {
	ups := transferStream(1_000_000, 50, 100_000)
	res, ok := FindEnd(ups, Config{})
	if !ok {
		t.Fatal("no result")
	}
	wantEnd := ups[len(ups)-1].Time
	if res.End != wantEnd {
		t.Errorf("End = %d, want %d", res.End, wantEnd)
	}
	if res.Updates != 50 || res.UniquePrefixes != 200 {
		t.Errorf("result = %+v", res)
	}
}

func TestFindEndStopsAtQuietGap(t *testing.T) {
	ups := transferStream(0, 30, 100_000)
	// A lone churn update long after the transfer.
	ups = append(ups, Update{Time: ups[len(ups)-1].Time + 120_000_000, Prefixes: []netip.Prefix{pfx(9999)}})
	res, ok := FindEnd(ups, Config{})
	if !ok {
		t.Fatal("no result")
	}
	if res.Updates != 30 {
		t.Errorf("Updates = %d, want 30 (churn excluded)", res.Updates)
	}
}

func TestFindEndStopsWhenNoveltyDies(t *testing.T) {
	ups := transferStream(0, 30, 100_000)
	last := ups[len(ups)-1].Time
	// Dense re-announcements of already-seen prefixes (no novelty) follow
	// within the quiet gap.
	for i := 0; i < 200; i++ {
		ups = append(ups, Update{
			Time:     last + Micros(i+1)*100_000,
			Prefixes: []netip.Prefix{pfx(i % 20)},
		})
	}
	res, ok := FindEnd(ups, Config{})
	if !ok {
		t.Fatal("no result")
	}
	if res.End > last+15_000_000 {
		t.Errorf("End = %d, want ≈%d (novelty rule should cut churn)", res.End, last)
	}
	if res.UniquePrefixes != 120 {
		t.Errorf("unique prefixes = %d, want 120", res.UniquePrefixes)
	}
}

func TestFindEndUnsortedInput(t *testing.T) {
	ups := transferStream(0, 10, 100_000)
	ups[0], ups[5] = ups[5], ups[0]
	res, ok := FindEnd(ups, Config{})
	if !ok || res.Updates != 10 {
		t.Errorf("unsorted input mishandled: %+v ok=%v", res, ok)
	}
}

func TestFindEndSlowPacedTransfer(t *testing.T) {
	// 2-second inter-update gaps (timer-paced sender) must not trip the
	// 30-second quiet rule.
	ups := transferStream(0, 20, 2_000_000)
	res, ok := FindEnd(ups, Config{})
	if !ok || res.Updates != 20 {
		t.Errorf("paced transfer cut short: %+v", res)
	}
}

func TestFromMessages(t *testing.T) {
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{1}, NextHop: netip.MustParseAddr("10.0.0.1")}
	msgs := []bgp.Message{
		&bgp.Keepalive{},
		&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(1), pfx(2)}},
		&bgp.Update{Withdrawn: []netip.Prefix{pfx(3)}},
		&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(4)}},
	}
	times := []Micros{10, 20, 30, 40}
	ups := FromMessages(times, msgs)
	if len(ups) != 2 {
		t.Fatalf("updates = %d, want 2", len(ups))
	}
	if ups[0].Time != 20 || len(ups[0].Prefixes) != 2 {
		t.Errorf("first = %+v", ups[0])
	}
	if ups[1].Time != 40 {
		t.Errorf("second = %+v", ups[1])
	}
}

func TestFindEndDeterministic(t *testing.T) {
	ups := transferStream(0, 100, 50_000)
	var results []string
	for i := 0; i < 3; i++ {
		r, _ := FindEnd(ups, Config{})
		results = append(results, fmt.Sprintf("%+v", r))
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Errorf("nondeterministic results: %v", results)
	}
}

func TestFromMRT(t *testing.T) {
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{1}, NextHop: netip.MustParseAddr("10.0.0.1")}
	mkRaw := func(m bgp.Message) []byte {
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	records := []mrt.Record{
		{TimeMicros: 10, Raw: mkRaw(&bgp.Keepalive{})},
		{TimeMicros: 20, Raw: mkRaw(&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(1)}})},
		{TimeMicros: 30, Raw: []byte{0xde, 0xad}}, // corrupt record skipped
		{TimeMicros: 40, Raw: mkRaw(&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(2), pfx(3)}})},
	}
	ups := FromMRT(records)
	if len(ups) != 2 {
		t.Fatalf("updates = %d, want 2", len(ups))
	}
	if ups[0].Time != 20 || len(ups[1].Prefixes) != 2 {
		t.Errorf("updates = %+v", ups)
	}
}

// keyStreamOf packs updates into a KeyStream, prefix by prefix.
func keyStreamOf(ups []Update) *KeyStream {
	ks := &KeyStream{}
	for _, u := range ups {
		start := len(ks.Keys)
		for _, p := range u.Prefixes {
			ks.Keys = append(ks.Keys, bgp.PrefixKey(p))
		}
		ks.Updates = append(ks.Updates, KeyUpdate{Time: u.Time, Start: start, End: len(ks.Keys)})
	}
	return ks
}

// TestFindEndKeysMatchesFindEnd holds the key feeder to FindEnd on random
// streams: unsorted times with ties, re-announced prefixes, empty updates,
// and tight rule settings so that every branch of the end rule fires.
func TestFindEndKeysMatchesFindEnd(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	cfgs := []Config{{}, {QuietGap: 300_000, NoveltyWindow: 500_000, MinNovelty: 0.5}}
	if _, ok := FindEndKeys(&KeyStream{}, Config{}); ok {
		t.Error("found a transfer in an empty key stream")
	}
	for trial := 0; trial < 300; trial++ {
		ups := make([]Update, 1+rnd.Intn(60))
		for i := range ups {
			ups[i].Time = Micros(rnd.Intn(40)) * 100_000
			for j := rnd.Intn(6); j > 0; j-- {
				ups[i].Prefixes = append(ups[i].Prefixes, pfx(rnd.Intn(80)))
			}
		}
		for _, cfg := range cfgs {
			want, wok := FindEnd(ups, cfg)
			got, gok := FindEndKeys(keyStreamOf(ups), cfg)
			if got != want || gok != wok {
				t.Fatalf("trial %d, %+v: keys %+v/%v, prefixes %+v/%v", trial, cfg, got, gok, want, wok)
			}
		}
	}
}

// TestFindEndKeysAllocs checks that a warm FindEndKeys call allocates
// nothing: its working set is recycled across transfers.
func TestFindEndKeysAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	ks := keyStreamOf(transferStream(0, 500, 10_000))
	find := func() {
		if _, ok := FindEndKeys(ks, Config{}); !ok {
			t.Fatal("no result")
		}
	}
	find()
	if allocs := testing.AllocsPerRun(20, find); allocs != 0 {
		t.Errorf("FindEndKeys allocates %.1f times per call, want 0", allocs)
	}
}
