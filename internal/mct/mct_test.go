package mct

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
)

// pfx makes distinct /24 prefixes.
func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

// key is pfx(i)'s bgp.PrefixKey.
func key(i int) uint64 { return bgp.PrefixKey(pfx(i)) }

// updatePrefixes returns the 4 fresh prefixes of a transferStream's
// update i.
func updatePrefixes(i int) []netip.Prefix {
	return []netip.Prefix{pfx(i * 4), pfx(i*4 + 1), pfx(i*4 + 2), pfx(i*4 + 3)}
}

// keysOf returns the bgp.PrefixKeys of ps.
func keysOf(ps []netip.Prefix) []uint64 {
	keys := make([]uint64, len(ps))
	for i, p := range ps {
		keys[i] = bgp.PrefixKey(p)
	}
	return keys
}

// transferStream builds n updates of 4 fresh prefixes each, spaced dt apart
// starting at t0.
func transferStream(t0 Micros, n int, dt Micros) []Update {
	var out []Update
	for i := 0; i < n; i++ {
		out = append(out, Update{Time: t0 + Micros(i)*dt, Keys: keysOf(updatePrefixes(i))})
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
	ups = append(ups, Update{Time: ups[len(ups)-1].Time + 120_000_000, Keys: []uint64{key(9999)}})
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
		ups = append(ups, Update{Time: last + Micros(i+1)*100_000, Keys: []uint64{key(i % 20)}})
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
	if ups[0].Time != 20 || !reflect.DeepEqual(ups[0].Keys, []uint64{key(1), key(2)}) {
		t.Errorf("first = %+v", ups[0])
	}
	if ups[1].Time != 40 || !reflect.DeepEqual(ups[1].Keys, []uint64{key(4)}) {
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
	if ups[0].Time != 20 || !reflect.DeepEqual(ups[1].Keys, []uint64{key(2), key(3)}) {
		t.Errorf("updates = %+v", ups)
	}
}

// keyStreamOf packs updates into a KeyStream.
func keyStreamOf(ups []Update) *KeyStream {
	ks := &KeyStream{}
	for _, u := range ups {
		start := len(ks.Keys)
		ks.Keys = append(ks.Keys, u.Keys...)
		ks.Updates = append(ks.Updates, KeyUpdate{Time: u.Time, Start: start, End: len(ks.Keys)})
	}
	return ks
}

// refUpdate is an update as the reference sees it: whole prefixes.
type refUpdate struct {
	time     Micros
	prefixes []netip.Prefix
}

// keyUpdates converts reference updates to Updates.
func keyUpdates(refs []refUpdate) []Update {
	var out []Update
	for _, r := range refs {
		out = append(out, Update{Time: r.time, Keys: keysOf(r.prefixes)})
	}
	return out
}

// refFindEnd is the reference FindEnd is held to: the same end rule over
// points counted with a map of whole prefixes.
func refFindEnd(updates []refUpdate, cfg Config) (Result, bool) {
	if len(updates) == 0 {
		return Result{}, false
	}
	ups := append([]refUpdate(nil), updates...)
	sort.SliceStable(ups, func(i, j int) bool { return ups[i].time < ups[j].time })
	seen := map[netip.Prefix]bool{}
	points := make([]point, len(ups))
	for i, u := range ups {
		novel := 0
		for _, p := range u.prefixes {
			if !seen[p] {
				seen[p] = true
				novel++
			}
		}
		points[i] = point{time: u.time, total: len(u.prefixes), novel: novel, cumulen: len(seen)}
	}
	return cfg.withDefaults().end(points), true
}

// randomUpdates draws a stream of up to 60 updates: unsorted times with
// ties, re-announced prefixes, empty updates and some prefixes with host
// bits set, which are distinct from their masked form.
func randomUpdates(rnd *rand.Rand) []refUpdate {
	ups := make([]refUpdate, 1+rnd.Intn(60))
	for i := range ups {
		ups[i].time = Micros(rnd.Intn(40)) * 100_000
		for j := rnd.Intn(6); j > 0; j-- {
			p := pfx(rnd.Intn(80))
			if rnd.Intn(8) == 0 {
				p = netip.PrefixFrom(p.Addr().Next(), 24)
			}
			ups[i].prefixes = append(ups[i].prefixes, p)
		}
	}
	return ups
}

// ruleConfigs are the default rule and tight settings under which every
// branch of the end rule fires on randomUpdates' streams.
var ruleConfigs = []Config{{}, {QuietGap: 300_000, NoveltyWindow: 500_000, MinNovelty: 0.5}}

// TestFindEndMatchesReference holds FindEnd's key set to a map of whole
// prefixes on random streams.
func TestFindEndMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		refs := randomUpdates(rnd)
		ups := keyUpdates(refs)
		for _, cfg := range ruleConfigs {
			want, wok := refFindEnd(refs, cfg)
			got, gok := FindEnd(ups, cfg)
			if got != want || gok != wok {
				t.Fatalf("trial %d, %+v: FindEnd %+v/%v, reference %+v/%v", trial, cfg, got, gok, want, wok)
			}
		}
	}
}

// TestFindEndKeysMatchesFindEnd holds the key feeder to the map reference
// and to FindEnd on random streams. One stream serves every trial, as a
// reassembly.Scanner's serves every connection, so no trial may see the
// scratch of a longer stream before it.
func TestFindEndKeysMatchesFindEnd(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	if _, ok := FindEndKeys(&KeyStream{}, Config{}); ok {
		t.Error("found a transfer in an empty key stream")
	}
	ks := &KeyStream{}
	for trial := 0; trial < 300; trial++ {
		refs := randomUpdates(rnd)
		ups := keyUpdates(refs)
		for _, cfg := range ruleConfigs {
			want, wok := refFindEnd(refs, cfg)
			fresh := keyStreamOf(ups)
			ks.Reset()
			ks.Keys = append(ks.Keys, fresh.Keys...)
			ks.Updates = append(ks.Updates, fresh.Updates...)
			got, gok := FindEndKeys(ks, cfg)
			if got != want || gok != wok {
				t.Fatalf("trial %d, %+v: keys %+v/%v, reference %+v/%v", trial, cfg, got, gok, want, wok)
			}
			if got, gok := FindEnd(ups, cfg); got != want || gok != wok {
				t.Fatalf("trial %d, %+v: FindEnd %+v/%v, reference %+v/%v", trial, cfg, got, gok, want, wok)
			}
		}
	}
}

// refFromMRT is the reference FromMRT is held to: every record parsed
// with bgp.Parse, keeping the UPDATEs that announce something.
func refFromMRT(records []mrt.Record) []refUpdate {
	var out []refUpdate
	for _, r := range records {
		m, err := r.Message()
		if err != nil {
			continue
		}
		u, ok := m.(*bgp.Update)
		if !ok || len(u.NLRI) == 0 {
			continue
		}
		out = append(out, refUpdate{time: r.TimeMicros, prefixes: u.NLRI})
	}
	return out
}

// randomRecords draws up to 40 archived messages at unsorted times with
// ties: UPDATEs that announce, withdraw or both, KEEPALIVEs and
// NOTIFICATIONs, some of them truncated or with flipped bits.
func randomRecords(tb testing.TB, rnd *rand.Rand) []mrt.Record {
	tb.Helper()
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{1, 2}, NextHop: netip.MustParseAddr("10.0.0.1")}
	prefixes := func() []netip.Prefix {
		ps := make([]netip.Prefix, rnd.Intn(5))
		for i := range ps {
			ps[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rnd.Intn(4)), byte(rnd.Intn(256)), 0}), 8+rnd.Intn(25)).Masked()
		}
		return ps
	}
	recs := make([]mrt.Record, rnd.Intn(40))
	for i := range recs {
		var m bgp.Message
		switch rnd.Intn(6) {
		case 0:
			m = &bgp.Keepalive{}
		case 1:
			m = &bgp.Notification{Code: 6, Subcode: 2}
		case 2:
			m = &bgp.Update{Withdrawn: prefixes()}
		default:
			m = &bgp.Update{Withdrawn: prefixes(), Attrs: attrs, NLRI: prefixes()}
		}
		raw, err := m.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		switch rnd.Intn(8) {
		case 0:
			raw = raw[:rnd.Intn(len(raw))]
		case 1:
			raw[rnd.Intn(len(raw))] ^= byte(1 << rnd.Intn(8))
		}
		recs[i] = mrt.Record{TimeMicros: int64(rnd.Intn(40)) * 100_000, Raw: raw}
	}
	return recs
}

// TestFromMRTMatchesParse holds FromMRT to the Parse-based reference on
// random archives: the same updates, times and prefixes, and nil when none
// is left. FindEnd over FromMRT's updates must agree with the reference
// end rule over the parsed prefixes.
func TestFromMRTMatchesParse(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		recs := randomRecords(t, rnd)
		got, refs := FromMRT(recs), refFromMRT(recs)
		if want := keyUpdates(refs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: FromMRT %+v, reference %+v", trial, got, want)
		}
		for _, cfg := range ruleConfigs {
			want, wok := refFindEnd(refs, cfg)
			if end, ok := FindEnd(got, cfg); end != want || ok != wok {
				t.Fatalf("trial %d, %+v: FindEnd %+v/%v, reference %+v/%v", trial, cfg, end, ok, want, wok)
			}
		}
	}
}

// TestFromMRTAllocs checks that a warm FromMRT allocates its result only:
// one key array shared by all updates, and the updates.
func TestFromMRTAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{1}, NextHop: netip.MustParseAddr("10.0.0.1")}
	var recs []mrt.Record
	for i := 0; i < 200; i++ {
		raw, err := (&bgp.Update{Attrs: attrs, NLRI: updatePrefixes(i)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, mrt.Record{TimeMicros: int64(i) * 10_000, Raw: raw})
	}
	FromMRT(recs)
	if allocs := testing.AllocsPerRun(20, func() { FromMRT(recs) }); allocs != 2 {
		t.Errorf("FromMRT allocates %.1f times per call, want 2", allocs)
	}
}

// TestFindEndKeysAllocs checks that warm FindEndKeys and FindEnd calls
// allocate nothing: FindEndKeys's working set travels
// with the reused stream, and FindEnd's is recycled across transfers
// through a pool.
func TestFindEndKeysAllocs(t *testing.T) {
	ups := transferStream(0, 500, 10_000)
	ks := keyStreamOf(ups)
	for name, find := range map[string]func() bool{
		"FindEndKeys": func() bool { _, ok := FindEndKeys(ks, Config{}); return ok },
		"FindEnd":     func() bool { _, ok := FindEnd(ups, Config{}); return ok },
	} {
		if name == "FindEnd" && raceEnabled {
			t.Log("FindEnd: skipped, sync.Pool drops Puts at random under -race")
			continue
		}
		if !find() {
			t.Fatalf("%s: no result", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { find() }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
