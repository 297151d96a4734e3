package mct

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
	"tdat/internal/tracegen"
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

// refPoints is the reference the seen-sets are held to: each update's
// novelty counted with a map of whole keys, over the updates sorted stably
// by time.
func refPoints(updates []Update) []point {
	ups := append([]Update(nil), updates...)
	sort.SliceStable(ups, func(i, j int) bool { return ups[i].Time < ups[j].Time })
	seen := map[uint64]bool{}
	points := make([]point, len(ups))
	for i, u := range ups {
		novel := 0
		for _, k := range u.Keys {
			if !seen[k] {
				seen[k] = true
				novel++
			}
		}
		points[i] = point{time: u.Time, total: len(u.Keys), novel: novel, cumulen: len(seen)}
	}
	return points
}

// refFindEnd is the reference FindEnd is held to: the same end rule over
// refPoints.
func refFindEnd(updates []Update, cfg Config) (Result, bool) {
	if len(updates) == 0 {
		return Result{}, false
	}
	return cfg.withDefaults().end(refPoints(updates)), true
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
// keys on random streams.
func TestFindEndMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		refs := randomUpdates(rnd)
		ups := keyUpdates(refs)
		for _, cfg := range ruleConfigs {
			want, wok := refFindEnd(ups, cfg)
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
			want, wok := refFindEnd(ups, cfg)
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
		m, err := bgp.Parse(r.Raw)
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
		got, refs := FromMRT(recs), keyUpdates(refFromMRT(recs))
		if !reflect.DeepEqual(got, refs) {
			t.Fatalf("trial %d: FromMRT %+v, reference %+v", trial, got, refs)
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
// allocate nothing, below the size rule and past it: FindEndKeys's working
// set travels with the reused stream, and FindEnd's is recycled across
// transfers through a pool. The stream past the rule also grows the table
// beside the trie bitmap.
func TestFindEndKeysAllocs(t *testing.T) {
	for _, ups := range [][]Update{transferStream(0, 500, 10_000), largeStream(firstTrieStream, 1, false)} {
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
				t.Errorf("%s over %d keys allocates %.1f times per call, want 0", name, len(ks.Keys), allocs)
			}
		}
	}
}

// firstTrieStream is the smallest announcement count past the size rule:
// its keySet would need 2^19 slots, the trie bitmap's 4 MB.
const firstTrieStream = 174_764

// oddKey returns a key the trie bitmap holds at its edges or not at all:
// the /0 and a masked /24 (its first and last rows), a /24 with host bits
// set, a masked /25–/32 or a length field past 32. Drawn from a pool of a
// few thousand, they repeat.
func oddKey(rnd *rand.Rand) uint64 {
	a := uint64(rnd.Intn(4096)) << 8
	switch rnd.Intn(5) {
	case 0:
		return 0
	case 1:
		return 24<<32 | a
	case 2:
		return 24<<32 | a | uint64(1+rnd.Intn(255))
	case 3:
		l := uint64(25 + rnd.Intn(8))
		return l<<32 | a | uint64(rnd.Intn(256))&^(1<<(32-l)-1)
	default:
		return uint64(33+rnd.Intn(8))<<32 | a | uint64(rnd.Intn(256))
	}
}

// largeStream returns n announcements of tracegen's synthetic table in its
// order (repeats included, as masking folds its /16s, /20s and /22s) or
// shuffled, one in 50 replaced by an oddKey, in updates of 1–7 keys at
// sorted times with ties.
func largeStream(n int, seed int64, shuffled bool) []Update {
	rnd := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i, r := range tracegen.Table(rnd, n) {
		keys[i] = bgp.PrefixKey(r.Prefix)
		if rnd.Intn(50) == 0 {
			keys[i] = oddKey(rnd)
		}
	}
	if shuffled {
		rnd.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	var ups []Update
	for i := 0; len(keys) > 0; i++ {
		k := min(1+rnd.Intn(7), len(keys))
		ups = append(ups, Update{Time: Micros(i/2) * 400, Keys: keys[:k:k]})
		keys = keys[k:]
	}
	return ups
}

// TestSeenSetsMatchReference holds both seen-set representations to the
// map reference: every update's novelty and the Result, from FindEndKeys
// and FindEnd, on streams just below and just above the size rule, in
// tracegen order and shuffled, with odd keys mixed in. Large and small
// streams alternate on one KeyStream (and one pool), so a stream that
// found the bitmap or the table of an earlier one uncleared would count
// too few novel keys.
func TestSeenSetsMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	streams := []struct {
		name string
		ups  []Update
	}{
		{"above, tracegen order", largeStream(firstTrieStream, 1, false)},
		{"small", keyUpdates(randomUpdates(rnd))},
		{"above, shuffled", largeStream(firstTrieStream+5_000, 1, true)},
		{"below, tracegen order", largeStream(firstTrieStream-1, 2, false)},
		{"above, tracegen order again", largeStream(firstTrieStream+1, 2, false)},
		{"small again", keyUpdates(randomUpdates(rnd))},
		{"below, shuffled", largeStream(firstTrieStream-1, 1, true)},
	}
	ks := &KeyStream{}
	for _, st := range streams {
		want := refPoints(st.ups)
		announced := 0
		for _, u := range st.ups {
			announced += len(u.Keys)
		}
		for _, cfg := range ruleConfigs {
			ks.Reset()
			fresh := keyStreamOf(st.ups)
			ks.Keys = append(ks.Keys, fresh.Keys...)
			ks.Updates = append(ks.Updates, fresh.Updates...)
			got, _ := FindEndKeys(ks, cfg)
			if ks.sc.inTrie != (announced >= firstTrieStream) {
				t.Fatalf("%s: %d announcements counted in the trie bitmap: %v", st.name, announced, ks.sc.inTrie)
			}
			if got := ks.sc.points; !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got)-1 && i < len(want)-1 && got[i] == want[i] {
					i++
				}
				t.Fatalf("%s: %d points, reference %d; update %d counted %+v, reference %+v",
					st.name, len(got), len(want), i, got[i], want[i])
			}
			wantRes := cfg.withDefaults().end(want)
			if got != wantRes {
				t.Fatalf("%s, %+v: FindEndKeys %+v, reference %+v", st.name, cfg, got, wantRes)
			}
			if got, _ := FindEnd(st.ups, cfg); got != wantRes {
				t.Fatalf("%s, %+v: FindEnd %+v, reference %+v", st.name, cfg, got, wantRes)
			}
		}
	}
}

// TestNonPositiveNoveltyWindow checks that a negative NoveltyWindow selects
// the default window, as zero does. The window's left cursor ran past the
// current update before.
func TestNonPositiveNoveltyWindow(t *testing.T) {
	ups := transferStream(0, 50, 100_000)
	want, _ := FindEnd(ups, Config{})
	for _, w := range []Micros{-1, -10_000_000, math.MinInt64} {
		cfg := Config{NoveltyWindow: w}
		if got, _ := FindEnd(ups, cfg); got != want {
			t.Errorf("FindEnd with NoveltyWindow %d: %+v, want %+v", w, got, want)
		}
		if got, _ := FindEndKeys(keyStreamOf(ups), cfg); got != want {
			t.Errorf("FindEndKeys with NoveltyWindow %d: %+v, want %+v", w, got, want)
		}
	}
}

// fuzzUpdates decodes fuzz bytes into updates of at most 400 keys in all.
// Each key takes 6 bytes: a control byte, a length field (the byte mod 41)
// and an address. Control bit 0 starts a new update, at time
// (ctl>>3)*100 ms, so times come unsorted and tied; bit 1 repeats an
// earlier key, picked by the address; bit 2 keeps the address's host bits.
func fuzzUpdates(data []byte) []Update {
	var keys []uint64
	var starts []int
	var times []Micros
	for ; len(data) >= 6 && len(keys) < 400; data = data[6:] {
		ctl, l, a := data[0], uint64(data[1]%41), binary.BigEndian.Uint32(data[2:6])
		if ctl&1 != 0 || len(starts) == 0 {
			starts, times = append(starts, len(keys)), append(times, Micros(ctl>>3)*100_000)
		}
		if ctl&2 != 0 && len(keys) > 0 {
			keys = append(keys, keys[int(a)%len(keys)])
			continue
		}
		if ctl&4 == 0 && l <= 32 {
			a &= ^uint32(0) << (32 - l)
		}
		keys = append(keys, l<<32|uint64(a))
	}
	ups := make([]Update, len(starts))
	for i, start := range starts {
		end := len(keys)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		ups[i] = Update{Time: times[i], Keys: keys[start:end:end]}
	}
	return ups
}

// FuzzFindEndKeys holds the trie bitmap to the map reference: every
// update's novelty and the Result, on fuzzed keys of any length field up
// to 40, masked or not, with repeats, at unsorted times. Keys no update
// announces pad the stream past the size rule, so FindEndKeys counts the
// fuzzed ones in the bitmap mode. Each input is counted twice on one
// KeyStream, once under each rule config, so the second count must clear
// the first's bits; the stream is kept across inputs, so its 4 MB bitmap is
// allocated once per worker.
func FuzzFindEndKeys(f *testing.F) {
	rnd := rand.New(rand.NewSource(11))
	for _, n := range []int{6, 60, 600, 2400} {
		seed := make([]byte, n)
		rnd.Read(seed)
		f.Add(seed)
	}
	ks := &KeyStream{}
	f.Fuzz(func(t *testing.T, data []byte) {
		ups := fuzzUpdates(data)
		if len(ups) == 0 {
			return
		}
		want := refPoints(ups)
		ks.Reset()
		for _, u := range ups {
			start := len(ks.Keys)
			ks.Keys = append(ks.Keys, u.Keys...)
			ks.Updates = append(ks.Updates, KeyUpdate{Time: u.Time, Start: start, End: len(ks.Keys)})
		}
		ks.Keys = slices.Grow(ks.Keys, firstTrieStream)[:len(ks.Keys)+firstTrieStream]
		for _, cfg := range ruleConfigs {
			got, ok := FindEndKeys(ks, cfg)
			if !ok || !ks.sc.inTrie {
				t.Fatalf("%+v: ok %v, counted in the trie bitmap: %v", cfg, ok, ks.sc.inTrie)
			}
			if !reflect.DeepEqual(ks.sc.points, want) {
				t.Fatalf("%+v: points %+v, reference %+v", cfg, ks.sc.points, want)
			}
			if wantRes := cfg.withDefaults().end(want); got != wantRes {
				t.Fatalf("%+v: FindEndKeys %+v, reference %+v", cfg, got, wantRes)
			}
		}
	})
}

// walkTable returns n distinct prefix keys of a synthetic full table in
// table-walk order (by address), with roughly a real IPv4 table's length
// mix: 5 in 8 are /24s, then /22s, /23s, /21s, /20s and /19s.
func walkTable(n int) []uint64 {
	rnd := rand.New(rand.NewSource(1))
	lens := [32]uint64{19, 20, 20, 21, 21, 22, 22, 22, 22, 23, 23, 23}
	for i := 12; i < len(lens); i++ {
		lens[i] = 24
	}
	keys := make([]uint64, n)
	addr := uint64(1 << 24)
	for i := range keys {
		l := lens[rnd.Intn(len(lens))]
		block := uint64(1) << (32 - l)
		addr = (addr + block - 1) &^ (block - 1)
		keys[i] = l<<32 | addr
		addr += block
	}
	return keys
}

// BenchmarkFindEndKeys counts a cold full table: 900k prefixes (real IPv4
// tables carry ~950k) in table-walk order, 4 to an update, with a fresh
// KeyStream per op so that every op allocates its seen-set and points.
func BenchmarkFindEndKeys(b *testing.B) {
	keys := walkTable(900_000)
	ups := make([]KeyUpdate, len(keys)/4)
	for i := range ups {
		ups[i] = KeyUpdate{Time: Micros(i) * 2_000, Start: 4 * i, End: 4*i + 4}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := FindEndKeys(&KeyStream{Keys: keys, Updates: ups}, Config{}); !ok {
			b.Fatal("no result")
		}
	}
}
