// Package mct estimates the end of a BGP routing-table transfer from a
// stream of archived updates — the Minimum Collection Time algorithm of
// Zhang et al. [36] as adapted by the paper (§II-A): the TCP connection
// start pins the transfer start, and MCT finds the instant by which the
// initial table has been (re)announced.
//
// The adaptation here follows the original's intuition: during a table
// transfer the sender streams monotonically growing sets of distinct
// prefixes back-to-back; the transfer ends at the last update after which
// (i) essentially no new prefixes appear for a guard window, or (ii) the
// update stream goes quiet for longer than the inter-update timescale seen
// so far.
package mct

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
	"tdat/internal/timerange"
)

// Micros aliases the trace time unit.
type Micros = timerange.Micros

// Update is one timed BGP update for MCT purposes.
type Update struct {
	Time Micros
	// Keys are the bgp.PrefixKeys of the update's NLRI announcements.
	Keys []uint64
}

// Config tunes the estimator; zero values select defaults.
type Config struct {
	// QuietGap ends the transfer when no update arrives for this long
	// (default 30 s — table transfers stream continuously at much finer
	// granularity, while post-transfer updates are sparse).
	QuietGap Micros
	// NoveltyWindow is the trailing window over which the novelty rule is
	// evaluated (default 10 s, which a negative value also selects).
	NoveltyWindow Micros
	// MinNovelty is the fraction of a trailing window's announcements that
	// must be previously unseen prefixes for the transfer to be considered
	// still in progress (default 0.05).
	MinNovelty float64
}

func (c Config) withDefaults() Config {
	if c.QuietGap == 0 {
		c.QuietGap = 30 * 1_000_000
	}
	if c.NoveltyWindow <= 0 {
		c.NoveltyWindow = 10 * 1_000_000
	}
	if c.MinNovelty == 0 {
		c.MinNovelty = 0.05
	}
	return c
}

// Result describes the identified transfer.
type Result struct {
	// End is the estimated transfer end time (the completing update's
	// timestamp).
	End Micros
	// Updates is how many updates belong to the transfer.
	Updates int
	// UniquePrefixes is the distinct prefix count announced by then.
	UniquePrefixes int
}

// keySet is the set of prefix keys FindEnd and FindEndKeys have seen:
// open addressing with linear probing over a power-of-two table. Below the
// size rule (keyScratch.reset) the table is sized once per transfer for
// every key it could be asked to hold, so it never grows; past it the table
// holds only the keys the trie bitmap cannot, and grows as they come. A
// bgp.PrefixKey is below 2^38, so slots hold key+1 and zero marks an empty
// slot. Against a Go map it saves the general-purpose hashing and lets one
// table be cleared and reused across transfers.
type keySet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // distinct keys
	// spare is grow's copy of the table it rehashes, kept so that a warm
	// set regrows without allocating.
	spare []uint64
}

// slotsFor returns the power-of-two slot count that holds up to max keys at
// a load factor of at most 2/3.
func slotsFor(max int) int {
	size := 8
	for size < max+max/2 {
		size *= 2
	}
	return size
}

// reset empties s and gives it size slots, a power of two.
func (s *keySet) reset(size int) {
	if cap(s.slots) >= size {
		s.slots = s.slots[:size]
		clear(s.slots)
	} else {
		s.slots = make([]uint64, size)
	}
	s.shift, s.n = uint(64-bits.TrailingZeros(uint(size))), 0
}

// insert adds key k and returns 1 if it was previously unseen, 0 if not.
// Whether a key is new varies from key to key in no pattern a branch
// predictor learns, so the probe takes no branch on it: one branch stops at
// the first slot that is empty or holds k, the slot is written either way,
// and its emptiness is the result. FindEnd, FindEndKeys and grow all insert
// through it.
func (s *keySet) insert(k uint64) int {
	k++
	mask := len(s.slots) - 1
	// Fibonacci hashing: the multiply spreads every key bit into the top
	// bits, which pick the slot.
	i := int((k * 0x9E3779B97F4A7C15) >> s.shift)
	for min(s.slots[i], s.slots[i]^k) != 0 {
		i = (i + 1) & mask
	}
	// A slot holds at most 2^38, so only an empty one wraps to the top bit.
	novel := int((s.slots[i] - 1) >> 63)
	s.slots[i] = k
	s.n += novel
	return novel
}

// grow doubles s's table and rehashes its keys into it.
func (s *keySet) grow() {
	s.spare = append(s.spare[:0], s.slots...)
	s.reset(2 * len(s.slots))
	for _, k := range s.spare {
		if k != 0 {
			s.insert(k - 1)
		}
	}
}

const (
	// trieBits is the largest prefix length the trie bitmap holds.
	trieBits = 24
	// trieWords is the bitmap's length in words: one bit for each of the
	// 2^(trieBits+1)-1 trie positions, and bit 0 unused.
	trieWords = 1 << (trieBits + 1 - 6)
)

// trieBitmap has one bit for every IPv4 prefix of length at most trieBits:
// the prefix of length l whose address is a sits at bit 1<<l | a>>(32-l),
// its position in a heap-ordered binary trie. Neighbouring prefixes share a
// word, and the whole trie takes 4 MB, the size of a keySet table of 2^19
// slots.
type trieBitmap [trieWords]uint64

// point is one update as the end rule sees it.
type point struct {
	time    Micros
	total   int // announcements in this update
	novel   int // previously unseen prefixes in this update
	cumulen int // unique prefixes after this update
}

// FindEnd locates the transfer end in updates (which must be time-sorted;
// they are sorted defensively, stably, in a copy). ok is false for an
// empty stream.
func FindEnd(updates []Update, cfg Config) (Result, bool) {
	if len(updates) == 0 {
		return Result{}, false
	}
	ups := updates
	byTime := func(a, b Update) int { return cmp.Compare(a.Time, b.Time) }
	if !slices.IsSortedFunc(ups, byTime) {
		ups = slices.Clone(ups)
		slices.SortStableFunc(ups, byTime)
	}
	// Size the seen-set for the announcement count: a table transfer is
	// mostly distinct prefixes.
	announced := 0
	for _, u := range ups {
		announced += len(u.Keys)
	}
	sc := keyPool.Get().(*keyScratch)
	sc.reset(announced, len(ups))
	for _, u := range ups {
		sc.add(u.Time, u.Keys)
	}
	res := cfg.withDefaults().end(sc.points)
	keyPool.Put(sc)
	return res, true
}

// KeyUpdate is one timed update of a KeyStream: it announced the prefixes
// whose keys are Keys[Start:End].
type KeyUpdate struct {
	Time       Micros
	Start, End int
}

// KeyStream is an update stream with every announced prefix packed into
// its bgp.PrefixKey, all updates sharing one key buffer. It is what
// reassembly.Scanner.ScanKeys recovers from a capture without building a
// bgp.Message. The owner reuses one across transfers: Reset keeps the
// buffers, and the stream also carries FindEndKeys's scratch, so a warm
// FindEndKeys over a reused stream allocates nothing. The scratch stays as
// large as the largest streams it has counted. Its seen-set is a table of
// at most 2 MB below the size rule (keyScratch.reset) and a 4 MB trie
// bitmap past it, beside a table of the keys the bitmap cannot hold, so a
// ~950k-prefix full table takes 4 MB, not the 16 MB of one table.
type KeyStream struct {
	Keys    []uint64
	Updates []KeyUpdate

	sc keyScratch
}

// Reset empties s, keeping its buffers.
func (s *KeyStream) Reset() {
	s.Keys, s.Updates = s.Keys[:0], s.Updates[:0]
}

// keyScratch is the working set of FindEnd and FindEndKeys: the seen-set
// and the points. It keeps its grown buffers, so a warm call allocates
// nothing. FindEndKeys keeps it in the KeyStream it reads; FindEnd leases
// it from keyPool for the call.
//
// The seen-set has two representations, chosen once per stream by reset.
// A stream whose keySet would need fewer slots than the trie bitmap has
// words counts every key in a table sized for all of them. A larger one, a
// full table, counts each canonical key of length at most trieBits in the
// bitmap, and only the rest (longer prefixes, keys with host bits set and
// length fields past 32) in a table that grows as they come.
type keyScratch struct {
	seen   keySet
	trie   *trieBitmap // allocated by the first stream past the size rule
	inTrie bool        // the current stream counts in trie
	marked int         // bits the current stream has set in trie
	points []point
}

// reset empties sc for a stream of the given number of announcements and
// updates, choosing the seen-set's representation from the announcement
// count.
func (sc *keyScratch) reset(announced, updates int) {
	size := slotsFor(announced)
	sc.inTrie = size >= trieWords
	if sc.inTrie {
		sc.seen.reset(slotsFor(0))
		if sc.trie == nil {
			sc.trie = new(trieBitmap)
		} else {
			clear(sc.trie[:])
		}
	} else {
		sc.seen.reset(size)
	}
	sc.marked = 0
	sc.points = slices.Grow(sc.points[:0], updates)
}

// add counts the novelty of the next update, at time t with the given
// announcements: the novelty loop FindEnd and FindEndKeys share.
func (sc *keyScratch) add(t Micros, keys []uint64) {
	if sc.inTrie {
		sc.addTrie(t, keys)
		return
	}
	novel := 0
	for _, k := range keys {
		novel += sc.seen.insert(k)
	}
	sc.points = append(sc.points, point{time: t, total: len(keys), novel: novel, cumulen: sc.seen.n})
}

// addTrie is add for a stream past the size rule.
func (sc *keyScratch) addTrie(t Micros, keys []uint64) {
	novel, marked, trie := 0, 0, sc.trie
	for _, k := range keys {
		l, a := k>>32, uint32(k)
		if l > trieBits || a<<l != 0 {
			novel += sc.seen.insert(k)
			if 3*sc.seen.n > 2*len(sc.seen.slots) {
				sc.seen.grow()
			}
			continue
		}
		i := 1<<l | uint64(a>>(32-l))
		// i is below 2^(trieBits+1); the mask only lets the compiler drop
		// the bounds check. The bit is set whether or not it was, and its
		// old value counted, with no branch on it.
		w := &trie[i>>6&(trieWords-1)]
		old := *w
		*w = old | 1<<(i&63)
		marked += int(^old >> (i & 63) & 1)
	}
	sc.marked += marked
	sc.points = append(sc.points, point{time: t, total: len(keys), novel: novel + marked, cumulen: sc.seen.n + sc.marked})
}

var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

// FindEndKeys is FindEnd over a KeyStream: for the same announcements it
// returns the same result, and it sorts s.Updates by time in place (stably)
// if they are not already. ok is false when s holds no update.
func FindEndKeys(s *KeyStream, cfg Config) (Result, bool) {
	ups := s.Updates
	if len(ups) == 0 {
		return Result{}, false
	}
	byTime := func(a, b KeyUpdate) int { return cmp.Compare(a.Time, b.Time) }
	if !slices.IsSortedFunc(ups, byTime) {
		slices.SortStableFunc(ups, byTime)
	}
	s.sc.reset(len(s.Keys), len(ups))
	for _, u := range ups {
		s.sc.add(u.Time, s.Keys[u.Start:u.End])
	}
	return cfg.withDefaults().end(s.sc.points), true
}

// end applies the transfer-end rule to time-sorted, non-empty points.
func (cfg Config) end(points []point) Result {
	// Scan forward: the transfer continues while updates keep arriving
	// densely and keep contributing new prefixes. The trailing novelty
	// window slides with two pointers — wStart is non-decreasing, so each
	// point enters and leaves the running total/novel sums exactly once.
	endIdx := 0
	lo := 0
	wTotal, wNovel := points[0].total, points[0].novel
	for i := 1; i < len(points); i++ {
		gap := points[i].time - points[i-1].time
		if gap > cfg.QuietGap {
			break
		}
		// Trailing-window novelty: fraction of announcements that are new.
		wTotal += points[i].total
		wNovel += points[i].novel
		wStart := points[i].time - cfg.NoveltyWindow
		for points[lo].time < wStart {
			wTotal -= points[lo].total
			wNovel -= points[lo].novel
			lo++
		}
		if wTotal > 0 && float64(wNovel)/float64(wTotal) < cfg.MinNovelty {
			// The stream has stopped revealing table content: end at the
			// last update that contributed something new.
			break
		}
		endIdx = i
	}
	// Extend endIdx to the last update that added novelty at or before it.
	for endIdx > 0 && points[endIdx].novel == 0 {
		endIdx--
	}
	return Result{
		End:            points[endIdx].time,
		Updates:        endIdx + 1,
		UniquePrefixes: points[endIdx].cumulen,
	}
}

// mrtKeys recycles FromMRT's key streams. A stream never outlives the
// call: the updates it returns hold a copy of its keys.
var mrtKeys = sync.Pool{New: func() any { return new(KeyStream) }}

// FromMRT converts a collector's MRT archive into MCT updates — the
// Quagga-collector pipeline of paper §II-A, where the transfer end comes
// from the BGP archive rather than payload reassembly. Records that fail
// bgp.Parse's validation, messages other than UPDATE and UPDATEs that
// announce nothing are skipped; it returns nil when nothing is left. All
// updates share one key array, each holding a capped view of it.
func FromMRT(records []mrt.Record) []Update {
	ks := mrtKeys.Get().(*KeyStream)
	defer mrtKeys.Put(ks)
	ks.Reset()
	for _, r := range records {
		start := len(ks.Keys)
		keys, err := bgp.ScanMessage(r.Raw, ks.Keys)
		if err != nil || len(keys) == start {
			continue
		}
		ks.Keys = keys
		ks.Updates = append(ks.Updates, KeyUpdate{Time: r.TimeMicros, Start: start, End: len(keys)})
	}
	if len(ks.Updates) == 0 {
		return nil
	}
	keys := slices.Clone(ks.Keys)
	out := make([]Update, len(ks.Updates))
	for i, u := range ks.Updates {
		out[i] = Update{Time: u.Time, Keys: keys[u.Start:u.End:u.End]}
	}
	return out
}

// FromMessages converts reassembled/archived BGP messages, as bgp.Parse
// decodes them, to MCT updates, skipping messages other than UPDATE and
// UPDATEs that announce nothing. Like FromMRT's, the updates share one key
// array.
func FromMessages(times []Micros, msgs []bgp.Message) []Update {
	updates, announced := 0, 0
	for _, m := range msgs {
		if u, ok := m.(*bgp.Update); ok && len(u.NLRI) > 0 {
			updates, announced = updates+1, announced+len(u.NLRI)
		}
	}
	if updates == 0 {
		return nil
	}
	out := make([]Update, 0, updates)
	keys := make([]uint64, 0, announced)
	for i, m := range msgs {
		u, ok := m.(*bgp.Update)
		if !ok || len(u.NLRI) == 0 {
			continue
		}
		start := len(keys)
		for _, p := range u.NLRI {
			keys = append(keys, bgp.PrefixKey(p))
		}
		out = append(out, Update{Time: times[i], Keys: keys[start:len(keys):len(keys)]})
	}
	return out
}
