package timerange

import (
	"fmt"
	"sort"
	"strings"
)

// Set is an ordered set of disjoint, non-adjacent, non-empty time ranges —
// the paper's "event series" container. The zero value is an empty set ready
// to use. Set is not safe for concurrent mutation.
type Set struct {
	ranges []Range
}

// NewSet builds a normalized set from arbitrary ranges: empties are dropped,
// overlapping and adjacent ranges are coalesced.
func NewSet(ranges ...Range) *Set {
	s := &Set{}
	for _, r := range ranges {
		s.Add(r)
	}
	return s
}

// Len returns the number of disjoint ranges in the set.
func (s *Set) Len() int { return len(s.ranges) }

// Empty reports whether the set covers no time.
func (s *Set) Empty() bool { return len(s.ranges) == 0 }

// Size returns the total covered duration — the paper's series "set size",
// the numerator of every delay ratio.
func (s *Set) Size() Micros {
	var total Micros
	for _, r := range s.ranges {
		total += r.Len()
	}
	return total
}

// Ranges returns a copy of the underlying ranges in ascending order.
func (s *Set) Ranges() []Range {
	out := make([]Range, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// At returns the i-th range in ascending order.
func (s *Set) At(i int) Range { return s.ranges[i] }

// Bounds returns the smallest range covering the whole set, and false if the
// set is empty.
func (s *Set) Bounds() (Range, bool) {
	if len(s.ranges) == 0 {
		return Range{}, false
	}
	return Range{Start: s.ranges[0].Start, End: s.ranges[len(s.ranges)-1].End}, true
}

// Reset empties s, keeping its storage for the next Adds.
func (s *Set) Reset() { s.ranges = s.ranges[:0] }

// Add inserts r, coalescing with any overlapping or adjacent ranges.
func (s *Set) Add(r Range) {
	if r.Empty() {
		return
	}
	// Find the first range whose End >= r.Start (merge candidates begin here,
	// counting adjacency).
	lo := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End >= r.Start })
	// Find the first range strictly after r (Start > r.End, not adjacent).
	hi := lo
	for hi < len(s.ranges) && s.ranges[hi].Start <= r.End {
		hi++
	}
	if lo == hi {
		// No overlap/adjacency: pure insert at lo.
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[lo+1:], s.ranges[lo:])
		s.ranges[lo] = r
		return
	}
	merged := Range{Start: min(r.Start, s.ranges[lo].Start), End: max(r.End, s.ranges[hi-1].End)}
	s.ranges[lo] = merged
	s.ranges = append(s.ranges[:lo+1], s.ranges[hi:]...)
}

// Contains reports whether instant t is covered.
func (s *Set) Contains(t Micros) bool {
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End > t })
	return i < len(s.ranges) && s.ranges[i].Contains(t)
}

// CoveringRange returns the range containing t, if any.
func (s *Set) CoveringRange(t Micros) (Range, bool) {
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End > t })
	if i < len(s.ranges) && s.ranges[i].Contains(t) {
		return s.ranges[i], true
	}
	return Range{}, false
}

// Query returns the ranges overlapping window w, clipped to w.
func (s *Set) Query(w Range) []Range {
	if w.Empty() {
		return nil
	}
	lo := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End > w.Start })
	var out []Range
	for i := lo; i < len(s.ranges) && s.ranges[i].Start < w.End; i++ {
		out = append(out, s.ranges[i].Clamp(w))
	}
	return out
}

// OverlapLen returns the total covered length inside window w — the sum of
// Query's clipped range lengths without materializing them, for callers
// (like the per-packet loss classifier) that only need the measure.
func (s *Set) OverlapLen(w Range) Micros {
	if w.Empty() {
		return 0
	}
	lo := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End > w.Start })
	var total Micros
	for i := lo; i < len(s.ranges) && s.ranges[i].Start < w.End; i++ {
		total += s.ranges[i].Clamp(w).Len()
	}
	return total
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	return &Set{ranges: append([]Range(nil), s.ranges...)}
}

// Union returns a new set covering every instant in s or o.
func (s *Set) Union(o *Set) *Set {
	out := &Set{ranges: make([]Range, 0, len(s.ranges)+len(o.ranges))}
	i, j := 0, 0
	var cur Range
	haveCur := false
	push := func(r Range) {
		if !haveCur {
			cur, haveCur = r, true
			return
		}
		if r.Start <= cur.End { // overlap or adjacency
			if r.End > cur.End {
				cur.End = r.End
			}
			return
		}
		out.ranges = append(out.ranges, cur)
		cur = r
	}
	for i < len(s.ranges) || j < len(o.ranges) {
		switch {
		case j >= len(o.ranges) || (i < len(s.ranges) && s.ranges[i].Start <= o.ranges[j].Start):
			push(s.ranges[i])
			i++
		default:
			push(o.ranges[j])
			j++
		}
	}
	if haveCur {
		out.ranges = append(out.ranges, cur)
	}
	return out
}

// UnionAll unions any number of sets. Nil sets are treated as empty.
func UnionAll(sets ...*Set) *Set {
	out := &Set{}
	for _, s := range sets {
		if s == nil {
			continue
		}
		out = out.Union(s)
	}
	return out
}

// Intersect returns a new set covering every instant in both s and o.
func (s *Set) Intersect(o *Set) *Set {
	out := &Set{}
	i, j := 0, 0
	for i < len(s.ranges) && j < len(o.ranges) {
		iv := s.ranges[i].Intersect(o.ranges[j])
		if !iv.Empty() {
			out.ranges = append(out.ranges, iv)
		}
		if s.ranges[i].End < o.ranges[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns a new set covering instants in s but not in o.
func (s *Set) Subtract(o *Set) *Set {
	out := &Set{}
	j := 0
	for _, r := range s.ranges {
		start := r.Start
		for j < len(o.ranges) && o.ranges[j].End <= start {
			j++
		}
		k := j
		for k < len(o.ranges) && o.ranges[k].Start < r.End {
			cut := o.ranges[k]
			if cut.Start > start {
				out.ranges = append(out.ranges, Range{Start: start, End: cut.Start})
			}
			if cut.End > start {
				start = cut.End
			}
			if cut.End >= r.End {
				break
			}
			k++
		}
		if start < r.End {
			out.ranges = append(out.ranges, Range{Start: start, End: r.End})
		}
	}
	return out
}

// Complement returns the gaps of s within window w — every instant of w not
// covered by s. This is the paper's set complement restricted to the
// analysis period.
func (s *Set) Complement(w Range) *Set {
	return NewSet(w).Subtract(s)
}

// Gaps returns the uncovered intervals strictly between consecutive ranges
// of s (no leading/trailing gap). Used for inter-transmission gap analysis.
func (s *Set) Gaps() []Range {
	if len(s.ranges) < 2 {
		return nil
	}
	out := make([]Range, 0, len(s.ranges)-1)
	for i := 1; i < len(s.ranges); i++ {
		out = append(out, Range{Start: s.ranges[i-1].End, End: s.ranges[i].Start})
	}
	return out
}

// Equal reports whether two sets cover exactly the same instants.
func (s *Set) Equal(o *Set) bool {
	if len(s.ranges) != len(o.ranges) {
		return false
	}
	for i := range s.ranges {
		if s.ranges[i] != o.ranges[i] {
			return false
		}
	}
	return true
}

// String renders the set compactly, e.g. "{[0,5) [7,9)}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.ranges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s", r)
	}
	b.WriteByte('}')
	return b.String()
}
