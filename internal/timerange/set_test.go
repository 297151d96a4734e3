package timerange

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	tests := []struct {
		name     string
		r        Range
		empty    bool
		len      Micros
		contains map[Micros]bool
	}{
		{
			name:     "normal",
			r:        R(10, 20),
			empty:    false,
			len:      10,
			contains: map[Micros]bool{9: false, 10: true, 19: true, 20: false},
		},
		{
			name:     "empty equal endpoints",
			r:        R(5, 5),
			empty:    true,
			len:      0,
			contains: map[Micros]bool{5: false},
		},
		{
			name:     "inverted is empty",
			r:        R(8, 3),
			empty:    true,
			len:      0,
			contains: map[Micros]bool{5: false},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Empty(); got != tt.empty {
				t.Errorf("Empty() = %v, want %v", got, tt.empty)
			}
			if got := tt.r.Len(); got != tt.len {
				t.Errorf("Len() = %d, want %d", got, tt.len)
			}
			for pt, want := range tt.contains {
				if got := tt.r.Contains(pt); got != want {
					t.Errorf("Contains(%d) = %v, want %v", pt, got, want)
				}
			}
		})
	}
}

func TestRangeOverlapsAdjacent(t *testing.T) {
	tests := []struct {
		name     string
		a, b     Range
		overlaps bool
		adjacent bool
	}{
		{"disjoint", R(0, 5), R(10, 15), false, false},
		{"abutting", R(0, 5), R(5, 10), false, true},
		{"overlapping", R(0, 6), R(5, 10), true, false},
		{"nested", R(0, 10), R(3, 4), true, false},
		{"identical", R(2, 4), R(2, 4), true, false},
		{"empty never overlaps", R(3, 3), R(0, 10), false, false},
		{"empty never adjacent", R(5, 5), R(5, 10), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Overlaps(tt.b); got != tt.overlaps {
				t.Errorf("Overlaps = %v, want %v", got, tt.overlaps)
			}
			if got := tt.b.Overlaps(tt.a); got != tt.overlaps {
				t.Errorf("Overlaps (reversed) = %v, want %v", got, tt.overlaps)
			}
			if got := tt.a.Adjacent(tt.b); got != tt.adjacent {
				t.Errorf("Adjacent = %v, want %v", got, tt.adjacent)
			}
		})
	}
}

func TestRangeIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b Range
		want Range
	}{
		{"overlap", R(0, 10), R(5, 15), R(5, 10)},
		{"disjoint yields empty", R(0, 5), R(10, 20), R(10, 10)},
		{"nested", R(0, 100), R(30, 40), R(30, 40)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Intersect(tt.b)
			if got.Len() != tt.want.Len() || (!got.Empty() && got != tt.want) {
				t.Errorf("Intersect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetAddCoalesces(t *testing.T) {
	tests := []struct {
		name string
		add  []Range
		want []Range
	}{
		{"disjoint", []Range{R(0, 5), R(10, 15)}, []Range{R(0, 5), R(10, 15)}},
		{"out of order", []Range{R(10, 15), R(0, 5)}, []Range{R(0, 5), R(10, 15)}},
		{"adjacent coalesce", []Range{R(0, 5), R(5, 10)}, []Range{R(0, 10)}},
		{"overlap coalesce", []Range{R(0, 7), R(5, 10)}, []Range{R(0, 10)}},
		{"bridge three", []Range{R(0, 5), R(10, 15), R(4, 11)}, []Range{R(0, 15)}},
		{"empty ignored", []Range{R(5, 5), R(9, 3)}, nil},
		{"duplicate", []Range{R(1, 2), R(1, 2)}, []Range{R(1, 2)}},
		{"nested absorbed", []Range{R(0, 100), R(10, 20)}, []Range{R(0, 100)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSet(tt.add...)
			got := s.Ranges()
			if len(got) != len(tt.want) {
				t.Fatalf("Ranges() = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("range %d = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestSetSize(t *testing.T) {
	s := NewSet(R(0, 5), R(10, 15), R(12, 20))
	if got, want := s.Size(), Micros(15); got != want {
		t.Errorf("Size() = %d, want %d", got, want)
	}
	if got := (&Set{}).Size(); got != 0 {
		t.Errorf("empty Size() = %d, want 0", got)
	}
}

func TestSetContainsQuery(t *testing.T) {
	s := NewSet(R(0, 5), R(10, 20))
	for pt, want := range map[Micros]bool{0: true, 4: true, 5: false, 9: false, 10: true, 19: true, 20: false} {
		if got := s.Contains(pt); got != want {
			t.Errorf("Contains(%d) = %v, want %v", pt, got, want)
		}
	}
	got := s.Query(R(3, 12))
	want := []Range{R(3, 5), R(10, 12)}
	if len(got) != len(want) {
		t.Fatalf("Query = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("Query[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if q := s.Query(R(5, 10)); len(q) != 0 {
		t.Errorf("Query of gap = %v, want empty", q)
	}
	r, ok := s.CoveringRange(12)
	if !ok || r != R(10, 20) {
		t.Errorf("CoveringRange(12) = %v,%v want [10,20),true", r, ok)
	}
	if _, ok := s.CoveringRange(7); ok {
		t.Error("CoveringRange(7) found a range in a gap")
	}
}

func TestSetUnion(t *testing.T) {
	tests := []struct {
		name string
		a, b *Set
		want *Set
	}{
		{"disjoint", NewSet(R(0, 5)), NewSet(R(10, 15)), NewSet(R(0, 5), R(10, 15))},
		{"interleaved", NewSet(R(0, 5), R(20, 25)), NewSet(R(3, 22)), NewSet(R(0, 25))},
		{"empty right", NewSet(R(0, 5)), NewSet(), NewSet(R(0, 5))},
		{"empty both", NewSet(), NewSet(), NewSet()},
		{"adjacent across sets", NewSet(R(0, 5)), NewSet(R(5, 9)), NewSet(R(0, 9))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Union(tt.b); !got.Equal(tt.want) {
				t.Errorf("Union = %v, want %v", got, tt.want)
			}
			if got := tt.b.Union(tt.a); !got.Equal(tt.want) {
				t.Errorf("Union (commuted) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b *Set
		want *Set
	}{
		{"disjoint", NewSet(R(0, 5)), NewSet(R(10, 15)), NewSet()},
		{"partial", NewSet(R(0, 10)), NewSet(R(5, 15)), NewSet(R(5, 10))},
		{"multi", NewSet(R(0, 10), R(20, 30)), NewSet(R(5, 25)), NewSet(R(5, 10), R(20, 25))},
		{"adjacent is empty", NewSet(R(0, 5)), NewSet(R(5, 10)), NewSet()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersect(tt.b); !got.Equal(tt.want) {
				t.Errorf("Intersect = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersect(tt.a); !got.Equal(tt.want) {
				t.Errorf("Intersect (commuted) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetSubtract(t *testing.T) {
	tests := []struct {
		name string
		a, b *Set
		want *Set
	}{
		{"carve middle", NewSet(R(0, 10)), NewSet(R(3, 6)), NewSet(R(0, 3), R(6, 10))},
		{"carve ends", NewSet(R(0, 10)), NewSet(R(0, 2), R(8, 10)), NewSet(R(2, 8))},
		{"no overlap", NewSet(R(0, 5)), NewSet(R(10, 15)), NewSet(R(0, 5))},
		{"total removal", NewSet(R(3, 6)), NewSet(R(0, 10)), NewSet()},
		{"multi over multi", NewSet(R(0, 4), R(6, 10)), NewSet(R(2, 8)), NewSet(R(0, 2), R(8, 10))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Subtract(tt.b); !got.Equal(tt.want) {
				t.Errorf("Subtract = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetComplementAndGaps(t *testing.T) {
	s := NewSet(R(2, 4), R(6, 8))
	comp := s.Complement(R(0, 10))
	if want := NewSet(R(0, 2), R(4, 6), R(8, 10)); !comp.Equal(want) {
		t.Errorf("Complement = %v, want %v", comp, want)
	}
	gaps := s.Gaps()
	if len(gaps) != 1 || gaps[0] != R(4, 6) {
		t.Errorf("Gaps = %v, want [[4,6)]", gaps)
	}
	if g := NewSet(R(1, 2)).Gaps(); g != nil {
		t.Errorf("single-range Gaps = %v, want nil", g)
	}
}

func TestSetBounds(t *testing.T) {
	if _, ok := NewSet().Bounds(); ok {
		t.Error("empty set reported bounds")
	}
	b, ok := NewSet(R(3, 5), R(9, 12)).Bounds()
	if !ok || b != R(3, 12) {
		t.Errorf("Bounds = %v,%v want [3,12),true", b, ok)
	}
}

// randomSet builds a set from up to n random small ranges.
func randomSet(rnd *rand.Rand, n int) *Set {
	s := &Set{}
	for i := 0; i < n; i++ {
		start := Micros(rnd.Intn(200))
		s.Add(R(start, start+Micros(rnd.Intn(20))))
	}
	return s
}

// coverage returns a boolean picture of which instants in [0,240) a set covers.
func coverage(s *Set) [240]bool {
	var c [240]bool
	for i := range c {
		c[i] = s.Contains(Micros(i))
	}
	return c
}

func TestSetInvariantNormalized(t *testing.T) {
	// Property: after arbitrary Adds, ranges are sorted, disjoint,
	// non-adjacent, non-empty.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		s := randomSet(rnd, 30)
		for i, r := range s.ranges {
			if r.Empty() {
				return false
			}
			if i > 0 && s.ranges[i-1].End >= r.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	// Property: pointwise semantics of union/intersect/subtract match
	// boolean algebra on membership.
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randomSet(rnd, 12)
		b := randomSet(rnd, 12)
		u, x, d := a.Union(b), a.Intersect(b), a.Subtract(b)
		ca, cb := coverage(a), coverage(b)
		cu, cx, cd := coverage(u), coverage(x), coverage(d)
		for i := range ca {
			if cu[i] != (ca[i] || cb[i]) {
				return false
			}
			if cx[i] != (ca[i] && cb[i]) {
				return false
			}
			if cd[i] != (ca[i] && !cb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSetDeMorganProperty(t *testing.T) {
	// Property: complement(A ∪ B) == complement(A) ∩ complement(B) within a
	// window.
	w := R(0, 240)
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randomSet(rnd, 10)
		b := randomSet(rnd, 10)
		left := a.Union(b).Complement(w)
		right := a.Complement(w).Intersect(b.Complement(w))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSetSizePartitionProperty(t *testing.T) {
	// Property: |A| = |A∩B| + |A\B| (intersection and difference partition A).
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := randomSet(rnd, 15)
		b := randomSet(rnd, 15)
		return a.Size() == a.Intersect(b).Size()+a.Subtract(b).Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetUnionAllMatchesSequential(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	sets := make([]*Set, 5)
	for i := range sets {
		sets[i] = randomSet(rnd, 8)
	}
	got := UnionAll(sets...)
	want := &Set{}
	for _, s := range sets {
		want = want.Union(s)
	}
	if !got.Equal(want) {
		t.Errorf("UnionAll = %v, want %v", got, want)
	}
	if !UnionAll(nil, NewSet(R(1, 2)), nil).Equal(NewSet(R(1, 2))) {
		t.Error("UnionAll should skip nil sets")
	}
}

func TestSetCloneIsIndependent(t *testing.T) {
	a := NewSet(R(0, 5))
	b := a.Clone()
	b.Add(R(10, 20))
	if a.Len() != 1 || b.Len() != 2 {
		t.Errorf("Clone not independent: a=%v b=%v", a, b)
	}
}

func TestSetString(t *testing.T) {
	if got, want := NewSet(R(0, 5), R(7, 9)).String(), "{[0,5) [7,9)}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSetEdgeCases(t *testing.T) {
	// Degenerate inputs a damaged capture feeds the interval algebra:
	// empty, zero-width, and inverted ranges must be inert, and adjacency
	// must coalesce without double-counting. The reassembly layer builds
	// MissingRanges out of hostile sequence numbers, so "garbage in,
	// normalized set out" is a hard requirement, not a nicety.
	cases := []struct {
		name string
		add  []Range
		want []Range
		size Micros
	}{
		{name: "no ranges", add: nil, want: nil, size: 0},
		{name: "single empty range", add: []Range{R(5, 5)}, want: nil, size: 0},
		{name: "inverted range", add: []Range{R(9, 3)}, want: nil, size: 0},
		{name: "empty among real", add: []Range{R(0, 4), R(6, 6), R(8, 10)},
			want: []Range{R(0, 4), R(8, 10)}, size: 6},
		{name: "exactly adjacent coalesce", add: []Range{R(0, 5), R(5, 9)},
			want: []Range{R(0, 9)}, size: 9},
		{name: "adjacent chain out of order", add: []Range{R(6, 9), R(0, 3), R(3, 6)},
			want: []Range{R(0, 9)}, size: 9},
		{name: "duplicate range", add: []Range{R(2, 7), R(2, 7)},
			want: []Range{R(2, 7)}, size: 5},
		{name: "contained range", add: []Range{R(0, 10), R(3, 5)},
			want: []Range{R(0, 10)}, size: 10},
		{name: "negative times", add: []Range{R(-10, -5), R(-5, 0)},
			want: []Range{R(-10, 0)}, size: 10},
		{name: "one-micro ranges", add: []Range{R(0, 1), R(2, 3), R(1, 2)},
			want: []Range{R(0, 3)}, size: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet(tc.add...)
			got := s.Ranges()
			if len(got) != len(tc.want) {
				t.Fatalf("Ranges() = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Ranges() = %v, want %v", got, tc.want)
				}
			}
			if s.Size() != tc.size {
				t.Errorf("Size() = %d, want %d", s.Size(), tc.size)
			}
			if s.Empty() != (len(tc.want) == 0) {
				t.Errorf("Empty() = %v with %d ranges", s.Empty(), len(tc.want))
			}
		})
	}
}

func TestSetOpsOnEmptySets(t *testing.T) {
	// Every binary operation must treat the empty set as a unit or a zero,
	// never panic on it.
	empty := NewSet()
	some := NewSet(R(2, 8))
	if got := empty.Union(some); !got.Equal(some) {
		t.Errorf("∅ ∪ s = %v", got)
	}
	if got := some.Intersect(empty); !got.Empty() {
		t.Errorf("s ∩ ∅ = %v", got)
	}
	if got := some.Subtract(empty); !got.Equal(some) {
		t.Errorf("s − ∅ = %v", got)
	}
	if got := empty.Subtract(some); !got.Empty() {
		t.Errorf("∅ − s = %v", got)
	}
	if got := empty.Complement(R(0, 10)); got.Size() != 10 {
		t.Errorf("complement of ∅ over [0,10) = %v", got)
	}
	if got := empty.Complement(R(5, 5)); !got.Empty() {
		t.Errorf("complement over an empty window = %v", got)
	}
	if gaps := empty.Gaps(); len(gaps) != 0 {
		t.Errorf("Gaps() on ∅ = %v", gaps)
	}
	if _, ok := empty.Bounds(); ok {
		t.Error("Bounds() on ∅ reported a range")
	}
	if empty.Contains(0) {
		t.Error("∅ contains 0")
	}
}
