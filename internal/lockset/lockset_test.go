package lockset

import (
	"testing"
	"testing/quick"
)

func TestCanonBasics(t *testing.T) {
	tb := NewTable()
	if tb.Canon(nil) != Empty {
		t.Fatalf("empty lockset must be Empty")
	}
	a := tb.Canon([]uint32{3, 1, 2})
	b := tb.Canon([]uint32{2, 3, 1})
	c := tb.Canon([]uint32{1, 2})
	if a != b {
		t.Errorf("order must not matter")
	}
	if a == c {
		t.Errorf("different sets must intern differently")
	}
	d := tb.Canon([]uint32{1, 1, 2, 2})
	if d != c {
		t.Errorf("duplicates must be removed: %v vs %v", tb.Set(d), tb.Set(c))
	}
}

func TestIntersects(t *testing.T) {
	tb := NewTable()
	a := tb.Canon([]uint32{1, 2})
	b := tb.Canon([]uint32{2, 3})
	c := tb.Canon([]uint32{4})
	if !tb.Intersects(a, b) {
		t.Errorf("{1,2} ∩ {2,3} should be nonempty")
	}
	if tb.Intersects(a, c) || tb.Intersects(c, a) {
		t.Errorf("{1,2} ∩ {4} should be empty")
	}
	if tb.Intersects(a, Empty) || tb.Intersects(Empty, a) {
		t.Errorf("empty lockset intersects nothing")
	}
	if !tb.Intersects(a, a) {
		t.Errorf("a set intersects itself")
	}
}

// TestIntersectsSpill exercises the bitset spill path: more than 64
// distinct lock objects forces dense indices past the inline word, so
// intersection must compare the hi words too.
func TestIntersectsSpill(t *testing.T) {
	tb := NewTable()
	// 100 distinct locks interned one set at a time: each singleton lands
	// on its own dense bit, the last 36 of them in spill words.
	singles := make([]ID, 100)
	for i := range singles {
		singles[i] = tb.Canon([]uint32{uint32(1000 + i)})
	}
	if st := tb.Stats(); st.Locks != 100 {
		t.Fatalf("distinct locks = %d, want 100", st.Locks)
	}
	for i, a := range singles {
		for j, b := range singles {
			if got, want := tb.Intersects(a, b), i == j; got != want {
				t.Fatalf("singleton %d ∩ %d = %v, want %v", i, j, got, want)
			}
		}
	}
	// A set straddling the word boundary intersects sets on either side.
	wide := tb.Canon([]uint32{1000 + 63, 1000 + 64})
	if !tb.Intersects(wide, singles[63]) || !tb.Intersects(singles[64], wide) {
		t.Fatal("straddling set must intersect both halves")
	}
	if tb.Intersects(wide, singles[62]) || tb.Intersects(wide, singles[65]) {
		t.Fatal("straddling set must not intersect its neighbors")
	}
	// Sets sharing only a spill-word element.
	hiA := tb.Canon([]uint32{1000 + 70, 1000 + 90})
	hiB := tb.Canon([]uint32{1000 + 80, 1000 + 90})
	hiC := tb.Canon([]uint32{1000 + 71, 1000 + 81})
	if !tb.Intersects(hiA, hiB) {
		t.Fatal("{70,90} ∩ {80,90} shares 90 in the spill words")
	}
	if tb.Intersects(hiA, hiC) || tb.Intersects(hiB, hiC) {
		t.Fatal("disjoint spill sets must not intersect")
	}
}

// TestCanonReusesIDs pins that re-interning identical contents (in any
// order, with duplicates) returns the same ID and allocates no new set.
func TestCanonReusesIDs(t *testing.T) {
	tb := NewTable()
	a := tb.Canon([]uint32{9, 5, 7})
	n := tb.Len()
	if tb.Canon([]uint32{7, 9, 5, 5, 7}) != a || tb.Len() != n {
		t.Fatal("identical contents must reuse the interned ID")
	}
}

// TestCanonHitAllocFree pins Canon's hit path to zero allocations: SHB
// construction calls it once per emitted node, almost always with a
// lockset already interned. Duplicates and disorder exercise the reused
// sort and dedupe buffer; the >64-lock set exercises a longer key.
func TestCanonHitAllocFree(t *testing.T) {
	tb := NewTable()
	big := make([]uint32, 80)
	for i := range big {
		big[i] = uint32(200 - i)
	}
	sets := [][]uint32{{7, 3, 7, 1}, {42}, big}
	ids := make([]ID, len(sets))
	for i, s := range sets {
		ids[i] = tb.Canon(s)
	}
	calls := tb.Stats().CanonCalls
	allocs := testing.AllocsPerRun(100, func() {
		for i, s := range sets {
			if tb.Canon(s) != ids[i] {
				t.Fatalf("set %d re-interned differently", i)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Canon hit allocates %v per round", allocs)
	}
	if got := tb.Stats().CanonCalls - calls; got != 101*int64(len(sets)) {
		t.Fatalf("canon calls counted %d, want %d", got, 101*len(sets))
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct {
		x, y []uint32
		want bool
	}{
		{nil, nil, false},
		{[]uint32{1}, nil, false},
		{[]uint32{1, 5, 9}, []uint32{2, 5}, true},
		{[]uint32{1, 3}, []uint32{2, 4}, false},
	}
	for _, c := range cases {
		if got := IntersectSorted(c.x, c.y); got != c.want {
			t.Errorf("IntersectSorted(%v,%v) = %v", c.x, c.y, got)
		}
	}
}

// Property: canonical IDs are bijective with the set contents, and the
// bitset Intersects agrees with the sorted-slice primitive on every pair.
// Elements span well past 64 distinct locks, so the property also covers
// the spill words.
func TestQuickCanonicalAgreesWithPrimitive(t *testing.T) {
	tb := NewTable()
	f := func(xs, ys []uint8) bool {
		xv := make([]uint32, len(xs))
		for i, x := range xs {
			xv[i] = uint32(x % 200)
		}
		yv := make([]uint32, len(ys))
		for i, y := range ys {
			yv[i] = uint32(y % 200)
		}
		a, b := tb.Canon(xv), tb.Canon(yv)
		want := IntersectSorted(tb.Set(a), tb.Set(b))
		if tb.Intersects(a, b) != want {
			return false
		}
		// Same contents → same ID.
		if tb.Canon(append([]uint32{}, xv...)) != a {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
