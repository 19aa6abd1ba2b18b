package lattice

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTsAndAccessors(t *testing.T) {
	ts := Ts(3, 1, 4)
	if ts.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", ts.Depth())
	}
	if ts.Epoch() != 3 || ts.Coord(1) != 1 || ts.Coord(2) != 4 {
		t.Fatalf("coords wrong: %v", ts)
	}
	if got := ts.String(); got != "(3,1,4)" {
		t.Fatalf("String = %q", got)
	}
	zero := Ts()
	if zero != (Time{}) {
		t.Fatalf("Ts() should be zero value")
	}
	// FromCoords ignores whatever c holds past depth, so its Times equal
	// Ts's coordinate for coordinate (Time is compared and hashed whole).
	if got := FromCoords(3, [MaxDepth]uint64{3, 1, 4, 9}); got != ts {
		t.Fatalf("FromCoords(3, {3,1,4,9}) = %v, want %v", got, ts)
	}
	if got := FromCoords(1, [MaxDepth]uint64{7, 7, 7, 7}); got != Ts(7) {
		t.Fatalf("FromCoords(1, {7,7,7,7}) = %v, want (7)", got)
	}
}

func TestPartialOrder(t *testing.T) {
	a := Ts(1, 2)
	b := Ts(2, 1)
	if a.LessEqual(b) || b.LessEqual(a) {
		t.Fatalf("(1,2) and (2,1) must be incomparable")
	}
	c := Ts(2, 2)
	if !a.LessEqual(c) || !b.LessEqual(c) {
		t.Fatalf("(2,2) must dominate both")
	}
	if !a.Less(c) || a.Less(a) {
		t.Fatalf("Less wrong")
	}
	if !a.LessEqual(a) {
		t.Fatalf("LessEqual must be reflexive")
	}
}

func TestJoinMeet(t *testing.T) {
	a, b := Ts(1, 5), Ts(3, 2)
	if a.Join(b) != Ts(3, 5) {
		t.Fatalf("join = %v", a.Join(b))
	}
	if a.Meet(b) != Ts(1, 2) {
		t.Fatalf("meet = %v", a.Meet(b))
	}
}

func TestEnterLeaveStep(t *testing.T) {
	a := Ts(7)
	in := a.Enter()
	if in != Ts(7, 0) {
		t.Fatalf("enter = %v", in)
	}
	if in.Step() != Ts(7, 1) {
		t.Fatalf("step = %v", in.Step())
	}
	if in.Step().Leave() != Ts(7) {
		t.Fatalf("leave = %v", in.Step().Leave())
	}
}

func TestDepthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on depth mismatch")
		}
	}()
	Ts(1).LessEqual(Ts(1, 2))
}

func TestLeaveDepth1Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on Leave of depth-1")
		}
	}()
	Ts(1).Leave()
}

func randTime(r *rand.Rand, depth int, bound uint64) Time {
	coords := make([]uint64, depth)
	for i := range coords {
		coords[i] = uint64(r.Intn(int(bound)))
	}
	return Ts(coords...)
}

// Lattice laws, checked by random sampling at depth 2 and 3.
func TestLatticeLaws(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		depth := 2 + r.Intn(2)
		a, b, c := randTime(r, depth, 6), randTime(r, depth, 6), randTime(r, depth, 6)
		// commutativity
		if a.Join(b) != b.Join(a) || a.Meet(b) != b.Meet(a) {
			t.Fatalf("commutativity failed for %v %v", a, b)
		}
		// associativity
		if a.Join(b.Join(c)) != a.Join(b).Join(c) {
			t.Fatalf("join associativity failed")
		}
		if a.Meet(b.Meet(c)) != a.Meet(b).Meet(c) {
			t.Fatalf("meet associativity failed")
		}
		// absorption
		if a.Join(a.Meet(b)) != a || a.Meet(a.Join(b)) != a {
			t.Fatalf("absorption failed for %v %v", a, b)
		}
		// join is an upper bound, meet a lower bound
		if !a.LessEqual(a.Join(b)) || !a.Meet(b).LessEqual(a) {
			t.Fatalf("bound property failed")
		}
		// least upper bound: any common upper bound dominates the join
		ub := a.Join(b).Join(c)
		if !a.Join(b).LessEqual(ub) {
			t.Fatalf("lub property failed")
		}
		// TotalLess linearly extends the partial order
		if a.Less(b) && !a.TotalLess(b) {
			t.Fatalf("TotalLess must extend partial order: %v %v", a, b)
		}
	}
}

func TestTotalLessIsStrictWeakOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b := randTime(r, 2, 4), randTime(r, 2, 4)
		if a == b && (a.TotalLess(b) || b.TotalLess(a)) {
			t.Fatalf("irreflexivity failed")
		}
		if a != b && a.TotalLess(b) == b.TotalLess(a) {
			t.Fatalf("totality failed for %v %v", a, b)
		}
	}
}

// quick.Check property: Join/Meet are monotone.
func TestMonotonicityQuick(t *testing.T) {
	f := func(a0, a1, b0, b1, c0, c1 uint8) bool {
		a, b, c := Ts(uint64(a0), uint64(a1)), Ts(uint64(b0), uint64(b1)), Ts(uint64(c0), uint64(c1))
		if a.LessEqual(b) {
			return a.Join(c).LessEqual(b.Join(c)) && a.Meet(c).LessEqual(b.Meet(c))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Time{}); got != 16 {
		t.Fatalf("Sizeof(Time) = %d, want 16", got)
	}
}

// randEdgeCoords draws depth coordinates, each either small or within 2 of
// its field's maximum, so field boundaries are exercised.
func randEdgeCoords(r *rand.Rand, depth int) []uint64 {
	c := make([]uint64, depth)
	for i := range c {
		top := uint64(1<<64 - 1)
		if i > 0 {
			top = MaxLoopCoord(depth)
		}
		if r.Intn(2) == 0 {
			c[i] = uint64(r.Intn(3))
		} else {
			c[i] = top - uint64(r.Intn(3))
		}
	}
	return c
}

// TestPackedMatchesCoords referees the packed representation against the
// product order, coordinate-wise max/min and lexicographic order computed
// on the coordinates themselves, at every depth and at field boundaries.
func TestPackedMatchesCoords(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		depth := 1 + r.Intn(MaxDepth)
		ac, bc := randEdgeCoords(r, depth), randEdgeCoords(r, depth)
		a, b := Ts(ac...), Ts(bc...)
		le := true
		join, meet := make([]uint64, depth), make([]uint64, depth)
		for j := range ac {
			le = le && ac[j] <= bc[j]
			join[j], meet[j] = max(ac[j], bc[j]), min(ac[j], bc[j])
			if a.Coord(j) != ac[j] {
				t.Fatalf("%v: Coord(%d) = %d, want %d", ac, j, a.Coord(j), ac[j])
			}
		}
		if a.Depth() != depth || a.Epoch() != ac[0] {
			t.Fatalf("%v: depth %d epoch %d", ac, a.Depth(), a.Epoch())
		}
		if a.LessEqual(b) != le {
			t.Fatalf("%v ≤ %v = %v, want %v", ac, bc, a.LessEqual(b), le)
		}
		if a.Join(b) != Ts(join...) || a.Meet(b) != Ts(meet...) {
			t.Fatalf("%v, %v: join %v meet %v, want %v %v", ac, bc, a.Join(b), a.Meet(b), join, meet)
		}
		if a.TotalLess(b) != (slices.Compare(ac, bc) < 0) {
			t.Fatalf("%v < %v lexicographically = %v", ac, bc, a.TotalLess(b))
		}
		if depth > 1 {
			left := Ts(ac[:depth-1]...)
			if a.Leave() != left {
				t.Fatalf("%v: Leave = %v, want %v", ac, a.Leave(), left)
			}
			if ac[depth-1] < MaxLoopCoord(depth) && a.Step().Coord(depth-1) != ac[depth-1]+1 {
				t.Fatalf("%v: Step = %v", ac, a.Step())
			}
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", what)
		}
	}()
	f()
}

// A loop counter too wide for its depth's field panics wherever it would
// be made: construction, Enter into narrower fields, Step past the maximum.
func TestWideLoopCoordPanics(t *testing.T) {
	for depth := 2; depth <= MaxDepth; depth++ {
		c := make([]uint64, depth)
		c[depth-1] = MaxLoopCoord(depth) + 1
		mustPanic(t, fmt.Sprintf("Ts%v", c), func() { Ts(c...) })
		c[depth-1]--
		mustPanic(t, fmt.Sprintf("%v.Step", c), func() { Ts(c...).Step() })
		if depth < MaxDepth {
			mustPanic(t, fmt.Sprintf("%v.Enter", c), func() { Ts(c...).Enter() })
		}
	}
	mustPanic(t, "Enter past MaxDepth", func() { Ts(1, 2, 3, 4).Enter() })
	// At its maximum a counter still enters a scope whose fields hold it.
	if got := Ts(1, MaxLoopCoord(3)).Enter(); got != Ts(1, MaxLoopCoord(3), 0) {
		t.Fatalf("Enter = %v", got)
	}
}
