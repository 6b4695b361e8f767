package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rpdbscan/internal/testutil"
)

func TestPointsBasics(t *testing.T) {
	p := NewPoints(2, 4)
	if p.N() != 0 {
		t.Fatalf("N of empty = %d, want 0", p.N())
	}
	i := p.Append([]float64{1, 2})
	j := p.Append([]float64{3, 4})
	if i != 0 || j != 1 {
		t.Fatalf("indices = %d,%d, want 0,1", i, j)
	}
	if got := p.At(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("At(1) = %v, want [3 4]", got)
	}
	if p.N() != 2 {
		t.Fatalf("N = %d, want 2", p.N())
	}
}

func TestFromSlice(t *testing.T) {
	p, err := FromSlice([][]float64{{1, 2}, {3, 4}, {5, 6}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 || p.At(2)[1] != 6 {
		t.Fatalf("unexpected points: %+v", p)
	}
	if _, err := FromSlice([][]float64{{1}}, 2); err == nil {
		t.Fatal("FromSlice accepted a short row")
	}
}

func TestSubsetAndCopy(t *testing.T) {
	p, _ := FromSlice([][]float64{{0, 0}, {1, 1}, {2, 2}}, 2)
	s := p.Subset([]int{2, 0})
	if s.N() != 2 || s.At(0)[0] != 2 || s.At(1)[0] != 0 {
		t.Fatalf("Subset gave %+v", s)
	}
	c := p.Copy()
	c.Coords[0] = 99
	if p.Coords[0] == 99 {
		t.Fatal("Copy shares backing storage")
	}
}

func TestDist(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 2}
	if got := Dist(a, b); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Dist = %v, want 3", got)
	}
	if got := Dist2(a, b); got != 9 {
		t.Fatalf("Dist2 = %v, want 9", got)
	}
}

func TestBoxContainsAndDist(t *testing.T) {
	b := NewBox(2)
	if !b.Empty() {
		t.Fatal("new box should be empty")
	}
	b.Extend([]float64{0, 0})
	b.Extend([]float64{2, 2})
	if b.Empty() {
		t.Fatal("extended box should not be empty")
	}
	if !b.Contains([]float64{1, 1}) || b.Contains([]float64{3, 1}) {
		t.Fatal("Contains wrong")
	}
	if got := b.MinDist2([]float64{1, 1}); got != 0 {
		t.Fatalf("MinDist2 inside = %v, want 0", got)
	}
	if got := b.MinDist2([]float64{5, 2}); got != 9 {
		t.Fatalf("MinDist2 = %v, want 9", got)
	}
	if got := b.MaxDist2([]float64{0, 0}); got != 8 {
		t.Fatalf("MaxDist2 = %v, want 8", got)
	}
}

func TestBoxOutside(t *testing.T) {
	b := NewBox(2)
	b.Extend([]float64{0, 0})
	b.Extend([]float64{1, 1})
	if b.Outside([]float64{1.5, 0.5}, 1.0) {
		t.Fatal("box within eps reported outside")
	}
	if !b.Outside([]float64{3, 0.5}, 1.0) {
		t.Fatal("box beyond eps not reported outside")
	}
}

func TestExtendBox(t *testing.T) {
	a := NewBox(2)
	a.Extend([]float64{0, 0})
	b := NewBox(2)
	b.Extend([]float64{5, -3})
	a.ExtendBox(b)
	if a.Min[1] != -3 || a.Max[0] != 5 {
		t.Fatalf("ExtendBox gave %+v", a)
	}
	empty := NewBox(2)
	a.ExtendBox(empty) // must be a no-op
	if a.Min[1] != -3 || a.Max[0] != 5 {
		t.Fatalf("ExtendBox with empty changed box: %+v", a)
	}
}

// Property: MinDist2 <= Dist2(p, q) <= MaxDist2 for any q inside the box.
func TestBoxDistSandwichProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(4)
		b := NewBox(dim)
		for i := 0; i < 3; i++ {
			pt := make([]float64, dim)
			for j := range pt {
				pt[j] = r.Float64()*20 - 10
			}
			b.Extend(pt)
		}
		p := make([]float64, dim)
		q := make([]float64, dim)
		for j := range p {
			p[j] = r.Float64()*40 - 20
			q[j] = b.Min[j] + r.Float64()*(b.Max[j]-b.Min[j])
		}
		d := Dist2(p, q)
		return b.MinDist2(p) <= d+1e-9 && d <= b.MaxDist2(p)+1e-9
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 7, 200)); err != nil {
		t.Fatal(err)
	}
}

// Property: Outside(p, eps) implies MinDist2(p) > eps^2.
func TestOutsideImpliesFarProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(4)
		b := NewBox(dim)
		for i := 0; i < 2; i++ {
			pt := make([]float64, dim)
			for j := range pt {
				pt[j] = r.Float64()*10 - 5
			}
			b.Extend(pt)
		}
		p := make([]float64, dim)
		for j := range p {
			p[j] = r.Float64()*30 - 15
		}
		eps := r.Float64() * 3
		if b.Outside(p, eps) {
			return b.MinDist2(p) > eps*eps-1e-9
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 213, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestBoxBoxDistances(t *testing.T) {
	a := Box{Min: []float64{0, 0}, Max: []float64{1, 1}}
	b := Box{Min: []float64{3, 0}, Max: []float64{4, 1}}
	if got := a.BoxMinDist2(b); got != 4 {
		t.Fatalf("BoxMinDist2 disjoint = %g, want 4", got)
	}
	if got := a.BoxMaxDist2(b); got != 16+1 {
		t.Fatalf("BoxMaxDist2 disjoint = %g, want 17", got)
	}
	c := Box{Min: []float64{0.5, 0.5}, Max: []float64{2, 2}}
	if got := a.BoxMinDist2(c); got != 0 {
		t.Fatalf("BoxMinDist2 overlapping = %g, want 0", got)
	}
	if got := a.BoxMaxDist2(c); got != 8 {
		t.Fatalf("BoxMaxDist2 overlapping = %g, want 8", got)
	}
}

// Property: box-to-box min/max distances sandwich the distance between any
// pair of contained points.
func TestBoxBoxDistSandwichProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + r.Intn(4)
		mk := func() (Box, []float64) {
			b := NewBox(dim)
			var inside []float64
			lo, hi := make([]float64, dim), make([]float64, dim)
			for i := 0; i < dim; i++ {
				x, y := r.Float64()*10-5, r.Float64()*10-5
				if x > y {
					x, y = y, x
				}
				lo[i], hi[i] = x, y
			}
			b.Extend(lo)
			b.Extend(hi)
			inside = make([]float64, dim)
			for i := 0; i < dim; i++ {
				inside[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
			}
			return b, inside
		}
		a, pa := mk()
		b, pb := mk()
		d2 := Dist2(pa, pb)
		if min := a.BoxMinDist2(b); d2 < min-1e-12 {
			t.Fatalf("point pair closer (%g) than BoxMinDist2 (%g)", d2, min)
		}
		if max := a.BoxMaxDist2(b); d2 > max+1e-12 {
			t.Fatalf("point pair farther (%g) than BoxMaxDist2 (%g)", d2, max)
		}
	}
}
