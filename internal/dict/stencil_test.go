package dict

import (
	"math"
	"math/rand"
	"testing"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
)

// cellExtremes returns the smallest and the largest float64 coordinate
// that grid.KeyFor assigns to cell coordinate c.
func cellExtremes(c int64, side float64) (lo, hi float64) {
	in := func(x float64) bool { return math.Floor(x/side) == float64(c) }
	lo, hi = float64(c)*side, float64(c+1)*side
	for !in(lo) {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	for in(math.Nextafter(lo, math.Inf(-1))) {
		lo = math.Nextafter(lo, math.Inf(-1))
	}
	for !in(hi) {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	for in(math.Nextafter(hi, math.Inf(1))) {
		hi = math.Nextafter(hi, math.Inf(1))
	}
	return lo, hi
}

// subCenterAt decodes the centre of the sub-cell with per-dimension
// indices idx inside the cell whose minimum corner is origin, through
// grid.SubCenter's own arithmetic.
func subCenterAt(d *Dictionary, origin []float64, idx []uint64) []float64 {
	var packed grid.SubIdx
	for _, v := range idx {
		packed.Lo = packed.Lo<<d.Shift | v
	}
	out := make([]float64, d.Dim)
	grid.SubCenter(packed, origin, d.SubSide, d.Shift, out)
	return out
}

// TestStencilClasses proves the stencil's reach marks for d = 1..4, at
// the origin and translated by 1e6*eps, for rho from 1 to fine. They are
// exact: an offset is out of reach iff the exact box gap exceeds eps, and
// every offset beyond the stencil has a gap of at least eps. Both are
// sound under floating point: the closest sub-centre of an out-of-reach or
// excluded cell is beyond eps of every point KeyFor assigns to the query
// cell.
func TestStencilClasses(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for dim := 1; dim <= maxStencilDim; dim++ {
		for _, rho := range []float64{1, 0.25, 0.01} {
			for _, shiftBy := range []float64{0, 1e6} {
				eps := 1.3
				pts := randomPoints(r, 50, dim, 3)
				translate(pts, shiftBy*eps)
				d := buildDict(pts, eps, rho, 0)
				if d.sten == nil {
					t.Fatalf("dim=%d rho=%g shift=%g: no stencil", dim, rho, shiftBy)
				}
				checkStencilClasses(t, d, grid.KeyFor(pts.At(0), d.Side))
			}
		}
	}
}

// checkStencilClasses checks every stencil offset around query cell q.
func checkStencilClasses(t *testing.T, d *Dictionary, q grid.Key) {
	t.Helper()
	s, dim := d.sten, d.Dim
	eps2 := d.Eps * d.Eps
	maxIdx := uint64(1)<<d.Shift - 1
	// The query cell's extreme coordinates of its KeyFor range.
	qlo, qhi := make([]float64, dim), make([]float64, dim)
	for i := 0; i < dim; i++ {
		qlo[i], qhi[i] = cellExtremes(int64(q.Coord(i)), d.Side)
	}
	delta := make([]int64, dim)
	origin := make([]float64, dim)
	// Every offset of the stencil plus the ring just beyond it.
	n := int(2*s.r + 3)
	total := 1
	for i := 0; i < dim; i++ {
		total *= n
	}
	for v := 0; v < total; v++ {
		inStencil := true
		var gap int64
		for i, rem := 0, v; i < dim; i++ {
			delta[i] = int64(rem%n) - s.r - 1
			rem /= n
			inStencil = inStencil && abs64(delta[i]) <= s.r
			if g := abs64(delta[i]) - 1; g > 0 {
				gap += g * g
			}
			origin[i] = float64(int64(q.Coord(i))+delta[i]) * d.Side
		}
		reach := false
		if inStencil {
			row := 0
			for i := 0; i < dim-1; i++ {
				row = row*s.w + int(delta[i]+s.r)
			}
			reach = s.reach[row*s.w+int(delta[dim-1]+s.r)]
			if reach != (gap <= int64(dim)) {
				t.Fatalf("dim=%d offset %v: reach %v, box gap^2 %d side^2 vs eps^2 %d side^2",
					dim, delta, reach, gap, dim)
			}
		} else if gap < int64(dim) {
			t.Fatalf("dim=%d offset %v beyond the stencil has a box gap below eps", dim, delta)
		}
		// The closest pair: per dimension the query point nearest the
		// candidate (in a shared column, one sitting on a sub-centre) and
		// the sub-centre nearest it.
		lowest := subCenterAt(d, origin, make([]uint64, dim))
		p, near := make([]float64, dim), make([]uint64, dim)
		for i := range p {
			switch {
			case delta[i] > 0:
				p[i] = qhi[i]
			case delta[i] < 0:
				p[i] = qlo[i]
			default:
				p[i] = lowest[i]
			}
			near[i] = uint64(min(max(math.Floor((p[i]-origin[i])/d.SubSide), 0), float64(maxIdx)))
		}
		if x := subCenterAt(d, origin, near); !reach && geom.Dist2(p, x) <= eps2 {
			t.Fatalf("dim=%d offset %v marked out of reach, but %v is within eps of %v", dim, delta, x, p)
		}
	}
}
