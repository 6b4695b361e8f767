// Package geom provides d-dimensional points, Euclidean distances, and
// axis-aligned boxes used throughout the RP-DBSCAN implementation.
//
// Points are stored in a single flat coordinate slice to keep memory
// contiguous and allocation counts low; a Points value of n points in d
// dimensions holds n*d float64 values.
package geom

import (
	"fmt"
	"math"
)

// Points is a set of n points in d-dimensional Euclidean space backed by a
// flat coordinate slice of length n*d. The zero value is an empty point set
// of dimension 0.
type Points struct {
	// Dim is the dimensionality d of every point. Dim must be >= 1 for a
	// non-empty set.
	Dim int
	// Coords holds the coordinates point-major: point i occupies
	// Coords[i*Dim : (i+1)*Dim].
	Coords []float64
}

// NewPoints allocates an empty point set of the given dimension with room
// for capHint points.
func NewPoints(dim, capHint int) *Points {
	if dim < 1 {
		panic(fmt.Sprintf("geom: dimension must be >= 1, got %d", dim))
	}
	return &Points{Dim: dim, Coords: make([]float64, 0, capHint*dim)}
}

// FromSlice builds a Points value from a slice of coordinate slices. All
// rows must have the same length. An empty input yields a Points with the
// given dim.
func FromSlice(rows [][]float64, dim int) (*Points, error) {
	p := NewPoints(dim, len(rows))
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("geom: row %d has %d coordinates, want %d", i, len(r), dim)
		}
		p.Coords = append(p.Coords, r...)
	}
	return p, nil
}

// N returns the number of points.
func (p *Points) N() int {
	if p.Dim == 0 {
		return 0
	}
	return len(p.Coords) / p.Dim
}

// At returns a view (not a copy) of point i's coordinates.
func (p *Points) At(i int) []float64 {
	return p.Coords[i*p.Dim : (i+1)*p.Dim : (i+1)*p.Dim]
}

// Append adds a point and returns its index.
func (p *Points) Append(coords []float64) int {
	if len(coords) != p.Dim {
		panic(fmt.Sprintf("geom: appending %d-coordinate point to %d-dimensional set", len(coords), p.Dim))
	}
	p.Coords = append(p.Coords, coords...)
	return p.N() - 1
}

// Copy returns a deep copy of the point set.
func (p *Points) Copy() *Points {
	c := &Points{Dim: p.Dim, Coords: make([]float64, len(p.Coords))}
	copy(c.Coords, p.Coords)
	return c
}

// Subset returns a new Points containing the points at the given indices, in
// order.
func (p *Points) Subset(idx []int) *Points {
	s := NewPoints(p.Dim, len(idx))
	for _, i := range idx {
		s.Coords = append(s.Coords, p.At(i)...)
	}
	return s
}

// Dist2 returns the squared Euclidean distance between two coordinate
// slices, which must have equal length.
func Dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between two coordinate slices.
func Dist(a, b []float64) float64 {
	return math.Sqrt(Dist2(a, b))
}

// Box is an axis-aligned hyper-rectangle [Min[i], Max[i]] per dimension. It
// doubles as the minimum bounding rectangle (MBR) of Definition 5.9.
type Box struct {
	Min, Max []float64
}

// NewBox returns an "empty" box of the given dimension: Min at +inf and Max
// at -inf so that any Extend produces a valid bound.
func NewBox(dim int) Box {
	b := Box{Min: make([]float64, dim), Max: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		b.Min[i] = math.Inf(1)
		b.Max[i] = math.Inf(-1)
	}
	return b
}

// Dim returns the box dimension.
func (b Box) Dim() int { return len(b.Min) }

// Empty reports whether the box has never been extended.
func (b Box) Empty() bool {
	return b.Dim() == 0 || b.Min[0] > b.Max[0]
}

// Extend grows the box to contain the point.
func (b *Box) Extend(p []float64) {
	for i, v := range p {
		if v < b.Min[i] {
			b.Min[i] = v
		}
		if v > b.Max[i] {
			b.Max[i] = v
		}
	}
}

// ExtendBox grows the box to contain another box.
func (b *Box) ExtendBox(o Box) {
	if o.Empty() {
		return
	}
	b.Extend(o.Min)
	b.Extend(o.Max)
}

// Contains reports whether the point lies inside the closed box.
func (b Box) Contains(p []float64) bool {
	for i, v := range p {
		if v < b.Min[i] || v > b.Max[i] {
			return false
		}
	}
	return true
}

// MinDist2 returns the squared distance from point p to the nearest point of
// the box (zero when p is inside).
func (b Box) MinDist2(p []float64) float64 {
	var s float64
	for i, v := range p {
		if v < b.Min[i] {
			d := b.Min[i] - v
			s += d * d
		} else if v > b.Max[i] {
			d := v - b.Max[i]
			s += d * d
		}
	}
	return s
}

// MaxDist2 returns the squared distance from point p to the farthest point
// of the box.
func (b Box) MaxDist2(p []float64) float64 {
	var s float64
	for i, v := range p {
		d1 := v - b.Min[i]
		d2 := b.Max[i] - v
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d2 > d1 {
			d1 = d2
		}
		s += d1 * d1
	}
	return s
}

// Outside reports whether the box is entirely farther than eps from p in at
// least one coordinate, the skip test of Lemma 5.10:
// exists i such that Max[i] < p[i]-eps or Min[i] > p[i]+eps.
func (b Box) Outside(p []float64, eps float64) bool {
	for i, v := range p {
		if b.Max[i] < v-eps || b.Min[i] > v+eps {
			return true
		}
	}
	return false
}

// BoxMinDist2 returns the squared distance between the nearest pair of
// points of the two boxes (zero when they intersect).
func (b Box) BoxMinDist2(o Box) float64 {
	var s float64
	for i := range b.Min {
		if d := o.Min[i] - b.Max[i]; d > 0 {
			s += d * d
		} else if d := b.Min[i] - o.Max[i]; d > 0 {
			s += d * d
		}
	}
	return s
}

// BoxMaxDist2 returns the squared distance between the farthest pair of
// points of the two boxes.
func (b Box) BoxMaxDist2(o Box) float64 {
	var s float64
	for i := range b.Min {
		d1 := b.Max[i] - o.Min[i]
		d2 := o.Max[i] - b.Min[i]
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d2 > d1 {
			d1 = d2
		}
		s += d1 * d1
	}
	return s
}
