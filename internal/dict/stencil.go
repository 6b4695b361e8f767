package dict

// Neighbor-cell stencil for low-dimensional dictionaries (the grid method
// of Wang, Gu & Shun, SIGMOD'20). A cell's neighbors within eps lie at
// integer offsets of at most r = ceil(sqrt(d)) cells per dimension, so
// instead of a hull-tree walk per query cell QueryCell enumerates the
// (2r+1)^d offsets — at most 625, for d = 4. The offsets are marked once
// per dictionary, relative to the query cell: an offset is out of reach
// when the exact integer test sum_i ((|delta_i|-1)^+)^2 > d holds. The
// boxes' gap is (|delta_i|-1)^+ cells per dimension and side^2 = eps^2/d,
// so this is gap^2 > eps^2 with no rounding at all. QueryCell classifies
// the cells at every other offset by their hulls (batch.go).
//
// Ids are assigned in ascending key order and keys sort by coordinate, so
// the cells sharing their first d-1 coordinates (a row) form one
// contiguous id range, ordered by the last coordinate. One hash probe per
// stencil row finds the range, and a short scan of it yields the row's
// cells within r of the query cell's last coordinate.

import (
	"math/bits"

	"rpdbscan/internal/grid"
)

// maxStencilDim is the largest dimensionality served by the stencil:
// (2*ceil(sqrt(d))+1)^d grows to 625 offsets at d = 4 and 16807 at d = 5,
// where the hull tree's pruning wins.
const maxStencilDim = 4

// stencil is a dictionary's neighbor-cell index; see the file comment.
type stencil struct {
	r      int64   // per-dimension offset radius ceil(sqrt(d))
	w      int     // offsets per dimension, 2r+1
	lo, hi []int64 // per-dimension cell-coordinate range of the dictionary
	// shift places prefix coordinate i, relative to lo[i], in a row key.
	shift []uint
	// rows maps a packed row key to its row index; row ri spans cell ids
	// [rowStart[ri], rowStart[ri+1]).
	rows     map[uint64]int32
	rowStart []int32
	last     []int32 // last coordinate of every cell, by id
	// offs lists the d-1 prefix offsets of each stencil row; reach holds
	// the w reach marks of each stencil row, indexed by last offset + r.
	offs  []int64
	reach []bool
}

// newStencil builds d's stencil, or returns nil when d is not served by
// one: more than maxStencilDim dimensions, a coordinate range whose row
// keys do not pack into 64 bits, or coordinates so large that their
// floating-point error reaches the sub-cell inset the excluded ring of
// offsets relies on (at d = 1 and d = 4, offset r+1 has a box gap of
// exactly eps; only the inset of the sub-centres keeps it out of reach).
func newStencil(d *Dictionary) *stencil {
	dim := d.Dim
	if dim > maxStencilDim || d.NumCells == 0 {
		return nil
	}
	r := int64(grid.NeighborCellRadius(dim))
	s := &stencil{
		r:     r,
		w:     int(2*r + 1),
		lo:    make([]int64, dim),
		hi:    make([]int64, dim),
		shift: make([]uint, dim-1),
		last:  make([]int32, d.NumCells),
	}
	for i := 0; i < dim; i++ {
		s.lo[i] = int64(d.Keys[0].Coord(i))
		s.hi[i] = s.lo[i]
	}
	for id, k := range d.Keys {
		for i := 0; i < dim; i++ {
			c := int64(k.Coord(i))
			s.lo[i] = min(s.lo[i], c)
			s.hi[i] = max(s.hi[i], c)
		}
		s.last[id] = k.Coord(dim - 1)
	}
	var used uint
	for i := 0; i < dim-1; i++ {
		s.shift[i] = used
		used += uint(bits.Len64(uint64(s.hi[i] - s.lo[i])))
	}
	if used > 64 {
		return nil
	}
	// errAbs bounds, generously (four ulps), the floating-point error of
	// any coordinate difference at the dictionary's magnitude: decoded
	// origins and sub-centres, and points a few ulps outside their cell.
	var mag int64
	for i := 0; i < dim; i++ {
		mag = max(mag, abs64(s.lo[i]), abs64(s.hi[i]))
	}
	errAbs := float64(mag+r+1) * d.Side * 0x1p-50
	if !(d.SubSide/2 > 2*errAbs+d.Eps*0x1p-40) {
		return nil
	}
	s.mark(dim)

	s.rows = make(map[uint64]int32)
	var prev uint64
	for id, k := range d.Keys {
		rk, _ := s.rowKey(k, nil)
		if id == 0 || rk != prev {
			s.rows[rk] = int32(len(s.rowStart))
			s.rowStart = append(s.rowStart, int32(id))
		}
		prev = rk
	}
	s.rowStart = append(s.rowStart, int32(d.NumCells))
	return s
}

// rowKey packs the prefix of cell key k, displaced by off (nil = no
// offset), into a row key; ok is false when the displaced prefix leaves
// the dictionary's coordinate range, where no row can exist.
func (s *stencil) rowKey(k grid.Key, off []int64) (rk uint64, ok bool) {
	for i, sh := range s.shift {
		c := int64(k.Coord(i))
		if off != nil {
			c += off[i]
		}
		if c < s.lo[i] || c > s.hi[i] {
			return 0, false
		}
		rk |= uint64(c-s.lo[i]) << sh
	}
	return rk, true
}

// mark fills offs and reach for every offset of [-r, r]^dim.
func (s *stencil) mark(dim int) {
	nrows := 1
	for i := 0; i < dim-1; i++ {
		nrows *= s.w
	}
	s.offs = make([]int64, 0, nrows*(dim-1))
	s.reach = make([]bool, 0, nrows*s.w)
	delta := make([]int64, dim)
	for row := 0; row < nrows; row++ {
		// Row-major enumeration: prefix coordinate dim-2 varies fastest.
		for i, rem := dim-2, row; i >= 0; i-- {
			delta[i] = int64(rem%s.w) - s.r
			rem /= s.w
		}
		s.offs = append(s.offs, delta[:dim-1]...)
		for dl := -s.r; dl <= s.r; dl++ {
			delta[dim-1] = dl
			var gap int64
			for _, v := range delta {
				if g := abs64(v) - 1; g > 0 {
					gap += g * g
				}
			}
			s.reach = append(s.reach, gap <= int64(dim))
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
