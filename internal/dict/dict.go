// Package dict implements the two-level cell dictionary of Definition 4.2:
// a compact summary of the entire data set in which the first level is the
// set of non-empty cells and the second level records, per cell, the number
// of points in each non-empty sub-cell. Points are approximated by the
// centre of their sub-cell.
//
// The dictionary is organised as a set of disjoint sub-dictionaries
// (Definition 4.4) produced by binary-space-partitioning defragmentation
// (Section 4.2.2); each sub-dictionary carries its minimum bounding
// rectangle so that irrelevant sub-dictionaries are skipped during
// (eps,rho)-region queries (Lemma 5.10).
package dict

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
	"rpdbscan/internal/kdtree"
)

// SubCell is one second-level entry: the packed position of a sub-cell
// inside its cell and the number of points it contains.
type SubCell struct {
	Idx   grid.SubIdx
	Count int32
}

// CellEntry is one first-level entry: a cell, its total point count, and
// its non-empty sub-cells. ID is the cell's dense global id, assigned by
// Build in ascending key order; cell graphs identify cells by this id.
type CellEntry struct {
	Key   grid.Key
	ID    int32
	Count int32
	Subs  []SubCell
}

// SubDict is a disjoint part of the dictionary: a subset of cells plus the
// index structures needed to query them.
type SubDict struct {
	Entries []CellEntry
	// MBR bounds all sub-cell centres in this sub-dictionary
	// (Definition 5.9). It is built from whole cell boxes; the per-point
	// oracle Query reads it for the Lemma 5.10 skip.
	MBR geom.Box

	// hullTree indexes the entries' sub-centre hulls (payload = cell id)
	// for QueryCell; nil when the dictionary has a stencil. Its root bound
	// is the union of the hulls, a box inside MBR, so its root prune is
	// the Lemma 5.10 skip with that tighter bound, tested against the
	// query cell's point box.
	hullTree *kdtree.BoxTree

	// The kd-tree over cell centres (payload = entry index) is built on
	// first use: only the per-point oracle Query needs it.
	treeOnce sync.Once
	tree     *kdtree.Tree
}

// index returns the sub-dictionary's cell-centre kd-tree, building it on
// first use. Safe for concurrent use.
func (sd *SubDict) index(side float64, dim int) *kdtree.Tree {
	sd.treeOnce.Do(func() {
		centers := geom.NewPoints(dim, len(sd.Entries))
		center := make([]float64, dim)
		for i := range sd.Entries {
			sd.Entries[i].Key.Center(side, center)
			centers.Append(center)
		}
		sd.tree = kdtree.Build(centers, nil)
	})
	return sd.tree
}

// Dictionary is the complete two-level cell dictionary.
type Dictionary struct {
	Eps     float64
	Rho     float64
	Dim     int
	Side    float64 // cell side length eps/sqrt(dim)
	SubSide float64 // sub-cell side length Side/2^Shift
	Shift   uint    // h-1 = ceil(log2(1/rho))

	Subs []*SubDict

	// Keys maps a cell id back to its key (ids are assigned in ascending
	// key order, so Keys is sorted and IDOf is a binary search).
	Keys []grid.Key
	byID []*CellEntry

	// NumCells and NumSubCells are totals across all sub-dictionaries.
	NumCells    int
	NumSubCells int

	// Per-cell query data in id order, decoded once at build time. Cell
	// id's m sub-cells occupy [subOff[id], subOff[id+1]) of subCounts;
	// subCentersT holds their centres dimension-major (coordinate k of
	// the m centres is the dense lane [subOff[id]*dim + k*m, +m)), the
	// layout the blocked residual kernels accumulate over. Sub-cells keep
	// the ascending SubIdx order of the entry, which sorts the centres by
	// their first coordinate.
	subOff      []int32
	subCentersT []float64
	subCounts   []int32
	// hulls is every cell's sub-centre hull in id order: 2*Dim values per
	// cell, the per-dimension minimum then maximum of its sub-cell centres,
	// so every value is exactly a centre coordinate.
	hulls []float64
	// sten enumerates neighbor cells of low-dimensional dictionaries; nil
	// selects the sub-dictionaries' hull trees.
	sten *stencil

	// qpool recycles Queriers (AcquireQuerier/ReleaseQuerier) so short
	// tasks that each need a querier don't regrow its scratch from zero.
	qpool sync.Pool
}

// IDOf returns the dense id of a cell key, if the cell is non-empty.
func (d *Dictionary) IDOf(k grid.Key) (int32, bool) {
	i := sort.Search(len(d.Keys), func(i int) bool { return d.Keys[i] >= k })
	if i < len(d.Keys) && d.Keys[i] == k {
		return int32(i), true
	}
	return 0, false
}

// Params fixes the geometry shared by all partial dictionaries of a run.
type Params struct {
	Eps float64
	Rho float64
	Dim int
}

func (p Params) side() float64 { return grid.Side(p.Eps, p.Dim) }
func (p Params) shift() uint   { return grid.SubShift(p.Rho) }
func (p Params) subSide() float64 {
	return p.side() / float64(int64(1)<<p.shift())
}

// BuildEntry summarises one cell of the grid into a CellEntry given the
// originating point set (Algorithm 2, Cell_Dictionary_Building map side).
func BuildEntry(cell *grid.Cell, pts *geom.Points, p Params) CellEntry {
	side, shift, subSide := p.side(), p.shift(), p.subSide()
	origin := make([]float64, p.Dim)
	cell.Key.Origin(side, origin)
	counts := make(map[grid.SubIdx]int32, len(cell.Points))
	for _, pi := range cell.Points {
		counts[grid.SubIdxFor(pts.At(pi), origin, subSide, shift)]++
	}
	e := CellEntry{Key: cell.Key, Count: int32(len(cell.Points)), Subs: make([]SubCell, 0, len(counts))}
	for idx, c := range counts {
		e.Subs = append(e.Subs, SubCell{Idx: idx, Count: c})
	}
	// Deterministic order independent of map iteration.
	slices.SortFunc(e.Subs, cmpSub)
	return e
}

// cmpSub orders sub-cells by ascending packed index. The first dimension
// occupies the index's highest bits, so this order also sorts the
// sub-cell centres by their first coordinate.
func cmpSub(a, b SubCell) int {
	if c := cmp.Compare(a.Idx.Hi, b.Idx.Hi); c != 0 {
		return c
	}
	return cmp.Compare(a.Idx.Lo, b.Idx.Lo)
}

// Build assembles a dictionary from cell entries (typically the union of all
// partitions' entries) and defragments it so no sub-dictionary exceeds
// maxCellsPerSub cells. maxCellsPerSub <= 0 keeps a single sub-dictionary.
func Build(entries []CellEntry, p Params, maxCellsPerSub int) *Dictionary {
	d := &Dictionary{
		Eps:     p.Eps,
		Rho:     p.Rho,
		Dim:     p.Dim,
		Side:    p.side(),
		SubSide: p.subSide(),
		Shift:   p.shift(),
	}
	// Assign dense ids in ascending key order. The assignment is a pure
	// function of the cell-key set, so every decoded replica of the
	// dictionary agrees on ids without shipping them.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	d.Keys = make([]grid.Key, len(entries))
	for i := range entries {
		entries[i].ID = int32(i)
		d.Keys[i] = entries[i].Key
		d.NumCells++
		d.NumSubCells += len(entries[i].Subs)
		// BuildEntry and StreamBuilder emit sorted sub-cells; decoded
		// entries are normalised here, because the neighbor scan's early
		// stop relies on the order.
		if !slices.IsSortedFunc(entries[i].Subs, cmpSub) {
			slices.SortFunc(entries[i].Subs, cmpSub)
		}
	}
	d.buildLanes(entries)
	d.sten = newStencil(d)
	groups := defragment(entries, p, maxCellsPerSub)
	d.Subs = make([]*SubDict, 0, len(groups))
	d.byID = make([]*CellEntry, len(entries))
	for _, g := range groups {
		sd := newSubDict(g, d)
		if d.sten == nil {
			sd.hullTree = d.buildHullTree(g)
		}
		d.Subs = append(d.Subs, sd)
		for i := range sd.Entries {
			d.byID[sd.Entries[i].ID] = &sd.Entries[i]
		}
	}
	return d
}

// buildLanes decodes, in id order, every cell's sub-cell centres into the
// transposed lanes, flattens the sub-cell counts, and records each cell's
// sub-centre hull from its lanes. entries must be sorted by id.
func (d *Dictionary) buildLanes(entries []CellEntry) {
	dim := d.Dim
	d.subOff = make([]int32, len(entries)+1)
	d.subCentersT = make([]float64, d.NumSubCells*dim)
	d.subCounts = make([]int32, 0, d.NumSubCells)
	d.hulls = make([]float64, 2*dim*len(entries))
	origin := make([]float64, dim)
	center := make([]float64, dim)
	var off int32
	for id := range entries {
		e := &entries[id]
		d.subOff[id] = off
		m := len(e.Subs)
		base := int(off) * dim
		e.Key.Origin(d.Side, origin)
		for j, sc := range e.Subs {
			grid.SubCenter(sc.Idx, origin, d.SubSide, d.Shift, center)
			for k, x := range center {
				d.subCentersT[base+k*m+j] = x
			}
			d.subCounts = append(d.subCounts, sc.Count)
		}
		h := d.hull(int32(id))
		for k := 0; k < dim; k++ {
			lane := d.subCentersT[base+k*m : base+(k+1)*m]
			h[k], h[dim+k] = slices.Min(lane), slices.Max(lane)
		}
		off += int32(m)
	}
	d.subOff[len(entries)] = off
}

// hull returns cell id's sub-centre hull: its per-dimension minimum then
// maximum sub-cell centre coordinate.
func (d *Dictionary) hull(id int32) []float64 {
	return d.hulls[2*d.Dim*int(id) : 2*d.Dim*(int(id)+1)]
}

// buildHullTree indexes the hulls of entries by cell id.
func (d *Dictionary) buildHullTree(entries []CellEntry) *kdtree.BoxTree {
	boxes := make([]float64, 0, 2*d.Dim*len(entries))
	ids := make([]int, len(entries))
	for i := range entries {
		ids[i] = int(entries[i].ID)
		boxes = append(boxes, d.hull(entries[i].ID)...)
	}
	return kdtree.BuildBoxes(boxes, d.Dim, ids)
}

// lanes returns cell id's transposed sub-cell centres and its sub-cell
// counts.
func (d *Dictionary) lanes(id int32) (centersT []float64, counts []int32) {
	lo, hi := d.subOff[id], d.subOff[id+1]
	return d.subCentersT[int(lo)*d.Dim : int(hi)*d.Dim], d.subCounts[lo:hi]
}

// defragment recursively applies binary space partitioning to the cells:
// each step sorts by the widest axis of the current cell bounding box and
// cuts at the median, which minimises the size difference between the two
// components (Section 4.2.2, Figure 6).
func defragment(entries []CellEntry, p Params, maxCells int) [][]CellEntry {
	if maxCells <= 0 || len(entries) <= maxCells {
		if len(entries) == 0 {
			return nil
		}
		return [][]CellEntry{entries}
	}
	dim := p.Dim
	lo := make([]int32, dim)
	hi := make([]int32, dim)
	for i := 0; i < dim; i++ {
		lo[i] = entries[0].Key.Coord(i)
		hi[i] = lo[i]
	}
	for _, e := range entries[1:] {
		for i := 0; i < dim; i++ {
			c := e.Key.Coord(i)
			if c < lo[i] {
				lo[i] = c
			}
			if c > hi[i] {
				hi[i] = c
			}
		}
	}
	axis, widest := 0, hi[0]-lo[0]
	for i := 1; i < dim; i++ {
		if w := hi[i] - lo[i]; w > widest {
			widest, axis = w, i
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		ci, cj := entries[i].Key.Coord(axis), entries[j].Key.Coord(axis)
		if ci != cj {
			return ci < cj
		}
		return entries[i].Key < entries[j].Key
	})
	mid := len(entries) / 2
	out := defragment(entries[:mid], p, maxCells)
	return append(out, defragment(entries[mid:], p, maxCells)...)
}

func newSubDict(entries []CellEntry, d *Dictionary) *SubDict {
	sd := &SubDict{Entries: entries, MBR: geom.NewBox(d.Dim)}
	corner := make([]float64, d.Dim)
	for _, e := range entries {
		// Bound the MBR by the whole cell box rather than the exact
		// sub-cell centres: a (slightly) larger MBR only makes the
		// Lemma 5.10 skip test conservative, never wrong.
		e.Key.Origin(d.Side, corner)
		sd.MBR.Extend(corner)
		for i := range corner {
			corner[i] += d.Side
		}
		sd.MBR.Extend(corner)
	}
	return sd
}

// Lookup returns the entry for a cell key, or nil if the cell is empty.
func (d *Dictionary) Lookup(k grid.Key) *CellEntry {
	id, ok := d.IDOf(k)
	if !ok {
		return nil
	}
	return d.byID[id]
}

// Entry returns the entry for a cell id.
func (d *Dictionary) Entry(id int32) *CellEntry { return d.byID[id] }

// SizeBits returns the dictionary size in bits per Lemma 4.3:
// 32*(|cell|+|sub-cell|) for densities, plus 32*d*|cell| for exact cell
// positions and d*(h-1) bits per sub-cell for sub-cell ordering positions.
func (d *Dictionary) SizeBits() int64 {
	cells := int64(d.NumCells)
	subs := int64(d.NumSubCells)
	dd := int64(d.Dim)
	h1 := int64(d.Shift)
	return 32*(cells+subs) + 32*dd*cells + dd*h1*subs
}

// TotalPoints returns the sum of cell counts (the data set size N).
func (d *Dictionary) TotalPoints() int64 {
	var n int64
	for _, sd := range d.Subs {
		for i := range sd.Entries {
			n += int64(sd.Entries[i].Count)
		}
	}
	return n
}

// Querier performs (eps,rho)-region queries against a dictionary. It holds
// reusable scratch buffers and must not be shared between goroutines.
type Querier struct {
	d        *Dictionary
	halfDiag float64 // half the cell diagonal = eps/2
	origin   []float64
	center   []float64
	cand     []int

	// batch backs QueryCell.
	batch CellBatch
	kc    []int64 // query cell coordinates of the stencil path
}

// AcquireQuerier returns a querier for d from its pool, with its scratch
// buffers retained — many short-lived tasks each needing a querier (Phase
// II runs one per partition) would otherwise regrow the batch scratch from
// zero every time. Return it with ReleaseQuerier; like NewQuerier's result
// it must not be shared between goroutines.
func (d *Dictionary) AcquireQuerier() *Querier {
	if q, ok := d.qpool.Get().(*Querier); ok {
		return q
	}
	return NewQuerier(d)
}

// ReleaseQuerier returns an acquired querier to d's pool. The querier must
// not be used afterwards.
func (d *Dictionary) ReleaseQuerier(q *Querier) { d.qpool.Put(q) }

// NewQuerier returns a querier for d.
func NewQuerier(d *Dictionary) *Querier {
	return &Querier{
		d:        d,
		halfDiag: d.Eps / 2,
		origin:   make([]float64, d.Dim),
		center:   make([]float64, d.Dim),
		kc:       make([]int64, d.Dim),
	}
}

// Query performs an (eps,rho)-region query for point p (Definition 5.1):
// it finds every sub-cell whose centre is within eps of p. It returns the
// total number of points in those sub-cells and appends to cells the id of
// every cell contributing at least one such sub-cell (the neighbor cells NC
// of Algorithm 3 line 13). cells may be nil when only the count matters.
func (q *Querier) Query(p []float64, wantCells bool, cells []int32) (count int64, outCells []int32) {
	d := q.d
	eps := d.Eps
	eps2 := eps * eps
	// A cell can contain a qualifying sub-cell centre only if its own
	// centre is within eps + halfDiag of p (any cell point is within
	// halfDiag of the cell centre).
	candR := eps + q.halfDiag
	for _, sd := range d.Subs {
		if sd.MBR.Empty() {
			continue
		}
		if sd.MBR.Outside(p, eps) {
			continue // Lemma 5.10: no (eps,rho)-neighbor in this sub-dictionary
		}
		q.cand = sd.index(d.Side, d.Dim).InBall(p, candR, q.cand[:0])
		for _, ei := range q.cand {
			e := &sd.Entries[ei]
			e.Key.Origin(d.Side, q.origin)
			// Fully contained cell: the farthest cell corner is within
			// eps of p, so every sub-cell centre qualifies without a
			// per-sub-cell distance check (Example 5.5, cell level).
			var far2 float64
			for i := 0; i < d.Dim; i++ {
				d1 := p[i] - q.origin[i]
				d2 := q.origin[i] + d.Side - p[i]
				if d1 < 0 {
					d1 = -d1
				}
				if d2 < 0 {
					d2 = -d2
				}
				if d2 > d1 {
					d1 = d2
				}
				far2 += d1 * d1
			}
			matched := false
			if far2 <= eps2 {
				count += int64(e.Count)
				matched = true
			} else {
				for _, sc := range e.Subs {
					grid.SubCenter(sc.Idx, q.origin, d.SubSide, d.Shift, q.center)
					if geom.Dist2(p, q.center) <= eps2 {
						count += int64(sc.Count)
						matched = true
					}
				}
			}
			if matched && wantCells {
				cells = append(cells, e.ID)
			}
		}
	}
	return count, cells
}

// Count returns only the approximate neighborhood size of p (the core-test
// quantity of Algorithm 3 lines 7-9).
func (q *Querier) Count(p []float64) int64 {
	n, _ := q.Query(p, false, nil)
	return n
}
