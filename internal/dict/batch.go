package dict

// Cell-batched (eps,rho)-region queries. Phase II answers one region query
// per point, but every point of a cell shares the same candidate-cell set:
// any cell contributing a qualifying sub-cell to some point of the query
// cell must have its sub-centre hull within eps of the bounding box of the
// cell's points. QueryCell therefore gathers candidates ONCE per owned
// cell — a stencil enumeration for d <= 4 (stencil.go), a walk of each
// sub-dictionary's hull tree otherwise — and classifies every candidate
// with one test, boxPair of its hull against that point box: beyond eps of
// the whole box (dropped), within eps of all of it (inside: the box
// extension of the Example 5.5 far-corner containment test, every sub-cell
// centre is within eps of every point of the cell), or neither (boundary).
// The per-point work shrinks to residual checks against boundary
// candidates plus a precomputed inside total.
//
// Every test is a floating-point monotone bound of the Dist2 values it
// stands for (see boxPair and hullDist2), so batched and per-point results
// are identical (the equivalence tests in this package and internal/core
// pin this). Query remains the correctness oracle; core's DisableBatching
// flag selects it.

import (
	"cmp"
	"math"
	"slices"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
)

// batchCand is one boundary candidate of a CellBatch: a cell neither
// provably inside nor provably outside the eps-region of every point of
// the query cell, so each point runs a residual check against it.
type batchCand struct {
	id    int32
	total int64 // the cell's point count: the sum of its sub-cell counts
	// hull is the cell's sub-centre hull, the per-dimension minimum then
	// maximum centre coordinate, shared with the dictionary.
	hull []float64
	// centersT are the candidate's sub-cell centres, decoded once at
	// dictionary build time, in dimension-major lanes; counts are the
	// matching per-sub-cell point counts.
	centersT []float64
	counts   []int32
}

// CellBatch is the result of one Querier.QueryCell call: the shared
// candidate set of a whole cell, pre-classified so that per-point queries
// touch only boundary candidates. It is owned by the querier and reused by
// the next QueryCell call; it must not be retained across calls or shared
// between goroutines.
type CellBatch struct {
	dim  int
	eps2 float64
	blk  *geom.Block // the query cell's gathered points

	insideCount int64
	insideIDs   []int32
	cands       []batchCand

	// Scratch of the blocked kernels (CountPoints and
	// AppendNeighborsBlock), reused across calls: per-point near/far hull
	// distances against the current candidate, per-sub-cell distance
	// accumulators, one gathered point for the scalar tail, and the
	// bounding box of the block's points in play (blockBox).
	near, far []float64
	acc       []float64
	pt        []float64
	plo, phi  []float64
	// The selected points of the current AppendNeighborsBlock call,
	// sorted along an axis on first use: for axis a, byAxis[a] holds dim
	// lanes of nsel coordinates in that order. keys is the sort scratch.
	sel          []bool
	nsel         int
	argLo, argHi []int32 // selected points attaining plo/phi
	byAxis       [][]float64
	axisReady    []bool
	keys         []axisKey
}

// axisKey is one selected point's coordinate along a sort axis.
type axisKey struct {
	x float64
	i int32
}

// InsideCount returns the number of points in fully-inside candidates —
// counted for every point of the query cell without any per-point work.
func (b *CellBatch) InsideCount() int64 { return b.insideCount }

// InsideCells returns the ids of fully-inside candidates: neighbor cells
// of every point of the query cell.
func (b *CellBatch) InsideCells() []int32 { return b.insideIDs }

// NumBoundary returns the number of boundary candidates (instrumentation).
func (b *CellBatch) NumBoundary() int { return len(b.cands) }

// hull returns candidate c's sub-centre hull.
func (b *CellBatch) hull(c *batchCand) (lo, hi []float64) {
	return c.hull[:b.dim], c.hull[b.dim:]
}

// QueryCell performs one batched (eps,rho)-region query for the points of
// blk, which must be the gathered points of cell key, an owned, non-empty
// cell of the dictionary's grid. Low-dimensional dictionaries enumerate
// the candidates from their stencil (stencil.go); otherwise one walk of
// each sub-dictionary's hull tree gathers every cell whose hull lies
// within eps of the points' bounding box. See the comment at the top of
// batch.go for the classification. The returned batch, whose kernels read
// blk, is reused by the next QueryCell call.
func (q *Querier) QueryCell(key grid.Key, blk *geom.Block) *CellBatch {
	d := q.d
	b := &q.batch
	b.dim, b.eps2, b.blk = d.Dim, d.Eps*d.Eps, blk
	b.insideCount = 0
	b.insideIDs = b.insideIDs[:0]
	b.cands = b.cands[:0]
	if !b.blockBox(nil) {
		return b
	}
	if d.sten != nil {
		q.queryStencil(key)
		return b
	}
	for _, sd := range d.Subs {
		q.cand = sd.hullTree.WithinGap(b.plo, b.phi, d.Eps, q.cand[:0])
		for _, id := range q.cand {
			b.classify(d, int32(id))
		}
	}
	return b
}

// classify settles candidate cell id against the bounding box of the
// block's points (see boxPair): dropped when its hull is beyond eps of the
// whole box, inside when within eps of all of it, a boundary candidate
// otherwise.
func (b *CellBatch) classify(d *Dictionary, id int32) {
	h := d.hull(id)
	gap2, span2 := b.boxPair(h)
	switch {
	case gap2 > b.eps2:
	case span2 <= b.eps2:
		b.insideCount += int64(d.byID[id].Count)
		b.insideIDs = append(b.insideIDs, id)
	default:
		centersT, counts := d.lanes(id)
		b.cands = append(b.cands, batchCand{
			id:       id,
			total:    int64(d.byID[id].Count),
			hull:     h,
			centersT: centersT,
			counts:   counts,
		})
	}
}

// queryStencil classifies the cells the dictionary's stencil reaches: one
// row-key probe per stencil row, then a scan of the row's cells within r
// of the query cell's last coordinate, skipping those whose offset alone
// puts them out of reach.
func (q *Querier) queryStencil(key grid.Key) {
	d, s := q.d, q.d.sten
	np := d.Dim - 1
	for i := range q.kc {
		q.kc[i] = int64(key.Coord(i))
	}
	from := q.kc[np] - s.r // last coordinate of a row's first stencil offset
	for row := 0; row*s.w < len(s.reach); row++ {
		off := s.offs[row*np : (row+1)*np]
		rk, ok := s.rowKey(key, off)
		if !ok {
			continue
		}
		ri, ok := s.rows[rk]
		if !ok {
			continue
		}
		// Binary search for the row's first cell at or after from.
		lo, end := s.rowStart[ri], s.rowStart[ri+1]
		for hi := end; lo < hi; {
			mid := int32(uint32(lo+hi) >> 1)
			if int64(s.last[mid]) < from {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		reach := s.reach[row*s.w : (row+1)*s.w]
		for id := lo; id < end; id++ {
			dl := int64(s.last[id]) - from
			if dl >= int64(s.w) {
				break
			}
			if reach[dl] {
				q.batch.classify(d, id)
			}
		}
	}
}

// candCount runs the per-point residual check against one boundary
// candidate — the arithmetic of the per-candidate body of Querier.Query,
// with the candidate's sub-centre hull in place of its cell box, reading
// precomputed sub-cell centres.
func (b *CellBatch) candCount(c *batchCand, p []float64) int64 {
	near2, far2 := b.hullDist2(c, p)
	if near2 > b.eps2 {
		// The hull's nearest face is beyond eps, so is every sub-cell
		// centre inside it.
		return 0
	}
	if far2 <= b.eps2 {
		return c.total // Example 5.5 containment, per point
	}
	var n int64
	for j, cnt := range c.counts {
		if b.centerDist2(c, p, j) <= b.eps2 {
			n += int64(cnt)
		}
	}
	return n
}

// hullDist2 returns the squared distances from p to the nearest and the
// farthest point of candidate c's hull. Both are floating-point monotone
// bounds of every sub-centre's Dist2: per dimension, rounding a
// subtraction preserves order, so |fl(p-x)| lies between the rounded
// distances to the hull's faces for every centre x inside it, and
// squaring and the ascending-dimension sum preserve that order too.
func (b *CellBatch) hullDist2(c *batchCand, p []float64) (near2, far2 float64) {
	lo, hi := b.hull(c)
	lo, hi = lo[:len(p)], hi[:len(p)]
	for i, x := range p {
		d1, d2 := x-lo[i], hi[i]-x
		n := max(-d1, -d2, 0)
		f := max(d1, d2)
		near2 += n * n
		far2 += f * f
	}
	return near2, far2
}

// centerDist2 returns the squared distance from p to candidate c's
// sub-cell centre j with geom.Dist2's arithmetic, read from the
// transposed lanes.
func (b *CellBatch) centerDist2(c *batchCand, p []float64, j int) float64 {
	m := len(c.counts)
	var s float64
	for k := 0; k < b.dim; k++ {
		d := p[k] - c.centersT[k*m+j]
		s += d * d
	}
	return s
}

// boxLanes fills near[i]/far[i] with the squared distances from block
// point i to the nearest and farthest faces of candidate c's hull — the
// lane-major form of hullDist2. The accumulation order (ascending
// dimension, one addition per dimension per point) matches the scalar
// loop exactly, so the results are bit-identical.
func (b *CellBatch) boxLanes(c *batchCand, near, far []float64) {
	lo, hi := b.hull(c)
	for i := range near {
		near[i], far[i] = 0, 0
	}
	for dd := 0; dd < b.dim; dd++ {
		lane := b.blk.Lane(dd)
		l, h := lo[dd], hi[dd]
		for i, p := range lane {
			d1 := p - l
			d2 := h - p
			if d1 < 0 {
				near[i] += d1 * d1
				d1 = -d1
			} else if d2 < 0 {
				near[i] += d2 * d2
				d2 = -d2
			}
			if d2 > d1 {
				d1 = d2
			}
			far[i] += d1 * d1
		}
	}
}

// subAcc fills acc[j] with the squared distance from block point i to
// candidate c's sub-cell centre j, accumulated over the transposed centre
// lanes. Dimension-ascending accumulation with one addition per dimension
// reproduces geom.Dist2 bit-for-bit.
func (b *CellBatch) subAcc(c *batchCand, i int, acc []float64) {
	m := len(acc)
	for j := range acc {
		acc[j] = 0
	}
	for dd := 0; dd < b.dim; dd++ {
		p := b.blk.At(i, dd)
		for j, x := range c.centersT[dd*m : (dd+1)*m] {
			d := p - x
			acc[j] += d * d
		}
	}
}

// grow resizes the scratch lanes for a block of n points and candidates of
// at most m sub-cells, reusing prior capacity. Growth is geometric: cells
// arrive in key order, so exact-fit growth would reallocate at every new
// maximum across a partition's cell loop.
func (b *CellBatch) grow(n, m int) (near, far, acc []float64) {
	if cap(b.near) < n {
		b.near = make([]float64, scratchCap(n, cap(b.near)))
		b.far = make([]float64, cap(b.near))
	}
	if cap(b.acc) < m {
		b.acc = make([]float64, scratchCap(m, cap(b.acc)))
	}
	b.near, b.far, b.acc = b.near[:n], b.far[:n], b.acc[:m]
	return b.near, b.far, b.acc
}

// scratchCap doubles the previous capacity until it covers n.
func scratchCap(n, prev int) int {
	c := prev * 2
	if c < n {
		c = n
	}
	return c
}

// maxSubs returns the largest sub-cell count over the boundary candidates.
func (b *CellBatch) maxSubs() int {
	m := 0
	for ci := range b.cands {
		m = max(m, len(b.cands[ci].counts))
	}
	return m
}

// CountPoints answers the (eps,rho)-region count of every point of the
// batch's block into counts (len blk.N()). The sweep is candidate-outer,
// point-inner, so each candidate's hull and centre lanes stay hot while
// every point's residual is evaluated against them in dense per-dimension
// loops.
//
// With stopAt <= 0 every count is exact. With stopAt > 0 a candidate is
// skipped for point i once counts[i] >= stopAt: callers testing
// count >= MinPts (Algorithm 3 lines 7-9) need no exact total, and the
// early exit cannot change the core decision because counts only grow as
// more candidates are scanned.
func (b *CellBatch) CountPoints(stopAt int64, counts []int64) {
	n := b.blk.N()
	for i := 0; i < n; i++ {
		counts[i] = b.insideCount
	}
	if n == 0 || len(b.cands) == 0 || stopAt > 0 && b.insideCount >= stopAt {
		return
	}
	near, far, acc := b.grow(n, b.maxSubs())
	remaining := n
	for ci := range b.cands {
		c := &b.cands[ci]
		// The dense sweep pays O(points x dim) per candidate no matter how
		// few points are still undecided. Once at most a quarter remain,
		// finish the stragglers point-by-point with the scalar residual —
		// same candidates in the same order under the same skip rule, so
		// the counts are unchanged.
		if stopAt > 0 && remaining*4 <= n {
			b.countTail(ci, stopAt, counts)
			return
		}
		b.boxLanes(c, near, far)
		for i := 0; i < n; i++ {
			if stopAt > 0 && counts[i] >= stopAt {
				continue
			}
			if near[i] > b.eps2 {
				continue
			}
			if far[i] <= b.eps2 {
				counts[i] += c.total
			} else {
				sub := acc[:len(c.counts)]
				b.subAcc(c, i, sub)
				for j, a := range sub {
					if a <= b.eps2 {
						counts[i] += int64(c.counts[j])
					}
				}
			}
			if stopAt > 0 && counts[i] >= stopAt {
				remaining--
				if remaining == 0 {
					return
				}
			}
		}
	}
}

// countTail completes CountPoints for the points still below stopAt when
// the dense sweep hands over at candidate ci0: each undecided point scans
// the remaining candidates with the scalar residual check, stopping at
// stopAt under the same skip rule. The (point, candidate) residual set —
// and so every count — matches the dense sweep continuing to the end.
func (b *CellBatch) countTail(ci0 int, stopAt int64, counts []int64) {
	for i := range counts {
		if counts[i] >= stopAt {
			continue
		}
		pt := b.point(i)
		for ci := ci0; ci < len(b.cands); ci++ {
			counts[i] += b.candCount(&b.cands[ci], pt)
			if counts[i] >= stopAt {
				break
			}
		}
	}
}

// point gathers block point i into the batch's point scratch.
func (b *CellBatch) point(i int) []float64 {
	pt := b.pt[:b.dim]
	for dd := range pt {
		pt[dd] = b.blk.At(i, dd)
	}
	return pt
}

// AppendNeighborsBlock appends to dst the ids of boundary candidates with
// at least one qualifying sub-cell for at least one selected point of the
// batch's block (sel[i] marks the points that matter — Phase II passes the cell's core
// points). Per-point neighbor sets are only ever unioned by the caller, so
// the blocked kernel answers the union directly, settling each candidate
// as cheaply as it can:
//
//   - cell pair: against the bounding box of the selected points, a hull
//     gap beyond eps rules the candidate out and a farthest distance
//     within eps rules it in, before any per-point work;
//   - per point: points are visited nearest-first along the axis that
//     separates the pair most, and the visit stops once that axis alone
//     puts a point beyond eps; the near/far distances to the hull rule a
//     point out or in, and the first witnessing point ends the candidate;
//   - per sub-centre: an any-hit scan starting at the end of the centres
//     nearer the point along the first axis, the primary sort key of the
//     sub-cells, stopping once that axis alone is beyond eps.
//
// Every test is a floating-point monotone bound of the Dist2 values it
// stands for (see hullDist2), so the appended id set equals the union, over
// the selected points, of the boundary candidates with a sub-cell centre
// within eps — together with InsideCells, the union of the neighbor cells
// NC (Algorithm 3 line 13) that Querier.Query reports for those points.
func (b *CellBatch) AppendNeighborsBlock(sel []bool, dst []int32) []int32 {
	if len(b.cands) == 0 || !b.blockBox(sel) {
		return dst
	}
	for ci := range b.cands {
		c := &b.cands[ci]
		gap2, span2 := b.boxPair(c.hull)
		if gap2 > b.eps2 {
			continue
		}
		if span2 <= b.eps2 {
			dst = append(dst, c.id) // every cell has >= 1 sub-cell
			continue
		}
		if axis, above := b.sepAxis(c.hull); b.anyPointWithin(c, axis, above) {
			dst = append(dst, c.id)
		}
	}
	return dst
}

// boxPair compares hull h, the per-dimension minimum then maximum of a set
// of sub-cell centres, with the box plo/phi of a set of points. It returns
// the squared gap and the squared farthest distance between the two. Per
// axis, up and down are the hull's separation above and below the box,
// and their negations the farthest extents, at least one of them
// non-negative. For any point p in the box and centre x in the hull,
// fl(p-x) lies between -up and -down by the monotonicity of rounded
// subtraction, so gap2 and span2 bound every Dist2 between them.
func (b *CellBatch) boxPair(h []float64) (gap2, span2 float64) {
	lo, hi := h[:b.dim], h[b.dim:2*b.dim]
	plo, phi := b.plo[:len(lo)], b.phi[:len(lo)]
	for k := range lo {
		up, down := lo[k]-phi[k], plo[k]-hi[k]
		g := max(up, down, 0)
		gap2 += g * g
		m := max(-up, -down)
		span2 += m * m
	}
	return gap2, span2
}

// sepAxis returns the axis along which hull h lies farthest outside the
// box plo/phi, and whether it lies above it.
func (b *CellBatch) sepAxis(h []float64) (axis int, above bool) {
	lo, hi := h[:b.dim], h[b.dim:2*b.dim]
	plo, phi := b.plo[:len(lo)], b.phi[:len(lo)]
	sep := math.Inf(-1)
	for k := range lo {
		if up := lo[k] - phi[k]; up > sep {
			axis, sep, above = k, up, true
		}
		if down := plo[k] - hi[k]; down > sep {
			axis, sep, above = k, down, false
		}
	}
	return axis, above
}

// visitChunk is how many axis-sorted points anyPointWithin tests per
// dense lane sweep.
const visitChunk = 8

// anyPointWithin reports whether some selected point of blk has a sub-cell
// centre of c within eps. It first tries the selected point nearest the
// hull along axis, which in dense cells almost always witnesses, without
// sorting anything. Then it visits the selected points by their coordinate
// along axis, nearest to the hull first (descending when the hull lies
// above them), a chunk of visitChunk at a time: one lane sweep gives the
// chunk's near/far hull distances (the hullDist2 arithmetic), and the
// visit stops at the first chunk whose nearest point is beyond eps along
// axis alone — the points after it are farther still, and a single Dist2
// term beyond eps^2 bounds the whole sum.
func (b *CellBatch) anyPointWithin(c *batchCand, axis int, above bool) bool {
	lo, hi := b.hull(c)
	first := b.argLo[axis]
	if above {
		first = b.argHi[axis]
	}
	if b.pointWithin(c, b.point(int(first))) {
		return true
	}
	lanes := b.sortedAxis(axis)
	ns := b.nsel
	pt := b.pt[:b.dim]
	var near, far [visitChunk]float64
	for t0 := 0; t0 < ns; t0 += visitChunk {
		// The chunk holds sorted positions [j0, j0+w); its nearest point
		// is the last one when the hull lies above.
		w := min(visitChunk, ns-t0)
		j0, gap := t0, lanes[axis*ns+t0]-hi[axis]
		if above {
			j0 = ns - t0 - w
			gap = lo[axis] - lanes[axis*ns+j0+w-1]
		}
		if gap > 0 && gap*gap > b.eps2 {
			return false
		}
		for q := 0; q < w; q++ {
			near[q], far[q] = 0, 0
		}
		for k := range pt {
			l, h := lo[k], hi[k]
			for q, x := range lanes[k*ns+j0 : k*ns+j0+w] {
				d1, d2 := x-l, h-x
				if d1 < 0 {
					near[q] += d1 * d1
				} else if d2 < 0 {
					near[q] += d2 * d2
				}
				f := max(d1, d2)
				far[q] += f * f
			}
		}
		for v := 0; v < w; v++ {
			q := v
			if above {
				q = w - 1 - v
			}
			if near[q] > b.eps2 {
				continue
			}
			if far[q] <= b.eps2 {
				return true
			}
			for k := range pt {
				pt[k] = lanes[k*ns+j0+q]
			}
			if b.anyWithin(c, pt) {
				return true
			}
		}
	}
	return false
}

// pointWithin reports whether a sub-cell centre of c is within eps of p.
func (b *CellBatch) pointWithin(c *batchCand, p []float64) bool {
	near2, far2 := b.hullDist2(c, p)
	if near2 > b.eps2 {
		return false
	}
	return far2 <= b.eps2 || b.anyWithin(c, p)
}

// blockBox sets plo/phi to the bounding box of the points of the batch's
// block that sel selects (every point when sel is nil), argLo/argHi to the
// points attaining it and nsel to their number, and reports whether any
// point is selected.
func (b *CellBatch) blockBox(sel []bool) bool {
	blk := b.blk
	dim, n := b.dim, blk.N()
	if len(b.axisReady) != dim {
		b.plo, b.phi, b.pt = make([]float64, dim), make([]float64, dim), make([]float64, dim)
		b.argLo, b.argHi = make([]int32, dim), make([]int32, dim)
		b.axisReady = make([]bool, dim)
		b.byAxis = make([][]float64, dim)
	}
	clear(b.axisReady)
	b.sel, b.nsel = sel, n
	first := 0
	if sel != nil {
		b.nsel = 0
		for _, s := range sel[:n] {
			if s {
				b.nsel++
			}
		}
		first = slices.Index(sel[:n], true)
	}
	if b.nsel == 0 {
		return false
	}
	for dd := 0; dd < dim; dd++ {
		lane := blk.Lane(dd)
		lo, hi := lane[first], lane[first]
		b.argLo[dd], b.argHi[dd] = int32(first), int32(first)
		for i := first + 1; i < n; i++ {
			if sel != nil && !sel[i] {
				continue
			}
			if x := lane[i]; x < lo {
				lo, b.argLo[dd] = x, int32(i)
			} else if x > hi {
				hi, b.argHi[dd] = x, int32(i)
			}
		}
		b.plo[dd], b.phi[dd] = lo, hi
	}
	return true
}

// sortedAxis returns the selected points of the batch's block as dim lanes
// of nsel coordinates, ordered by their coordinate along axis; the first
// request per selection sorts and gathers them.
func (b *CellBatch) sortedAxis(axis int) []float64 {
	blk, ns := b.blk, b.nsel
	if b.axisReady[axis] {
		return b.byAxis[axis]
	}
	if cap(b.keys) < ns {
		b.keys = make([]axisKey, scratchCap(ns, cap(b.keys)))
	}
	keys := b.keys[:0]
	for i, x := range blk.Lane(axis) {
		if b.sel[i] {
			keys = append(keys, axisKey{x: x, i: int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, c axisKey) int { return cmp.Compare(a.x, c.x) })
	lanes := b.byAxis[axis]
	if cap(lanes) < b.dim*ns {
		lanes = make([]float64, scratchCap(b.dim*ns, cap(lanes)))
	}
	lanes = lanes[:b.dim*ns]
	for k := 0; k < b.dim; k++ {
		src, dst := blk.Lane(k), lanes[k*ns:(k+1)*ns]
		for t, key := range keys {
			dst[t] = src[key.i]
		}
	}
	b.byAxis[axis] = lanes
	b.axisReady[axis] = true
	return lanes
}

// anyWithin reports whether any sub-cell centre of c is within eps of p.
// Centres are sorted by their first coordinate, so the scan walks them
// from the end nearer p and stops as soon as a centre is beyond eps along
// that axis alone: every later centre is farther along it still, and the
// first term of Dist2 already exceeds eps^2.
func (b *CellBatch) anyWithin(c *batchCand, p []float64) bool {
	m := len(c.counts)
	lane0 := c.centersT[:m]
	p0 := p[0]
	if p0-lane0[0] <= lane0[m-1]-p0 {
		for j, x := range lane0 {
			if d := x - p0; d > 0 && d*d > b.eps2 {
				return false
			}
			if b.centerDist2(c, p, j) <= b.eps2 {
				return true
			}
		}
		return false
	}
	for j := m - 1; j >= 0; j-- {
		if d := p0 - lane0[j]; d > 0 && d*d > b.eps2 {
			return false
		}
		if b.centerDist2(c, p, j) <= b.eps2 {
			return true
		}
	}
	return false
}
