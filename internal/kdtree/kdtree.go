// Package kdtree provides a static kd-tree over d-dimensional points with
// ball range queries. The two-level cell dictionary indexes cell centres
// with it so an (eps,rho)-region query touches O(log |cell|) nodes plus a
// constant number of candidate cells (Lemma 5.6), independent of the
// dimension-exponential size of the naive coordinate-box enumeration.
//
// # Memory layout
//
// The tree is cache-blocked rather than pointer-chased. Nodes live in one
// flat slice in BFS order — the root is node 0 and the two children of an
// internal node are adjacent (left and left+1), so the top of the tree,
// which every query traverses, occupies a handful of consecutive cache
// lines. Node bounds live in a separate flat float64 slab (2*dim values
// per node) instead of per-node heap-allocated boxes. Points are bucketed
// into leaves of up to leafSize entries and stored structure-of-arrays
// within each leaf: coordinate d of the leaf's points is one contiguous
// lane, so the distance kernel is a per-dimension accumulation over dense
// float64 slices — bounds-check-friendly, autovectorizable, and free of
// per-point slice headers. Traversal is iterative over a fixed-size stack;
// no query allocates.
package kdtree

import (
	"rpdbscan/internal/geom"
)

// Tree is an immutable kd-tree built over a fixed point set. Each indexed
// point carries an integer payload (typically an index into a cell table).
type Tree struct {
	dim int
	// coords holds the points in tree order, SoA per leaf: a leaf covering
	// items [s, s+c) stores coordinate d of its j-th point at
	// coords[s*dim + d*c + j].
	coords []float64
	items  []int // payloads, parallel to tree order
	nodes  []node
	// bounds is the flat bounding-box slab: node i's box occupies
	// bounds[i*2*dim : (i+1)*2*dim], min coordinates then max.
	bounds []float64
}

// node is one BFS-ordered tree node. Leaves have count > 0 and index
// points [start, start+count) of coords/items; internal nodes have
// count == 0 and children at left and left+1.
type node struct {
	start, count int32
	left         int32
	axis         int32
	split        float64
}

// leafSize is the leaf bucket capacity. 16 keeps a leaf's SoA lanes within
// two cache lines per dimension while still amortising the per-node prune.
const leafSize = 16

// maxDepth bounds the traversal stacks. Median splits halve every segment,
// so the depth never exceeds ceil(log2 n) — 64 covers any addressable n.
const maxDepth = 64

// Build constructs a kd-tree over pts. payload[i] is attached to point i; a
// nil payload attaches i itself. pts may be empty.
func Build(pts *geom.Points, payload []int) *Tree {
	n := pts.N()
	t := &Tree{dim: pts.Dim}
	if n == 0 {
		return t
	}
	dim := t.dim
	// rows holds the points in construction order, one contiguous row per
	// point: partitioning a segment moves its rows along with order, so
	// every bounding-box scan and median selection reads one dense range
	// instead of gathering rows through the permutation. Once the leaves
	// are transposed in place it is the tree's coordinate slab.
	rows := make([]float64, n*dim)
	copy(rows, pts.Coords)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// BFS construction: the work queue is processed FIFO and every entry
	// becomes exactly one node, so an entry's queue position IS its node
	// id, and the two children a parent appends together become adjacent
	// nodes — the left/left+1 layout needs no patching.
	type seg struct{ lo, hi int }
	queue := make([]seg, 1, 2*(n/leafSize+1))
	queue[0] = seg{0, n}
	for qi := 0; qi < len(queue); qi++ {
		lo, hi := queue[qi].lo, queue[qi].hi
		// Bounding box of the segment, appended to the flat slab.
		t.bounds = append(t.bounds, make([]float64, 2*dim)...)
		bb := t.bounds[len(t.bounds)-2*dim:]
		copy(bb[:dim], rows[lo*dim:(lo+1)*dim])
		copy(bb[dim:], rows[lo*dim:(lo+1)*dim])
		for off := (lo + 1) * dim; off < hi*dim; off += dim {
			for d, v := range rows[off : off+dim] {
				if v < bb[d] {
					bb[d] = v
				}
				if v > bb[dim+d] {
					bb[dim+d] = v
				}
			}
		}
		if hi-lo <= leafSize {
			t.nodes = append(t.nodes, node{start: int32(lo), count: int32(hi - lo)})
			continue
		}
		// Split along the widest axis at the median.
		axis := 0
		widest := bb[dim] - bb[0]
		for d := 1; d < dim; d++ {
			if w := bb[dim+d] - bb[d]; w > widest {
				widest, axis = w, d
			}
		}
		selectNth(rows[lo*dim:hi*dim], order[lo:hi], dim, (hi-lo)/2, axis)
		mid := lo + (hi-lo)/2
		t.nodes = append(t.nodes, node{
			left:  int32(len(queue)),
			axis:  int32(axis),
			split: rows[mid*dim+axis],
		})
		queue = append(queue, seg{lo, mid}, seg{mid, hi})
	}
	// Transpose each leaf's rows to SoA in place, and resolve payloads.
	tmp := make([]float64, leafSize*dim)
	for ni := range t.nodes {
		nd := &t.nodes[ni]
		if nd.count == 0 {
			continue
		}
		s, c := int(nd.start), int(nd.count)
		leaf := rows[s*dim : (s+c)*dim]
		copy(tmp, leaf)
		for j := 0; j < c; j++ {
			for d := 0; d < dim; d++ {
				leaf[d*c+j] = tmp[j*dim+d]
			}
		}
	}
	if payload != nil {
		for i, orig := range order {
			order[i] = payload[orig]
		}
	}
	t.coords, t.items = rows, order
	return t
}

// selectNth partially orders the rows (dim values each) and their parallel
// order entries so that row n holds the element of rank n by the given
// axis (Hoare quickselect with median-of-three pivots) — an O(len) median
// step that replaces a full sort during tree construction.
func selectNth(rows []float64, order []int, dim, n, axis int) {
	lo, hi := 0, len(order)-1
	val := func(i int) float64 { return rows[i*dim+axis] }
	for lo < hi {
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if val(mid) < val(lo) {
			swapRows(rows, order, dim, mid, lo)
		}
		if val(hi) < val(lo) {
			swapRows(rows, order, dim, hi, lo)
		}
		if val(hi) < val(mid) {
			swapRows(rows, order, dim, hi, mid)
		}
		pivot := val(mid)
		i, j := lo, hi
		for i <= j {
			for val(i) < pivot {
				i++
			}
			for val(j) > pivot {
				j--
			}
			if i <= j {
				swapRows(rows, order, dim, i, j)
				i++
				j--
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
}

// swapRows exchanges rows i and j and their order entries.
func swapRows(rows []float64, order []int, dim, i, j int) {
	order[i], order[j] = order[j], order[i]
	a, b := rows[i*dim:(i+1)*dim], rows[j*dim:(j+1)*dim]
	for d := range a {
		a[d], b[d] = b[d], a[d]
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.items) }

// nodeMinDist2 returns the squared distance from q to node ni's bounding
// box, read from the flat slab (geom.Box.MinDist2 arithmetic).
func (t *Tree) nodeMinDist2(ni int32, q []float64) float64 {
	b := t.bounds[int(ni)*2*t.dim : (int(ni)+1)*2*t.dim]
	var s float64
	for d, v := range q {
		if v < b[d] {
			diff := b[d] - v
			s += diff * diff
		} else if v > b[t.dim+d] {
			diff := v - b[t.dim+d]
			s += diff * diff
		}
	}
	return s
}

// nodeBoxMinDist2 returns the squared gap between node ni's bounding box
// and the box (lo, hi) (geom.Box.BoxMinDist2 arithmetic).
func (t *Tree) nodeBoxMinDist2(ni int32, lo, hi []float64) float64 {
	b := t.bounds[int(ni)*2*t.dim : (int(ni)+1)*2*t.dim]
	var s float64
	for d := range lo {
		if diff := lo[d] - b[t.dim+d]; diff > 0 {
			s += diff * diff
		} else if diff := b[d] - hi[d]; diff > 0 {
			s += diff * diff
		}
	}
	return s
}

// leafDist2 fills acc[0:count] with the squared distance from q to every
// point of the leaf: one dense accumulation lane per dimension, the same
// per-point addition order as geom.Dist2 so results are bit-identical.
func (t *Tree) leafDist2(nd *node, q []float64, acc *[leafSize]float64) {
	s, c := int(nd.start), int(nd.count)
	for j := 0; j < c; j++ {
		acc[j] = 0
	}
	base := s * t.dim
	for d, qd := range q {
		lane := t.coords[base+d*c : base+(d+1)*c]
		for j, v := range lane {
			diff := v - qd
			acc[j] += diff * diff
		}
	}
}

// InBall appends to dst the payloads of all points within radius r of q and
// returns the extended slice. It allocates nothing when dst has capacity.
func (t *Tree) InBall(q []float64, r float64, dst []int) []int {
	if len(t.nodes) == 0 {
		return dst
	}
	r2 := r * r
	var stack [maxDepth]int32
	var acc [leafSize]float64
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		if t.nodeMinDist2(ni, q) > r2 {
			continue
		}
		nd := &t.nodes[ni]
		if nd.count > 0 {
			t.leafDist2(nd, q, &acc)
			s, c := int(nd.start), int(nd.count)
			for j := 0; j < c; j++ {
				if acc[j] <= r2 {
					dst = append(dst, t.items[s+j])
				}
			}
			continue
		}
		stack[sp] = nd.left
		stack[sp+1] = nd.left + 1
		sp += 2
	}
	return dst
}

// InBallBox appends to dst the payloads of all points within distance r of
// the box b (its nearest face, or zero when inside) and returns the
// extended slice. It is the cell-batched variant of InBall: one traversal
// gathers the candidates shared by every query point inside b, so callers
// amortise the index walk over a whole cell instead of paying it per point.
// Like InBall it allocates nothing when dst has capacity.
func (t *Tree) InBallBox(b geom.Box, r float64, dst []int) []int {
	if len(t.nodes) == 0 || b.Empty() {
		return dst
	}
	r2 := r * r
	lo, hi := b.Min, b.Max
	var stack [maxDepth]int32
	var acc [leafSize]float64
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		if t.nodeBoxMinDist2(ni, lo, hi) > r2 {
			continue
		}
		nd := &t.nodes[ni]
		if nd.count > 0 {
			s, c := int(nd.start), int(nd.count)
			for j := 0; j < c; j++ {
				acc[j] = 0
			}
			base := s * t.dim
			// Box.MinDist2 per leaf point, one dense lane per dimension.
			for d := range lo {
				blo, bhi := lo[d], hi[d]
				lane := t.coords[base+d*c : base+(d+1)*c]
				for j, v := range lane {
					if v < blo {
						diff := blo - v
						acc[j] += diff * diff
					} else if v > bhi {
						diff := v - bhi
						acc[j] += diff * diff
					}
				}
			}
			for j := 0; j < c; j++ {
				if acc[j] <= r2 {
					dst = append(dst, t.items[s+j])
				}
			}
			continue
		}
		stack[sp] = nd.left
		stack[sp+1] = nd.left + 1
		sp += 2
	}
	return dst
}

// NearestInBall returns the payload of the point nearest to q among those
// within radius r, its squared distance, and whether any point qualified.
// Ties on distance resolve to the smallest payload, so the answer is a pure
// function of the indexed set — independent of tree shape and traversal
// order — which is what lets the serving layer promise byte-identical
// predictions across concurrent and sequential execution.
func (t *Tree) NearestInBall(q []float64, r float64) (payload int, dist2 float64, ok bool) {
	if len(t.nodes) == 0 || r < 0 {
		return 0, 0, false
	}
	bestD2 := r * r
	best := -1
	var stack [maxDepth]int32
	var acc [leafSize]float64
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		// Prune on the current best radius; "equal" must still be visited
		// so the smallest-payload tie-break sees every candidate at the
		// boundary.
		if t.nodeMinDist2(ni, q) > bestD2 {
			continue
		}
		nd := &t.nodes[ni]
		if nd.count > 0 {
			t.leafDist2(nd, q, &acc)
			s, c := int(nd.start), int(nd.count)
			for j := 0; j < c; j++ {
				d2 := acc[j]
				if d2 > bestD2 {
					continue
				}
				if best < 0 || d2 < bestD2 || t.items[s+j] < best {
					bestD2, best = d2, t.items[s+j]
				}
			}
			continue
		}
		// Descend the side of the split containing q first: it shrinks the
		// best radius earliest, pruning more of the far side. The far child
		// is pushed below the near one so the near side pops first.
		near, far := nd.left, nd.left+1
		if q[nd.axis] > nd.split {
			near, far = far, near
		}
		stack[sp] = far
		stack[sp+1] = near
		sp += 2
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestD2, true
}

// Visit calls fn for every payload whose point is within radius r of q. It
// avoids the allocation of InBall when the caller only needs to iterate.
func (t *Tree) Visit(q []float64, r float64, fn func(payload int)) {
	if len(t.nodes) == 0 {
		return
	}
	r2 := r * r
	var stack [maxDepth]int32
	var acc [leafSize]float64
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		if t.nodeMinDist2(ni, q) > r2 {
			continue
		}
		nd := &t.nodes[ni]
		if nd.count > 0 {
			t.leafDist2(nd, q, &acc)
			s, c := int(nd.start), int(nd.count)
			for j := 0; j < c; j++ {
				if acc[j] <= r2 {
					fn(t.items[s+j])
				}
			}
			continue
		}
		stack[sp] = nd.left
		stack[sp+1] = nd.left + 1
		sp += 2
	}
}
