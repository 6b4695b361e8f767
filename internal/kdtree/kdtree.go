// Package kdtree provides a static kd-tree over d-dimensional points with
// ball range queries, and a bounding-volume tree of the same layout over
// axis-aligned boxes with box-gap queries. The two-level cell dictionary
// indexes cell centres with the first, so an (eps,rho)-region query
// touches O(log |cell|) nodes plus a constant number of candidate cells
// (Lemma 5.6), independent of the dimension-exponential size of the naive
// coordinate-box enumeration; high-dimensional dictionaries index their
// cells' sub-centre hulls with the second.
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
	// coords[s*dim + d*c + j]. A BoxTree's leaves hold 2*dim such lanes
	// (stride 2*dim): the items' minimum coordinates, then their maxima.
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
	rows := make([]float64, len(pts.Coords))
	copy(rows, pts.Coords)
	return build(rows, pts.Dim, pts.Dim, payload)
}

// build constructs the tree layout over n = len(rows)/stride rows of
// stride values each. A row's first dim values are its minimum corner and
// its last dim values its maximum corner: stride == dim for points, whose
// two corners coincide, and 2*dim for boxes. Node bounds are the unions of
// the member rows' boxes. rows is consumed: it becomes the coordinate slab.
func build(rows []float64, dim, stride int, payload []int) *Tree {
	t := &Tree{dim: dim}
	if stride == 0 || len(rows) == 0 {
		return t
	}
	n := len(rows) / stride
	hiOff := stride - dim
	// rows holds the items in construction order, one contiguous row per
	// item: partitioning a segment moves its rows along with order, so
	// every bounding-box scan and median selection reads one dense range
	// instead of gathering rows through the permutation. Once the leaves
	// are transposed in place it is the tree's coordinate slab.
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
		copy(bb[:dim], rows[lo*stride:lo*stride+dim])
		copy(bb[dim:], rows[lo*stride+hiOff:lo*stride+hiOff+dim])
		bmin, bmax := bb[:dim], bb[dim:2*dim]
		for off := (lo + 1) * stride; off < hi*stride; off += stride {
			rmin := rows[off : off+dim]
			rmax := rows[off+hiOff : off+hiOff+dim]
			// One length for all four slices lets the compiler drop the
			// bounds checks of the loop.
			rmax, bmin, bmax = rmax[:len(rmin)], bmin[:len(rmin)], bmax[:len(rmin)]
			for d, v := range rmin {
				if v < bmin[d] {
					bmin[d] = v
				}
				if w := rmax[d]; w > bmax[d] {
					bmax[d] = w
				}
			}
		}
		if hi-lo <= leafSize {
			t.nodes = append(t.nodes, node{start: int32(lo), count: int32(hi - lo)})
			continue
		}
		// Split along the widest axis at the median of the rows' minimum
		// coordinates.
		axis := 0
		widest := bb[dim] - bb[0]
		for d := 1; d < dim; d++ {
			if w := bb[dim+d] - bb[d]; w > widest {
				widest, axis = w, d
			}
		}
		selectNth(rows[lo*stride:hi*stride], order[lo:hi], stride, (hi-lo)/2, axis)
		mid := lo + (hi-lo)/2
		t.nodes = append(t.nodes, node{
			left:  int32(len(queue)),
			axis:  int32(axis),
			split: rows[mid*stride+axis],
		})
		queue = append(queue, seg{lo, mid}, seg{mid, hi})
	}
	// Transpose each leaf's rows to SoA in place, and resolve payloads.
	tmp := make([]float64, leafSize*stride)
	for ni := range t.nodes {
		nd := &t.nodes[ni]
		if nd.count == 0 {
			continue
		}
		s, c := int(nd.start), int(nd.count)
		leaf := rows[s*stride : (s+c)*stride]
		copy(tmp, leaf)
		for j := 0; j < c; j++ {
			for k := 0; k < stride; k++ {
				leaf[k*c+j] = tmp[j*stride+k]
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

// selectNth partially orders the rows (stride values each) and their
// parallel order entries so that row n holds the element of rank n by its
// value at offset axis (Hoare quickselect with median-of-three pivots) —
// an O(len) median step that replaces a full sort during tree
// construction.
func selectNth(rows []float64, order []int, stride, n, axis int) {
	lo, hi := 0, len(order)-1
	val := func(i int) float64 { return rows[i*stride+axis] }
	for lo < hi {
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if val(mid) < val(lo) {
			swapRows(rows, order, stride, mid, lo)
		}
		if val(hi) < val(lo) {
			swapRows(rows, order, stride, hi, lo)
		}
		if val(hi) < val(mid) {
			swapRows(rows, order, stride, hi, mid)
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
				swapRows(rows, order, stride, i, j)
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
func swapRows(rows []float64, order []int, stride, i, j int) {
	order[i], order[j] = order[j], order[i]
	a, b := rows[i*stride:(i+1)*stride], rows[j*stride:(j+1)*stride]
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

// nodeBeyond reports whether the squared gap between node ni's bounding
// box and the box (lo, hi) exceeds r2, with WithinGap's per-item
// arithmetic. The partial sums only grow, so it stops at the first one
// beyond r2.
func (t *Tree) nodeBeyond(ni int32, lo, hi []float64, r2 float64) bool {
	b := t.bounds[int(ni)*2*t.dim : (int(ni)+1)*2*t.dim]
	var s float64
	for d := range lo {
		g := max(lo[d]-b[t.dim+d], b[d]-hi[d], 0)
		if s += g * g; s > r2 {
			return true
		}
	}
	return false
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

// BoxTree is an immutable bounding-volume tree over axis-aligned item
// boxes, each carrying an integer payload. It has Tree's layout — BFS node
// order, a flat bounds slab, SoA leaves — with 2*dim lanes per leaf (the
// items' minimum coordinates, then their maximum coordinates) and node
// bounds that are the unions of their members' boxes.
type BoxTree struct {
	t *Tree
}

// BuildBoxes constructs a box tree over the item boxes in boxes: 2*dim
// values per item, its minimum corner then its maximum corner. payload[i]
// is attached to item i; a nil payload attaches i itself. boxes may be
// empty. boxes is consumed: it becomes the tree's leaf slab, so the caller
// must not use it afterwards.
func BuildBoxes(boxes []float64, dim int, payload []int) *BoxTree {
	return &BoxTree{t: build(boxes, dim, 2*dim, payload)}
}

// WithinGap appends to dst the payloads of every item whose box lies
// within gap r of the box [lo, hi] and returns the extended slice. The
// squared gap is the ascending-dimension sum of g*g, with g per dimension
// the rounded separation of the two boxes (lo minus the item's maximum, or
// the item's minimum minus hi, whichever is positive; zero where they
// overlap), and an item qualifies when it is at most r*r. A node's bounds
// contain its members' boxes and rounded subtraction is monotone, so a
// node's gap is at most every member's in floating point too: pruning a
// node never drops a qualifying item. Allocates nothing when dst has
// capacity.
func (bt *BoxTree) WithinGap(lo, hi []float64, r float64, dst []int) []int {
	t := bt.t
	if len(t.nodes) == 0 {
		return dst
	}
	r2 := r * r
	dim := t.dim
	var stack [maxDepth]int32
	var acc [leafSize]float64
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		if t.nodeBeyond(ni, lo, hi, r2) {
			continue
		}
		nd := &t.nodes[ni]
		if nd.count > 0 {
			s, c := int(nd.start), int(nd.count)
			for j := 0; j < c; j++ {
				acc[j] = 0
			}
			base := s * 2 * dim
			for d := range lo {
				mins := t.coords[base+d*c : base+(d+1)*c]
				maxs := t.coords[base+(dim+d)*c : base+(dim+d+1)*c]
				ql, qh := lo[d], hi[d]
				for j, m := range mins {
					g := max(ql-maxs[j], m-qh, 0)
					acc[j] += g * g
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
