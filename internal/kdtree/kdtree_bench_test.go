package kdtree

// BenchmarkKDTreeInBall contrasts the cache-blocked layout (BFS node
// order, flat bounds slab, SoA leaves, iterative traversal) against a
// reference tree with the classic per-node layout — heap-allocated
// per-node bounds, item-major points, recursive descent. Both answer the
// same queries over the same data; the ratio is the layout win in
// isolation. TestInBallAllocFree pins the blocked layout's zero-allocation
// guarantee that dict.Querier and serve.Predict rely on.

import (
	"math/rand"
	"testing"

	"rpdbscan/internal/geom"
)

// refTree is the pre-blocking layout kept as a benchmark baseline: one
// node struct per tree node with its own geom.Box, points item-major in
// tree order, recursion per query.
type refTree struct {
	dim    int
	coords []float64
	items  []int
	nodes  []refNode
}

type refNode struct {
	start, count int
	left, right  int
	bounds       geom.Box
}

func buildRef(pts *geom.Points) *refTree {
	n := pts.N()
	t := &refTree{dim: pts.Dim, items: make([]int, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	src := pts.Coords
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		b := geom.NewBox(t.dim)
		for _, idx := range order[lo:hi] {
			b.Extend(src[idx*t.dim : (idx+1)*t.dim])
		}
		if hi-lo <= leafSize {
			t.nodes = append(t.nodes, refNode{start: lo, count: hi - lo, bounds: b, left: -1, right: -1})
			return len(t.nodes) - 1
		}
		axis := 0
		widest := b.Max[0] - b.Min[0]
		for d := 1; d < t.dim; d++ {
			if w := b.Max[d] - b.Min[d]; w > widest {
				widest, axis = w, d
			}
		}
		selectNthIndirect(src, t.dim, order[lo:hi], (hi-lo)/2, axis)
		mid := lo + (hi-lo)/2
		self := len(t.nodes)
		t.nodes = append(t.nodes, refNode{bounds: b})
		l := build(lo, mid)
		r := build(mid, hi)
		t.nodes[self].left = l
		t.nodes[self].right = r
		return self
	}
	if n > 0 {
		build(0, n)
	}
	t.coords = make([]float64, n*t.dim)
	for pos, orig := range order {
		copy(t.coords[pos*t.dim:(pos+1)*t.dim], src[orig*t.dim:(orig+1)*t.dim])
		t.items[pos] = orig
	}
	return t
}

func (t *refTree) inBall(ni int, q []float64, r2 float64, dst []int) []int {
	nd := &t.nodes[ni]
	if nd.bounds.MinDist2(q) > r2 {
		return dst
	}
	if nd.count > 0 || nd.left < 0 {
		for i := nd.start; i < nd.start+nd.count; i++ {
			if geom.Dist2(q, t.coords[i*t.dim:(i+1)*t.dim]) <= r2 {
				dst = append(dst, t.items[i])
			}
		}
		return dst
	}
	dst = t.inBall(nd.left, q, r2, dst)
	return t.inBall(nd.right, q, r2, dst)
}

func benchPoints(n, dim int) (*geom.Points, [][]float64) {
	r := rand.New(rand.NewSource(42))
	pts := randomPoints(r, n, dim)
	queries := make([][]float64, 256)
	for i := range queries {
		q := make([]float64, dim)
		for d := range q {
			q[d] = r.Float64()*20 - 10
		}
		queries[i] = q
	}
	return pts, queries
}

// TestRefTreeMatchesBlocked keeps the benchmark honest: the reference
// layout must return the same result sets as the blocked tree.
func TestRefTreeMatchesBlocked(t *testing.T) {
	pts, queries := benchPoints(3000, 3)
	blocked := Build(pts, nil)
	ref := buildRef(pts)
	for _, q := range queries {
		a := blocked.InBall(q, 2.5, nil)
		b := ref.inBall(0, q, 2.5*2.5, nil)
		if len(a) != len(b) {
			t.Fatalf("blocked found %d, reference found %d", len(a), len(b))
		}
		seen := make(map[int]bool, len(a))
		for _, v := range a {
			seen[v] = true
		}
		for _, v := range b {
			if !seen[v] {
				t.Fatalf("reference result %d missing from blocked", v)
			}
		}
	}
}

func BenchmarkKDTreeInBall(b *testing.B) {
	for _, dim := range []int{2, 5} {
		pts, queries := benchPoints(20000, dim)
		blocked := Build(pts, nil)
		ref := buildRef(pts)
		const r = 1.5
		dst := make([]int, 0, 4096)
		b.Run(benchName("layout=blocked", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = blocked.InBall(queries[i%len(queries)], r, dst[:0])
			}
		})
		b.Run(benchName("layout=node", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = ref.inBall(0, queries[i%len(queries)], r*r, dst[:0])
			}
		})
	}
}

func benchName(layout string, dim int) string {
	return layout + "/dim=" + string(rune('0'+dim))
}

// TestInBallAllocFree pins the zero-allocation contract of every blocked
// query when the destination has capacity.
func TestInBallAllocFree(t *testing.T) {
	pts, queries := benchPoints(5000, 3)
	tr := Build(pts, nil)
	dst := make([]int, 0, 8192)
	box := geom.NewBox(3)
	box.Extend(queries[0])
	box.Extend(queries[1])
	boxes := make([]float64, 0, 2*len(pts.Coords))
	for i := 0; i < pts.N(); i++ {
		boxes = append(append(boxes, pts.At(i)...), pts.At(i)...)
	}
	bt := BuildBoxes(boxes, 3, nil)
	if n := testing.AllocsPerRun(50, func() {
		dst = tr.InBall(queries[0], 3, dst[:0])
	}); n != 0 {
		t.Fatalf("InBall allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		dst = bt.WithinGap(box.Min, box.Max, 2, dst[:0])
	}); n != 0 {
		t.Fatalf("WithinGap allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		tr.NearestInBall(queries[2], 4)
	}); n != 0 {
		t.Fatalf("NearestInBall allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		tr.Visit(queries[3], 3, func(int) {})
	}); n != 0 {
		t.Fatalf("Visit allocates %v per call", n)
	}
}
