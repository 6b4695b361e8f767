package kdtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rpdbscan/internal/geom"

	"rpdbscan/internal/testutil"
)

func randomPoints(r *rand.Rand, n, dim int) *geom.Points {
	p := geom.NewPoints(dim, n)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = r.Float64()*20 - 10
		}
		p.Append(row)
	}
	return p
}

func bruteBall(pts *geom.Points, q []float64, r float64) []int {
	var out []int
	r2 := r * r
	for i := 0; i < pts.N(); i++ {
		if geom.Dist2(q, pts.At(i)) <= r2 {
			out = append(out, i)
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := Build(geom.NewPoints(3, 0), nil)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if got := tr.InBall([]float64{0, 0, 0}, 5, nil); len(got) != 0 {
		t.Fatalf("InBall on empty tree = %v", got)
	}
}

func TestSinglePoint(t *testing.T) {
	pts, _ := geom.FromSlice([][]float64{{1, 2}}, 2)
	tr := Build(pts, []int{42})
	got := tr.InBall([]float64{1, 2}, 0.1, nil)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("InBall = %v, want [42]", got)
	}
	if got := tr.InBall([]float64{9, 9}, 0.1, nil); len(got) != 0 {
		t.Fatalf("InBall far = %v, want empty", got)
	}
}

func TestInBallMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 3, 5, 13} {
		pts := randomPoints(rng, 500, dim)
		tr := Build(pts, nil)
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64()*24 - 12
			}
			r := rng.Float64() * 8
			want := bruteBall(pts, q, r)
			got := tr.InBall(q, r, nil)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("dim %d: got %d results, want %d", dim, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim %d: got %v, want %v", dim, got, want)
				}
			}
		}
	}
}

func TestVisitMatchesInBall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 300, 3)
	tr := Build(pts, nil)
	q := []float64{0, 0, 0}
	want := tr.InBall(q, 4, nil)
	var got []int
	tr.Visit(q, 4, func(p int) { got = append(got, p) })
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("Visit found %d, InBall found %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, got, want)
		}
	}
}

func TestPayloadsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 100, 2)
	payload := make([]int, 100)
	for i := range payload {
		payload[i] = i * 7
	}
	tr := Build(pts, payload)
	got := tr.InBall([]float64{0, 0}, 100, nil) // everything
	if len(got) != 100 {
		t.Fatalf("found %d, want 100", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i*7 {
			t.Fatalf("payload %d = %d, want %d", i, v, i*7)
		}
	}
}

// Property: InBall equals brute force on random configurations.
func TestInBallProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(4)
		n := 1 + r.Intn(200)
		pts := randomPoints(r, n, dim)
		tr := Build(pts, nil)
		q := make([]float64, dim)
		for j := range q {
			q[j] = r.Float64()*30 - 15
		}
		rad := r.Float64() * 10
		want := bruteBall(pts, q, rad)
		got := tr.InBall(q, rad, nil)
		sort.Ints(got)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 205, 100)); err != nil {
		t.Fatal(err)
	}
}

// boxGap2 is WithinGap's squared gap between the query box [lo, hi] and
// one item box [ilo, ihi].
func boxGap2(lo, hi, ilo, ihi []float64) float64 {
	var s float64
	for d := range lo {
		if g := lo[d] - ihi[d]; g > 0 {
			s += g * g
		} else if g := ilo[d] - hi[d]; g > 0 {
			s += g * g
		}
	}
	return s
}

// TestBoxTreeMatchesBrute checks WithinGap against a brute-force scan of
// the item boxes: every item within gap r and nothing else, with payloads
// intact. Coordinates lie on a lattice of quarters, so subtractions are
// exact and half the queries sit exactly at gap r from some item, which
// must qualify. Every third item box and every other query box has zero
// extent; the second pass translates everything by 1e6. A reused dst,
// an empty query box and an empty tree are covered too.
func TestBoxTreeMatchesBrute(t *testing.T) {
	empty := BuildBoxes(nil, 3, nil)
	if got := empty.WithinGap([]float64{0, 0, 0}, []float64{1, 1, 1}, 5, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	r := rand.New(rand.NewSource(23))
	lattice := func(off float64) float64 { return off + float64(r.Intn(81)-40)/4 }
	ties := 0
	dst := make([]int, 0, 512)
	for _, dim := range []int{1, 2, 5, 13} {
		for _, off := range []float64{0, 1e6} {
			for trial := 0; trial < 30; trial++ {
				n := 1 + r.Intn(300)
				boxes := make([]float64, 2*dim*n)
				payload := make([]int, n)
				for i := 0; i < n; i++ {
					row := boxes[2*dim*i : 2*dim*(i+1)]
					for d := 0; d < dim; d++ {
						row[d] = lattice(off)
						row[dim+d] = row[d]
						if i%3 != 0 {
							row[dim+d] += float64(r.Intn(9)) / 4
						}
					}
					payload[i] = 7*i + 1
				}
				tr := BuildBoxes(slices.Clone(boxes), dim, payload)
				lo, hi := make([]float64, dim), make([]float64, dim)
				rad := float64(r.Intn(4*dim+1)) / 4
				if trial%2 == 0 {
					// Cover item k everywhere but along one axis, where the
					// query box ends exactly rad below it.
					k, axis := r.Intn(n), r.Intn(dim)
					item := boxes[2*dim*k : 2*dim*(k+1)]
					for d := 0; d < dim; d++ {
						lo[d], hi[d] = item[d]-1, item[dim+d]+1
					}
					hi[axis] = item[axis] - rad
					lo[axis] = hi[axis] - float64(r.Intn(3))
				} else {
					for d := 0; d < dim; d++ {
						lo[d] = lattice(off)
						hi[d] = lo[d]
						if trial%4 == 1 {
							hi[d] += float64(r.Intn(9)) / 4
						}
					}
				}
				var want []int
				for i := 0; i < n; i++ {
					g2 := boxGap2(lo, hi, boxes[2*dim*i:2*dim*i+dim], boxes[2*dim*i+dim:2*dim*(i+1)])
					if g2 <= rad*rad {
						want = append(want, payload[i])
						if rad > 0 && g2 == rad*rad {
							ties++
						}
					}
				}
				got := tr.WithinGap(lo, hi, rad, dst[:0])
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("dim=%d off=%g trial=%d r=%g: got %v, want %v", dim, off, trial, rad, got, want)
				}
				dst = got
				if again := tr.WithinGap(lo, hi, rad, nil); len(again) != len(want) {
					t.Fatalf("dim=%d: fresh dst returned %d items, want %d", dim, len(again), len(want))
				}
				inv := geom.NewBox(dim)
				if got := tr.WithinGap(inv.Min, inv.Max, rad, nil); len(got) != 0 {
					t.Fatalf("dim=%d: empty query box returned %v", dim, got)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no item sat exactly at gap r")
	}
}

// pointBoxTree indexes every point of pts as a zero-extent box, so that
// WithinGap answers the box-ball query: the points within r of a box.
func pointBoxTree(pts *geom.Points) *BoxTree {
	boxes := make([]float64, 0, 2*len(pts.Coords))
	for i := 0; i < pts.N(); i++ {
		boxes = append(append(boxes, pts.At(i)...), pts.At(i)...)
	}
	return BuildBoxes(boxes, pts.Dim, nil)
}

// TestInBallBoxMatchesBrute checks the box-ball query against a brute-force
// scan: every point within r of the box, nothing else.
func TestInBallBoxMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + r.Intn(3)
		pts := randomPoints(r, 50+r.Intn(400), dim)
		tr := pointBoxTree(pts)
		b := geom.NewBox(dim)
		lo, hi := make([]float64, dim), make([]float64, dim)
		for i := 0; i < dim; i++ {
			x, y := r.Float64()*20-10, r.Float64()*20-10
			if x > y {
				x, y = y, x
			}
			lo[i], hi[i] = x, y
		}
		b.Extend(lo)
		b.Extend(hi)
		rad := r.Float64() * 4
		got := tr.WithinGap(b.Min, b.Max, rad, nil)
		var want []int
		for i := 0; i < pts.N(); i++ {
			if b.MinDist2(pts.At(i)) <= rad*rad {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("dim=%d: got %d points, want %d", dim, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("dim=%d: result %d = %d, want %d", dim, i, got[i], want[i])
			}
		}
	}
}

func TestInBallBoxEmptyAndReuse(t *testing.T) {
	tr := pointBoxTree(geom.NewPoints(2, 0))
	b := geom.NewBox(2)
	b.Extend([]float64{0, 0})
	if got := tr.WithinGap(b.Min, b.Max, 1, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	r := rand.New(rand.NewSource(22))
	pts := randomPoints(r, 200, 2)
	tr = pointBoxTree(pts)
	inv := geom.NewBox(2)
	if got := tr.WithinGap(inv.Min, inv.Max, 1, nil); len(got) != 0 {
		t.Fatalf("empty box returned %v", got)
	}
	// dst reuse: a second query must append after truncation, not alias.
	dst := make([]int, 0, 256)
	a := tr.WithinGap(b.Min, b.Max, 3, dst)
	bb := tr.WithinGap(b.Min, b.Max, 3, dst[:0])
	if len(a) != len(bb) {
		t.Fatalf("reused dst changed result: %d vs %d", len(a), len(bb))
	}
}

// bruteNearestInBall applies NearestInBall's contract by exhaustive scan:
// nearest point within r, ties resolved to the smallest payload.
func bruteNearestInBall(pts *geom.Points, q []float64, r float64) (int, float64, bool) {
	best, bestD2, ok := -1, r*r, false
	for i := 0; i < pts.N(); i++ {
		d2 := geom.Dist2(q, pts.At(i))
		if d2 > bestD2 {
			continue
		}
		if !ok || d2 < bestD2 || i < best {
			best, bestD2, ok = i, d2, true
		}
	}
	return best, bestD2, ok
}

func TestNearestInBallMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, dim := range []int{1, 2, 3, 7} {
		pts := randomPoints(rng, 400, dim)
		tr := Build(pts, nil)
		for trial := 0; trial < 200; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64()*24 - 12
			}
			r := rng.Float64() * 6
			wantIdx, wantD2, wantOK := bruteNearestInBall(pts, q, r)
			gotIdx, gotD2, gotOK := tr.NearestInBall(q, r)
			if gotOK != wantOK {
				t.Fatalf("dim %d: ok = %v, want %v", dim, gotOK, wantOK)
			}
			if wantOK && (gotIdx != wantIdx || gotD2 != wantD2) {
				t.Fatalf("dim %d: nearest = (%d, %g), want (%d, %g)", dim, gotIdx, gotD2, wantIdx, wantD2)
			}
		}
	}
}

func TestNearestInBallTieBreak(t *testing.T) {
	// Four coincident pairs: equal distances must resolve to the smallest
	// payload regardless of build order.
	pts, _ := geom.FromSlice([][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}}, 2)
	tr := Build(pts, nil)
	idx, d2, ok := tr.NearestInBall([]float64{0, 0}, 2)
	if !ok || idx != 0 || d2 != 1 {
		t.Fatalf("NearestInBall = (%d, %g, %v), want (0, 1, true)", idx, d2, ok)
	}
	if _, _, ok := tr.NearestInBall([]float64{9, 9}, 1); ok {
		t.Fatal("NearestInBall matched outside the ball")
	}
	empty := Build(geom.NewPoints(2, 0), nil)
	if _, _, ok := empty.NearestInBall([]float64{0, 0}, 1); ok {
		t.Fatal("NearestInBall matched on an empty tree")
	}
}

// buildIndirect is Build as it was before construction moved rows along
// with the permutation: it reads every row through order. It is kept as
// the reference TestBuildMatchesIndirect holds Build to, byte for byte.
func buildIndirect(pts *geom.Points, payload []int) *Tree {
	n := pts.N()
	t := &Tree{dim: pts.Dim}
	if n == 0 {
		return t
	}
	dim := t.dim
	src := pts.Coords
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
		for d := 0; d < dim; d++ {
			bb[d] = src[order[lo]*dim+d]
			bb[dim+d] = bb[d]
		}
		for _, idx := range order[lo+1 : hi] {
			p := src[idx*dim : (idx+1)*dim]
			for d, v := range p {
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
		selectNthIndirect(src, dim, order[lo:hi], (hi-lo)/2, axis)
		mid := lo + (hi-lo)/2
		t.nodes = append(t.nodes, node{
			left:  int32(len(queue)),
			axis:  int32(axis),
			split: src[order[mid]*dim+axis],
		})
		queue = append(queue, seg{lo, mid}, seg{mid, hi})
	}
	// Materialise points in tree order, transposing each leaf to SoA.
	t.coords = make([]float64, n*dim)
	t.items = make([]int, n)
	for ni := range t.nodes {
		nd := &t.nodes[ni]
		if nd.count == 0 {
			continue
		}
		s, c := int(nd.start), int(nd.count)
		base := s * dim
		for j := 0; j < c; j++ {
			orig := order[s+j]
			if payload != nil {
				t.items[s+j] = payload[orig]
			} else {
				t.items[s+j] = orig
			}
			for d := 0; d < dim; d++ {
				t.coords[base+d*c+j] = src[orig*dim+d]
			}
		}
	}
	return t
}

// selectNthIndirect is selectNth over a permutation of src: seg[n] ends
// up holding the index of the element of rank n by the given axis.
func selectNthIndirect(src []float64, dim int, seg []int, n, axis int) {
	lo, hi := 0, len(seg)-1
	val := func(i int) float64 { return src[seg[i]*dim+axis] }
	for lo < hi {
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if val(mid) < val(lo) {
			seg[mid], seg[lo] = seg[lo], seg[mid]
		}
		if val(hi) < val(lo) {
			seg[hi], seg[lo] = seg[lo], seg[hi]
		}
		if val(hi) < val(mid) {
			seg[hi], seg[mid] = seg[mid], seg[hi]
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
				seg[i], seg[j] = seg[j], seg[i]
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

// TestBuildMatchesIndirect pins the row-contiguous construction to the
// permutation-indirect one: the same median selections, so the same nodes,
// bounds, coordinate slab and payloads, bit for bit. Integer-valued inputs
// make ties on the split axis common, which exercises the swap order.
func TestBuildMatchesIndirect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3, 5, 13} {
		for _, n := range []int{1, leafSize, leafSize + 1, 1000, 5003} {
			for _, ties := range []bool{false, true} {
				pts := randomPoints(r, n, dim)
				if ties {
					for i := range pts.Coords {
						pts.Coords[i] = float64(int(pts.Coords[i]))
					}
				}
				var payload []int
				if n%2 == 1 {
					payload = make([]int, n)
					for i := range payload {
						payload[i] = 3*i + 1
					}
				}
				got, want := Build(pts, payload), buildIndirect(pts, payload)
				if got.dim != want.dim || !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.bounds, want.bounds) ||
					!slices.Equal(got.coords, want.coords) || !slices.Equal(got.items, want.items) {
					t.Fatalf("dim=%d n=%d ties=%v: tree differs from the indirect build", dim, n, ties)
				}
			}
		}
	}
}
