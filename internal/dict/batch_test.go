package dict

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
)

// skewedPoints mixes a dense clump with a uniform background so cells span
// the full range from crowded to singleton.
func skewedPoints(r *rand.Rand, n, dim int, span float64) *geom.Points {
	p := geom.NewPoints(dim, n)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		if i%4 == 0 { // uniform background
			for j := range row {
				row[j] = r.Float64() * span
			}
		} else { // dense clump near the origin corner
			for j := range row {
				row[j] = r.NormFloat64() * span / 40
			}
		}
		p.Append(row)
	}
	return p
}

// checkBatchMatchesQuery runs every cell of the data set through QueryCell
// and asserts, point by point, that counts and neighbor-cell sets match
// the per-point oracle Query exactly.
func checkBatchMatchesQuery(t *testing.T, pts *geom.Points, eps, rho float64, maxCells int, disableIndex bool) {
	t.Helper()
	d := buildDict(pts, eps, rho, maxCells)
	oracle := NewQuerier(d)
	batched := NewQuerier(d)
	batched.DisableIndex = disableIndex
	g := grid.Build(pts, eps)
	var blk geom.Block
	for _, cell := range g.Cells {
		b := batched.QueryCell(cell.Key)
		// Blocked kernels against the scalar per-point path: exact counts
		// (bit-identical residual arithmetic), exact early-exit values, and
		// the neighbor-id union over an arbitrary selection.
		blk.Gather(pts, cell.Points)
		n := len(cell.Points)
		counts := make([]int64, n)
		b.CountPoints(&blk, 0, counts)
		for i, pi := range cell.Points {
			if want := b.CountPoint(pts.At(pi), 0); counts[i] != want {
				t.Fatalf("maxCells=%d: CountPoints[%d]=%d, CountPoint=%d", maxCells, i, counts[i], want)
			}
		}
		for _, stop := range []int64{1, 7, 1 << 40} {
			b.CountPoints(&blk, stop, counts)
			for i, pi := range cell.Points {
				if want := b.CountPoint(pts.At(pi), stop); counts[i] != want {
					t.Fatalf("maxCells=%d stop=%d: CountPoints[%d]=%d, CountPoint=%d",
						maxCells, stop, i, counts[i], want)
				}
			}
		}
		sel := make([]bool, n)
		union := map[int32]bool{}
		for i, pi := range cell.Points {
			sel[i] = i%2 == 0 || i == n-1
			if sel[i] {
				for _, id := range b.AppendNeighbors(pts.At(pi), nil) {
					union[id] = true
				}
			}
		}
		gotUnion := map[int32]bool{}
		for _, id := range b.AppendNeighborsBlock(&blk, sel, nil) {
			if gotUnion[id] {
				t.Fatalf("maxCells=%d: AppendNeighborsBlock repeats id %d", maxCells, id)
			}
			gotUnion[id] = true
		}
		if len(gotUnion) != len(union) {
			t.Fatalf("maxCells=%d: blocked neighbor union %v != %v", maxCells, gotUnion, union)
		}
		for id := range union {
			if !gotUnion[id] {
				t.Fatalf("maxCells=%d: blocked neighbor union missing %d", maxCells, id)
			}
		}
		for _, pi := range cell.Points {
			p := pts.At(pi)
			wantCount, wantCells := oracle.Query(p, true, nil)
			if got := b.CountPoint(p, 0); got != wantCount {
				t.Fatalf("maxCells=%d idx=%v: CountPoint=%d, Query=%d", maxCells, !disableIndex, got, wantCount)
			}
			gotCells := append([]int32(nil), b.InsideCells()...)
			gotCells = b.AppendNeighbors(p, gotCells)
			sortIDs := func(s []int32) {
				sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			}
			sortIDs(gotCells)
			sortIDs(wantCells)
			if len(gotCells) != len(wantCells) {
				t.Fatalf("maxCells=%d: neighbor cells %v != %v", maxCells, gotCells, wantCells)
			}
			for i := range gotCells {
				if gotCells[i] != wantCells[i] {
					t.Fatalf("maxCells=%d: neighbor cells %v != %v", maxCells, gotCells, wantCells)
				}
			}
			// Early exit must agree with the full count on the core
			// decision at a few thresholds around the count.
			for _, stop := range []int64{1, wantCount, wantCount + 1} {
				if stop <= 0 {
					continue
				}
				got := b.CountPoint(p, stop)
				if (got >= stop) != (wantCount >= stop) {
					t.Fatalf("early exit at %d flips core decision: %d vs %d", stop, got, wantCount)
				}
			}
		}
	}
}

func TestQueryCellMatchesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		dim      int
		rho      float64
		maxCells int
	}{
		{2, 0.1, 0}, {2, 0.01, 8}, {3, 0.05, 16}, {5, 0.25, 4},
	} {
		uniform := randomPoints(r, 500, tc.dim, 8)
		checkBatchMatchesQuery(t, uniform, 1.2, tc.rho, tc.maxCells, false)
		// Coordinates on a coarse lattice tie along every axis, so the
		// axis-sorted point order of AppendNeighborsBlock has equal keys.
		lattice := randomPoints(r, 500, tc.dim, 8)
		for i, x := range lattice.Coords {
			lattice.Coords[i] = math.Round(x*4) / 4
		}
		checkBatchMatchesQuery(t, lattice, 1.2, tc.rho, tc.maxCells, false)
		skewed := skewedPoints(r, 500, tc.dim, 8)
		checkBatchMatchesQuery(t, skewed, 1.2, tc.rho, tc.maxCells, false)
		checkBatchMatchesQuery(t, skewed, 1.2, tc.rho, tc.maxCells, true)
	}
}

// TestQueryCellStraddlesSubDicts pins the case where a query cell's
// eps-region spans several sub-dictionary MBRs: tiny sub-dictionaries force
// every batch to cross MBR boundaries.
func TestQueryCellStraddlesSubDicts(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	pts := skewedPoints(r, 1200, 2, 30)
	d := buildDict(pts, 1.5, 0.05, 2) // 2 cells per sub-dictionary
	if len(d.Subs) < 8 {
		t.Fatalf("want many sub-dictionaries, got %d", len(d.Subs))
	}
	checkBatchMatchesQuery(t, pts, 1.5, 0.05, 2, false)
}

// TestQueryCellInsideClassification checks that a dense clump actually
// produces fully-inside candidates (the batch's cell-level hoisting), not
// just boundary ones — otherwise the fast path is dead code.
func TestQueryCellInsideClassification(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	// Large eps vs span: many whole cells sit deep inside the eps-ball.
	pts := randomPoints(r, 2000, 2, 4)
	d := buildDict(pts, 3.0, 0.05, 0)
	q := NewQuerier(d)
	g := grid.Build(pts, 3.0)
	sawInside := false
	for _, cell := range g.Cells {
		b := q.QueryCell(cell.Key)
		if len(b.InsideCells()) > 0 {
			sawInside = true
		}
		if b.InsideCount() < 0 {
			t.Fatal("negative inside count")
		}
	}
	if !sawInside {
		t.Fatal("no cell produced a fully-inside candidate")
	}
}

// FuzzQueryCellEquivalence fuzzes the batched path against the per-point
// oracle over generated data: per-point counts, and per cell the neighbor
// cells of its points — AppendNeighborsBlock over every point unioned with
// InsideCells — against the union of the oracle's Query cells. Dimensions
// 1-4 take the stencil path, 5 the kd-tree; every fourth seed translates
// the data by about 1e6*eps, far from the origin. Seeds include a
// defragmentation bound of 2, which makes every query cell straddle
// sub-dictionary MBRs.
func FuzzQueryCellEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), false)
	f.Add(int64(7), uint8(3), uint8(2), false) // straddling sub-dict MBRs
	f.Add(int64(9), uint8(2), uint8(8), true)
	f.Add(int64(3), uint8(1), uint8(0), true)  // translated, 2-d
	f.Add(int64(11), uint8(4), uint8(0), true) // translated, 5-d
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, maxCells uint8, skew bool) {
		d := 1 + int(dim)%5
		r := rand.New(rand.NewSource(seed))
		var pts *geom.Points
		if skew {
			pts = skewedPoints(r, 300, d, 6)
		} else {
			pts = randomPoints(r, 300, d, 6)
		}
		eps := 0.8 + float64((seed%5+5)%5)/5
		if uint64(seed)%4 == 3 {
			translate(pts, 1e6*eps)
		}
		rho := []float64{0.25, 0.1, 0.05}[int(uint64(seed)%3)]
		mc := int(maxCells)
		dict := buildDict(pts, eps, rho, mc)
		oracle := NewQuerier(dict)
		batched := NewQuerier(dict)
		g := grid.Build(pts, eps)
		var blk geom.Block
		for _, cell := range g.Cells {
			b := batched.QueryCell(cell.Key)
			want := map[int32]bool{}
			for _, pi := range cell.Points {
				p := pts.At(pi)
				count, cells := oracle.Query(p, true, nil)
				if got := b.CountPoint(p, 0); got != count {
					t.Fatalf("seed=%d dim=%d maxCells=%d: CountPoint=%d, Query=%d",
						seed, d, mc, got, count)
				}
				for _, id := range cells {
					want[id] = true
				}
			}
			blk.Gather(pts, cell.Points)
			sel := make([]bool, len(cell.Points))
			for i := range sel {
				sel[i] = true
			}
			got := map[int32]bool{}
			for _, id := range b.AppendNeighborsBlock(&blk, sel, append([]int32(nil), b.InsideCells()...)) {
				got[id] = true
			}
			if !maps.Equal(got, want) {
				t.Fatalf("seed=%d dim=%d maxCells=%d: neighbor cells %v, oracle %v",
					seed, d, mc, sortedIDs(got), sortedIDs(want))
			}
		}
	})
}

// translate shifts every coordinate of pts by off.
func translate(pts *geom.Points, off float64) {
	for i := range pts.Coords {
		pts.Coords[i] += off
	}
}

func sortedIDs(set map[int32]bool) []int32 {
	ids := make([]int32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
