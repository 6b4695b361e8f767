package dict

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
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
// and checks the blocked kernels against the per-point oracle Query (see
// checkCellMatchesQuery).
func checkBatchMatchesQuery(t *testing.T, pts *geom.Points, eps, rho float64, maxCells int) {
	t.Helper()
	d := buildDict(pts, eps, rho, maxCells)
	oracle := NewQuerier(d)
	batched := NewQuerier(d)
	var blk geom.Block
	for _, cell := range grid.Build(pts, eps).Cells {
		checkCellMatchesQuery(t, fmt.Sprintf("maxCells=%d", maxCells), oracle, batched, cell, pts, &blk)
	}
}

// checkCellMatchesQuery gathers cell into blk, runs it through QueryCell
// and checks the batch against the per-point oracle over the cell's
// points: CountPoints at stopAt=0 gives every
// point's exact count; at any stopAt > 0 it gives the exact count of every
// point below stopAt and a count in [stopAt, exact] otherwise, so the core
// decision never changes; and for several point selections (alternate
// points, all, the first, the last) AppendNeighborsBlock, which never
// repeats an id, unioned with InsideCells is exactly the union of the
// oracle's neighbor cells.
func checkCellMatchesQuery(t *testing.T, tag string, oracle, batched *Querier, cell *grid.Cell, pts *geom.Points, blk *geom.Block) {
	t.Helper()
	points := cell.Points
	n := len(points)
	want := make([]int64, n)
	wantCells := make([][]int32, n)
	for i, pi := range points {
		want[i], wantCells[i] = oracle.Query(pts.At(pi), true, nil)
	}
	blk.Gather(pts, points)
	b := batched.QueryCell(cell.Key, blk)
	counts := make([]int64, n)
	b.CountPoints(0, counts)
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("%s: CountPoints[%d]=%d, Query=%d", tag, i, counts[i], want[i])
		}
	}
	stops := []int64{1, 7, 1 << 40, want[0], want[0] + 1, want[n-1], want[n-1] + 1}
	for _, stop := range stops {
		if stop <= 0 {
			continue
		}
		b.CountPoints(stop, counts)
		for i, got := range counts {
			if want[i] < stop && got != want[i] || want[i] >= stop && (got < stop || got > want[i]) {
				t.Fatalf("%s stop=%d: CountPoints[%d]=%d, Query=%d", tag, stop, i, got, want[i])
			}
		}
	}
	sel := make([]bool, n)
	for _, pick := range []func(i int) bool{
		func(i int) bool { return i%2 == 0 || i == n-1 },
		func(int) bool { return true },
		func(i int) bool { return i == 0 },
		func(i int) bool { return i == n-1 },
	} {
		wantUnion := map[int32]bool{}
		for i := range sel {
			sel[i] = pick(i)
			if sel[i] {
				for _, id := range wantCells[i] {
					wantUnion[id] = true
				}
			}
		}
		got := map[int32]bool{}
		for _, id := range b.AppendNeighborsBlock(sel, nil) {
			if got[id] {
				t.Fatalf("%s: AppendNeighborsBlock repeats id %d", tag, id)
			}
			got[id] = true
		}
		for _, id := range b.InsideCells() {
			got[id] = true
		}
		if !maps.Equal(got, wantUnion) {
			t.Fatalf("%s: neighbor cells %v, oracle %v", tag, sortedIDs(got), sortedIDs(wantUnion))
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
		checkBatchMatchesQuery(t, uniform, 1.2, tc.rho, tc.maxCells)
		// Coordinates on a coarse lattice tie along every axis, so the
		// axis-sorted point order of AppendNeighborsBlock has equal keys.
		lattice := randomPoints(r, 500, tc.dim, 8)
		for i, x := range lattice.Coords {
			lattice.Coords[i] = math.Round(x*4) / 4
		}
		checkBatchMatchesQuery(t, lattice, 1.2, tc.rho, tc.maxCells)
		skewed := skewedPoints(r, 500, tc.dim, 8)
		checkBatchMatchesQuery(t, skewed, 1.2, tc.rho, tc.maxCells)
	}
	// The high-dimensional hull-tree path, and cells whose sub-centre
	// hulls span the whole cell, at the origin and far from it.
	for _, shift := range []float64{0, 1e6} {
		for _, maxCells := range []int{0, 16} {
			chain := chainPoints(r, 20, 20, 13, 3, 0.08)
			translate(chain, shift*3)
			checkBatchMatchesQuery(t, chain, 3, 0.1, maxCells)
			for _, dim := range []int{2, 5} {
				full := fullHullPoints(r, 60, dim, 1.2, 0.25, shift*1.2)
				checkBatchMatchesQuery(t, full, 1.2, 0.25, maxCells)
			}
		}
	}
}

// chainPoints returns tight Gaussian clumps (per-dimension deviation sd)
// strung along a random direction at 0.6-1.1 eps apart, so neighboring
// clumps straddle eps of each other: in high dimension a uniform set puts
// one point in every cell and settles every candidate at the cell pair.
func chainPoints(r *rand.Rand, clumps, per, dim int, eps, sd float64) *geom.Points {
	u := make([]float64, dim)
	var norm float64
	for i := range u {
		u[i] = r.NormFloat64()
		norm += u[i] * u[i]
	}
	for i := range u {
		u[i] /= math.Sqrt(norm)
	}
	p := geom.NewPoints(dim, clumps*per)
	row := make([]float64, dim)
	at := 0.0
	for c := 0; c < clumps; c++ {
		at += eps * (0.6 + 0.5*r.Float64())
		for k := 0; k < per; k++ {
			for i := range row {
				row[i] = at*u[i] + r.NormFloat64()*sd
			}
			p.Append(row)
		}
	}
	return p
}

// fullHullPoints returns random points in cells whose sub-centre hulls
// span the whole cell: every cell that receives a random point also gets
// one point just inside its minimum corner and one just inside its
// maximum corner, in the corner sub-cells of the sub-cell grid for rho.
// The cells lie a whole number of cells from about off.
func fullHullPoints(r *rand.Rand, cells, dim int, eps, rho, off float64) *geom.Points {
	side := grid.Side(eps, dim)
	base := math.Round(off / side)
	inset := side / float64(int64(1)<<grid.SubShift(rho)) / 4
	p := geom.NewPoints(dim, 3*cells)
	row := make([]float64, dim)
	key := make([]float64, dim)
	for c := 0; c < cells; c++ {
		for j := range key {
			key[j] = base + float64(r.Intn(6))
		}
		for _, at := range []func(j int) float64{
			func(j int) float64 { return (key[j] + r.Float64()) * side },
			func(j int) float64 { return key[j]*side + inset },
			func(j int) float64 { return (key[j]+1)*side - inset },
		} {
			for j := range row {
				row[j] = at(j)
			}
			p.Append(row)
		}
	}
	return p
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
	checkBatchMatchesQuery(t, pts, 1.5, 0.05, 2)
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
	var blk geom.Block
	for _, cell := range g.Cells {
		blk.Gather(pts, cell.Points)
		b := q.QueryCell(cell.Key, &blk)
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

// FuzzQueryCellEquivalence fuzzes the blocked kernels against the
// per-point oracle over generated data, cell by cell, with the checks of
// checkCellMatchesQuery: exact counts, core decisions at every early-exit
// threshold, and neighbor-cell unions. Dimensions 1-4 take the stencil
// path, 5 the hull tree; every fourth seed translates the data by about
// 1e6*eps, far from the origin. Seeds include a defragmentation bound of
// 2, which makes every query cell straddle sub-dictionary MBRs.
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
		tag := fmt.Sprintf("seed=%d dim=%d maxCells=%d", seed, d, mc)
		var blk geom.Block
		for _, cell := range grid.Build(pts, eps).Cells {
			checkCellMatchesQuery(t, tag, oracle, batched, cell, pts, &blk)
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
