package dict

// Micro-benchmarks for the Phase II region-count hot path: one full
// (eps,rho)-region-count pass over a skewed data set, the per-point oracle
// Query vs per-cell QueryCell + the blocked CountPoints kernel. Both do
// identical logical work, so the ratio is the production kernel's speedup
// in isolation (no graph building, no engine). BenchmarkPhaseII in
// internal/core covers the full stage.

import (
	"math/rand"
	"testing"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
)

func batchBenchData(b *testing.B) (*geom.Points, *Dictionary, *grid.Grid) {
	b.Helper()
	r := rand.New(rand.NewSource(7))
	pts := skewedPoints(r, 30000, 2, 200)
	d := buildDict(pts, 4.0, 0.03, 0)
	g := grid.Build(pts, 4.0)
	return pts, d, g
}

func BenchmarkQueryPoint(b *testing.B) {
	pts, d, g := batchBenchData(b)
	q := NewQuerier(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range g.Cells {
			for _, pi := range cell.Points {
				q.Count(pts.At(pi))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pts.N()), "ns/point")
}

// BenchmarkQueryCell measures the blocked kernel: one Gather per cell,
// then CountPoints answers every point of the cell against each
// candidate's hull and centre lanes in dense per-dimension loops.
func BenchmarkQueryCell(b *testing.B) {
	benchCountPoints(b, 0)
}

// BenchmarkQueryCellEarlyExit measures the MinPts early exit available to
// core marking (Algorithm 3): the scan stops once the count is decided.
func BenchmarkQueryCellEarlyExit(b *testing.B) {
	benchCountPoints(b, 20)
}

func benchCountPoints(b *testing.B, stopAt int64) {
	pts, d, g := batchBenchData(b)
	q := NewQuerier(d)
	var blk geom.Block
	counts := make([]int64, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range g.Cells {
			blk.Gather(pts, cell.Points)
			batch := q.QueryCell(cell.Key, &blk)
			counts = counts[:len(cell.Points)]
			batch.CountPoints(stopAt, counts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pts.N()), "ns/point")
}

// TestQueryCellAllocFree pins the steady-state zero-allocation contract of
// the Phase II hot path on both candidate paths (the 2-d stencil and the
// 13-d hull tree): after one warm-up pass over all cells, QueryCell,
// CountPoints and AppendNeighborsBlock allocate nothing.
func TestQueryCellAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		pts *geom.Points
		eps float64
	}{
		{skewedPoints(r, 5000, 2, 80), 4},
		{chainPoints(r, 20, 50, 13, 3, 0.08), 3},
	} {
		pts := tc.pts
		d := buildDict(pts, tc.eps, 0.03, 0)
		g := grid.Build(pts, tc.eps)
		q := NewQuerier(d)
		var blk geom.Block
		counts := make([]int64, 0, 4096)
		sel := make([]bool, 0, 4096)
		dst := make([]int32, 0, 4096)
		pass := func() {
			for _, cell := range g.Cells {
				blk.Gather(pts, cell.Points)
				batch := q.QueryCell(cell.Key, &blk)
				counts = counts[:len(cell.Points)]
				sel = sel[:len(cell.Points)]
				for i := range sel {
					sel[i] = true
				}
				batch.CountPoints(0, counts)
				dst = batch.AppendNeighborsBlock(sel, dst[:0])
			}
		}
		pass() // warm up scratch to steady-state capacity
		if n := testing.AllocsPerRun(5, pass); n != 0 {
			t.Fatalf("dim=%d: batched query pass allocates %v per run", pts.Dim, n)
		}
	}
}
