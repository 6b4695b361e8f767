package core

// BenchmarkPhaseII times cell-graph construction only (Algorithm 3):
// partitioning and the dictionary are built once in setup, and each
// iteration replays every partition's phase2Task. The blocked/per-point
// pair quantifies the production kernel's speedup over the oracle on the
// skewed synthetic workload; cmd/rpbench's phase2 experiment reports the
// same contrast from the engine's stage accounting, and CI compares the
// blocked mode's ns/op against the checked-in BENCH_baseline.json.

import (
	"sort"
	"testing"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/dict"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"
)

type phase2Fixture struct {
	pts      *geom.Points
	cfg      Config
	parts    []*partState
	d        *dict.Dictionary
	numCells int
}

// newPhase2Fixture replays Phase I serially on the skewed 2-d mixture.
func newPhase2Fixture(b *testing.B, n, k int) *phase2Fixture {
	b.Helper()
	pts := datagen.Mixture(datagen.MixtureConfig{
		N: n, Dim: 2, Components: 10, Span: 100, Alpha: 3,
	}, 1)
	return newPhase2FixtureFor(b, pts, Config{Eps: 5.0, MinPts: 20, Rho: 0.01, NumPartitions: k})
}

// newPhase2FixtureFor replays Phase I serially over pts: cell assignment,
// pseudo random partitioning into cfg.NumPartitions parts, and one shared
// decoded dictionary.
func newPhase2FixtureFor(b testing.TB, pts *geom.Points, cfg Config) *phase2Fixture {
	b.Helper()
	k := cfg.NumPartitions
	side := grid.Side(cfg.Eps, pts.Dim)
	params := dict.Params{Eps: cfg.Eps, Rho: cfg.Rho, Dim: pts.Dim}
	byKey := make(map[grid.Key][]int)
	for i := 0; i < pts.N(); i++ {
		key := grid.KeyFor(pts.At(i), side)
		byKey[key] = append(byKey[key], i)
	}
	perPart := make([][]grid.Key, k)
	for key := range byKey {
		p := partitionOf(key, cfg.Seed, k)
		perPart[p] = append(perPart[p], key)
	}
	parts := make([]*partState, k)
	var entries []dict.CellEntry
	for t, keys := range perPart {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		st := &partState{cells: make([]*grid.Cell, 0, len(keys))}
		for _, key := range keys {
			c := &grid.Cell{Key: key, Points: byKey[key]}
			st.cells = append(st.cells, c)
			entries = append(entries, dict.BuildEntry(c, pts, params))
		}
		parts[t] = st
	}
	d, err := dict.Decode(dict.EncodeEntries(entries, params), cfg.MaxCellsPerSubDict)
	if err != nil {
		b.Fatal(err)
	}
	return &phase2Fixture{
		pts: pts, cfg: cfg, parts: parts, d: d, numCells: len(entries),
	}
}

func (f *phase2Fixture) run(perPoint bool) {
	cfg := f.cfg
	cfg.DisableBatching = perPoint
	for _, st := range f.parts {
		phase2Task(f.pts, cfg, st, f.d, f.numCells)
	}
}

func BenchmarkPhaseII(b *testing.B) {
	f := newPhase2Fixture(b, 20000, 40)
	for _, mode := range []struct {
		name     string
		perPoint bool
	}{
		{name: "blocked"},
		{name: "per-point", perPoint: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.run(mode.perPoint)
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N*f.pts.N())/sec, "points/sec")
			}
		})
	}
	// geolife is the candidate-and-edge half the 2-d fixture barely
	// touches: a 3-d GeoLife-like fixture at eps=4 where the dictionary
	// stops compressing (about one point per sub-cell), so candidate
	// collection and neighbor-edge construction dominate over core
	// counting. It runs the default blocked path on two partitions, the
	// shape of a two-worker fit.
	b.Run("geolife", func(b *testing.B) {
		g := newPhase2FixtureFor(b, datagen.SimGeoLife(200_000, 1).Points,
			Config{Eps: 4, MinPts: 20, Rho: 0.01, NumPartitions: 2})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.run(false)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.pts.N()), "ns/point")
	})
	// teraclick is the d > 4 path the stencil bypasses: a 13-d
	// TeraClick-like fixture at eps=6, where about one point lands in each
	// sub-cell and candidates come from the dictionary's hull trees.
	b.Run("teraclick", func(b *testing.B) {
		tc := newPhase2FixtureFor(b, datagen.SimTeraClick(20_000, 1).Points,
			Config{Eps: 6, MinPts: 20, Rho: 0.01, NumPartitions: 2})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tc.run(false)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.pts.N()), "ns/point")
	})
}
