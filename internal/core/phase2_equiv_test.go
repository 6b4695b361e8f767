package core

// Property-style equivalence of the Phase II hot path: the blocked
// cell-batched kernels (the production path; the candidate index is the
// stencil for d <= 4 and the kd-tree above) against the per-point oracle
// (DisableBatching), over skewed and uniform data from 1 to 13 dimensions.
// Batching is a pure evaluation-order change, so Labels, CorePoint, every
// partition's core-point lists and every partition's cell subgraph must be
// byte-identical — not merely a Rand index of 1.

import (
	"bytes"
	"fmt"
	"testing"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/geom"
)

func assertSameClustering(t *testing.T, name string, base, got *Result) {
	t.Helper()
	if len(base.Labels) != len(got.Labels) {
		t.Fatalf("%s: label length %d != %d", name, len(got.Labels), len(base.Labels))
	}
	for i := range base.Labels {
		if base.Labels[i] != got.Labels[i] {
			t.Fatalf("%s: Labels[%d] = %d, want %d", name, i, got.Labels[i], base.Labels[i])
		}
		if base.CorePoint[i] != got.CorePoint[i] {
			t.Fatalf("%s: CorePoint[%d] = %v, want %v", name, i, got.CorePoint[i], base.CorePoint[i])
		}
	}
	if base.NumClusters != got.NumClusters {
		t.Fatalf("%s: NumClusters = %d, want %d", name, got.NumClusters, base.NumClusters)
	}
}

// phase2Outputs replays f's Phase II under cfg and returns every
// partition's encoded Phase II result: cell ids, core flags, core-point
// lists, and the cell subgraph in canonical encoding (vertex types and the
// sorted edge lists).
func (f *phase2Fixture) phase2Outputs(cfg Config) [][]byte {
	out := make([][]byte, len(f.parts))
	for t, st := range f.parts {
		phase2Task(f.pts, cfg, st, f.d, f.numCells)
		out[t] = encodePhase2Result(st)
	}
	return out
}

func TestPhase2BatchingEquivalence(t *testing.T) {
	far := datagen.Mixture(datagen.MixtureConfig{
		N: 3000, Dim: 3, Components: 6, Span: 40, Alpha: 2, NoiseFrac: 0.3,
	}, 24)
	for i := range far.Coords {
		far.Coords[i] += 1e6 * 2.5 // about 1e6*eps from the origin
	}
	datasets := []struct {
		name string
		pts  *geom.Points
		eps  float64
	}{
		{"skewed", datagen.Mixture(datagen.MixtureConfig{
			N: 4000, Dim: 2, Components: 10, Span: 100, Alpha: 3,
		}, 21), 5.0},
		{"uniform", datagen.Mixture(datagen.MixtureConfig{
			N: 4000, Dim: 2, Components: 1, Span: 60, NoiseFrac: 1,
		}, 22), 3.0},
		{"skewed3d", datagen.Mixture(datagen.MixtureConfig{
			N: 3000, Dim: 3, Components: 6, Span: 40, Alpha: 2,
		}, 23), 2.5},
		{"translated3d", far, 2.5},
		{"skewed1d", datagen.Mixture(datagen.MixtureConfig{
			N: 3000, Dim: 1, Components: 6, Span: 400, Alpha: 2, NoiseFrac: 0.3,
		}, 25), 0.1},
		{"skewed4d", datagen.Mixture(datagen.MixtureConfig{
			N: 2000, Dim: 4, Components: 6, Span: 30, Alpha: 2, NoiseFrac: 0.3,
		}, 26), 1.5},
		{"skewed5d", datagen.Mixture(datagen.MixtureConfig{
			N: 2000, Dim: 5, Components: 6, Span: 30, Alpha: 2, NoiseFrac: 0.3,
		}, 27), 2.0},
		{"skewed13d", datagen.Mixture(datagen.MixtureConfig{
			N: 800, Dim: 13, Components: 4, Span: 30, Alpha: 2, NoiseFrac: 0.3,
		}, 28), 4.0},
	}
	for _, ds := range datasets {
		for _, k := range []int{1, 7} {
			for _, maxCells := range []int{0, 32} {
				cfg := Config{
					Eps: ds.eps, MinPts: 15, Rho: 0.01,
					NumPartitions: k, MaxCellsPerSubDict: maxCells,
				}
				oracle := cfg
				oracle.DisableBatching = true
				base := run(t, ds.pts, oracle)
				if base.NumClusters == 0 {
					t.Fatalf("%s: no clusters; the dataset exercises nothing", ds.name)
				}
				name := fmt.Sprintf("%s/k=%d/maxCells=%d", ds.name, k, maxCells)
				assertSameClustering(t, name, base, run(t, ds.pts, cfg))
				f := newPhase2FixtureFor(t, ds.pts, cfg)
				want := f.phase2Outputs(oracle)
				for part, got := range f.phase2Outputs(cfg) {
					if !bytes.Equal(got, want[part]) {
						t.Fatalf("%s: partition %d Phase II result differs from the per-point oracle", name, part)
					}
				}
			}
		}
	}
}
