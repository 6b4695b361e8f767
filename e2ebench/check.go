package main

import (
	"fmt"
	"math"
	"math/rand"

	"rpdbscan/internal/serve"
)

// epsGrid buckets points by the integer grid of side `side` over their
// first min(dim, 3) coordinates. Two points within distance side of each
// other fall in adjacent cells of that projection, so a neighbourhood
// query scans at most 27 cells and then filters by the full distance.
type epsGrid struct {
	coords []float64
	dim    int
	pd     int // projected dimensions
	side   float64
	cells  map[[3]int64][]int32
}

func newEpsGrid(coords []float64, dim int, side float64) *epsGrid {
	g := &epsGrid{coords: coords, dim: dim, pd: min(dim, 3), side: side, cells: make(map[[3]int64][]int32)}
	n := len(coords) / dim
	for i := 0; i < n; i++ {
		k := g.key(coords[i*dim : (i+1)*dim])
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

func (g *epsGrid) key(p []float64) [3]int64 {
	var k [3]int64
	for j := 0; j < g.pd; j++ {
		k[j] = int64(math.Floor(p[j] / g.side))
	}
	return k
}

// within calls fn for every point whose distance to p is at most r
// (r <= side).
func (g *epsGrid) within(p []float64, r float64, fn func(j int)) {
	c := g.key(p)
	r2 := r * r
	var off [3]int64
	var rec func(d int)
	rec = func(d int) {
		if d == g.pd {
			var k [3]int64
			for j := 0; j < g.pd; j++ {
				k[j] = c[j] + off[j]
			}
			for _, j := range g.cells[k] {
				q := g.coords[int(j)*g.dim : (int(j)+1)*g.dim]
				var s float64
				for x := range q {
					t := q[x] - p[x]
					s += t * t
				}
				if s <= r2 {
					fn(int(j))
				}
			}
			return
		}
		for o := int64(-1); o <= 1; o++ {
			off[d] = o
			rec(d + 1)
		}
	}
	rec(0)
}

// fitCheck is the inputs of the rho-approximate region-query contract
// check (Definition 5.1) on one fit.
type fitCheck struct {
	coords []float64
	dim    int
	eps    float64
	minPts int
	rho    float64
	labels []int
	core   []bool
}

// checkFit verifies on a seeded sample of points what the (eps, rho)
// region query guarantees: its count lies between the number of points
// within (1-rho/2)eps and within (1+rho/2)eps of the query, the point
// itself included. So a point with at least minPts points within
// (1-rho/2)eps is core; a core point has at least minPts points within
// (1+rho/2)eps, and is not noise; and two core points within (1-rho/2)eps
// share a label. It returns the first violation.
func checkFit(fc fitCheck, sample int, seed int64) error {
	n := len(fc.coords) / fc.dim
	if len(fc.labels) != n || len(fc.core) != n {
		return fmt.Errorf("fit check: %d labels and %d core flags for %d points", len(fc.labels), len(fc.core), n)
	}
	const tie = 1e-9
	inner := (1 - fc.rho/2) * fc.eps * (1 - tie)
	outer := (1 + fc.rho/2) * fc.eps * (1 + tie)
	g := newEpsGrid(fc.coords, fc.dim, outer)
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < sample && s < n; s++ {
		i := s // a sample as large as the input checks every point
		if sample < n {
			i = rng.Intn(n)
		}
		p := fc.coords[i*fc.dim : (i+1)*fc.dim]
		near, loose, mismatch := 0, 0, -1
		g.within(p, outer, func(j int) {
			loose++
			if dist2(p, fc.coords[j*fc.dim:(j+1)*fc.dim]) <= inner*inner {
				near++
				if fc.core[i] && fc.core[j] && fc.labels[i] != fc.labels[j] && mismatch < 0 {
					mismatch = j
				}
			}
		})
		switch {
		case near >= fc.minPts && !fc.core[i]:
			return fmt.Errorf("fit check: point %d has %d points within (1-rho/2)eps but is not core", i, near)
		case fc.core[i] && loose < fc.minPts:
			return fmt.Errorf("fit check: core point %d has only %d points within (1+rho/2)eps", i, loose)
		case fc.core[i] && fc.labels[i] < 0:
			return fmt.Errorf("fit check: core point %d is labelled noise", i)
		case mismatch >= 0:
			return fmt.Errorf("fit check: core points %d and %d are within (1-rho/2)eps but labelled %d and %d",
				i, mismatch, fc.labels[i], fc.labels[mismatch])
		}
	}
	return nil
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// checkIdentical requires two fits of the same input to agree byte for
// byte on labels and core flags.
func checkIdentical(what string, labelsA, labelsB []int, coreA, coreB []bool) error {
	if len(labelsA) != len(labelsB) || len(coreA) != len(coreB) {
		return fmt.Errorf("%s: output lengths differ", what)
	}
	for i := range labelsA {
		if labelsA[i] != labelsB[i] {
			return fmt.Errorf("%s: label of point %d differs (%d vs %d)", what, i, labelsA[i], labelsB[i])
		}
		if coreA[i] != coreB[i] {
			return fmt.Errorf("%s: core flag of point %d differs", what, i)
		}
	}
	return nil
}

// predictReply is the client's view of a /predict answer.
type predictReply struct {
	serve.Prediction
	ModelVersion int64 `json:"model_version"`
}

// batchReply is the client's view of a /predict/batch answer.
type batchReply struct {
	Predictions  []serve.Prediction `json:"predictions"`
	ModelVersion int64              `json:"model_version"`
}

// sampledReply is one served answer kept for checking.
type sampledReply struct {
	points  [][]float64
	preds   []serve.Prediction
	version int64
}

// checkReplies re-predicts every sampled reply with the model of the
// version the reply names and requires the same answer. models resolves a
// version to the model decoded from its registry blob.
func checkReplies(replies []sampledReply, models func(version int64) (*serve.Model, error)) error {
	for i, r := range replies {
		m, err := models(r.version)
		if err != nil {
			return fmt.Errorf("reply %d: model_version %d: %w", i, r.version, err)
		}
		want, err := m.PredictBatch(r.points)
		if err != nil {
			return fmt.Errorf("reply %d: %w", i, err)
		}
		if len(want) != len(r.preds) {
			return fmt.Errorf("reply %d: %d predictions for %d points", i, len(r.preds), len(want))
		}
		for j := range want {
			if want[j] != r.preds[j] {
				return fmt.Errorf("reply %d point %d: served %+v, model_version %d predicts %+v",
					i, j, r.preds[j], r.version, want[j])
			}
		}
	}
	return nil
}
