// Package serve turns a fitted RP-DBSCAN clustering into a servable model:
// a versioned, checksummed artifact that persists the fitted state, and an
// HTTP prediction server answering eps-neighborhood membership queries.
//
// DBSCAN has a natural train/predict split (Song & Lee, SIGMOD'18 §5): a
// new point within eps of any core point inherits that core's cluster,
// otherwise it is noise. The model therefore keeps the training points,
// their labels and core flags, and a kd-tree over the core points, so one
// NearestInBall query answers Predict in O(log #core) — the same
// tree-based query layout the Phase II cell dictionary uses.
package serve

import (
	"fmt"
	"math"

	"rpdbscan/internal/frame"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/kdtree"
)

// Noise is the label assigned to points in no cluster, mirroring the root
// package's constant.
const Noise = -1

// Model is an immutable fitted clustering plus the query index built over
// its core points. All methods are safe for concurrent use: nothing is
// mutated after construction, which is what lets one model be shared by
// every server goroutine without locks.
type Model struct {
	dim         int
	coords      []float64 // training points, point-major
	labels      []int32   // fitted label per training point (Noise = -1)
	core        []bool    // core flag per training point
	eps         float64
	rho         float64
	minPts      int
	numClusters int
	numCore     int

	tree *kdtree.Tree // over core points; payload = training index

	// Artifact identity, fixed at construction: the canonical encoding's
	// length and checksum (the bytes themselves are not retained).
	artifactBytes int
	checksum      uint64
}

// New builds a Model from a fitted clustering: n = len(coords)/dim training
// points, their labels (cluster id or -1 for noise), core flags, and the
// parameters the fit used. It validates shape and content so every Model
// in the process — built from a fit or decoded from an artifact — holds
// the same invariants.
func New(coords []float64, dim int, labels []int, core []bool, eps float64, minPts int, rho float64, numClusters int) (*Model, error) {
	if dim < 1 {
		return nil, fmt.Errorf("serve: dimension must be >= 1, got %d", dim)
	}
	if len(coords)%dim != 0 {
		return nil, fmt.Errorf("serve: %d coordinates not divisible by dimension %d", len(coords), dim)
	}
	n := len(coords) / dim
	if len(labels) != n || len(core) != n {
		return nil, fmt.Errorf("serve: %d labels and %d core flags for %d points", len(labels), len(core), n)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("serve: eps must be positive and finite, got %g", eps)
	}
	if !(rho > 0) || math.IsInf(rho, 0) {
		return nil, fmt.Errorf("serve: rho must be positive and finite, got %g", rho)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("serve: minPts must be >= 1, got %d", minPts)
	}
	if numClusters < 0 || numClusters > n {
		return nil, fmt.Errorf("serve: %d clusters for %d points", numClusters, n)
	}
	for _, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("serve: non-finite training coordinate %g", v)
		}
	}
	m := &Model{
		dim:         dim,
		coords:      coords,
		labels:      make([]int32, n),
		core:        core,
		eps:         eps,
		rho:         rho,
		minPts:      minPts,
		numClusters: numClusters,
	}
	for i, l := range labels {
		if l < Noise || l >= numClusters {
			return nil, fmt.Errorf("serve: label %d of point %d outside [-1, %d)", l, i, numClusters)
		}
		if core[i] && l == Noise {
			return nil, fmt.Errorf("serve: core point %d labeled noise", i)
		}
		m.labels[i] = int32(l)
	}
	m.finish(nil)
	return m, nil
}

// finish derives the core-point index and artifact identity from the
// validated fields. Shared by New and Decode: enc is the model's canonical
// encoding when the caller holds it already (Decode accepts canonical
// artifacts only), nil to encode it here.
func (m *Model) finish(enc []byte) {
	n := len(m.labels)
	var coreIdx []int
	for i := 0; i < n; i++ {
		if m.core[i] {
			coreIdx = append(coreIdx, i)
		}
	}
	m.numCore = len(coreIdx)
	corePts := geom.NewPoints(m.dim, m.numCore)
	for _, i := range coreIdx {
		corePts.Append(m.coords[i*m.dim : (i+1)*m.dim])
	}
	m.tree = kdtree.Build(corePts, coreIdx)
	if enc == nil {
		enc = m.Encode()
	}
	m.artifactBytes = len(enc)
	m.checksum = frame.Sum64(enc[checksumStart:])
}

// Dim returns the model's point dimensionality.
func (m *Model) Dim() int { return m.dim }

// Checksum returns the artifact's raw FNV-1a checksum (the value Info
// renders as "fnv1a:%016x"). Registry blob names embed it.
func (m *Model) Checksum() uint64 { return m.checksum }

// Len returns the number of training points.
func (m *Model) Len() int { return len(m.labels) }

// Info summarises the model for the /model/info endpoint and CLIs.
type Info struct {
	Dim           int     `json:"dim"`
	Points        int     `json:"points"`
	CorePoints    int     `json:"core_points"`
	Clusters      int     `json:"clusters"`
	Eps           float64 `json:"eps"`
	MinPts        int     `json:"min_pts"`
	Rho           float64 `json:"rho"`
	ArtifactBytes int     `json:"artifact_bytes"`
	Checksum      string  `json:"checksum"`
}

// Info reports the model's parameters and artifact identity.
func (m *Model) Info() Info {
	return Info{
		Dim:           m.dim,
		Points:        len(m.labels),
		CorePoints:    m.numCore,
		Clusters:      m.numClusters,
		Eps:           m.eps,
		MinPts:        m.minPts,
		Rho:           m.rho,
		ArtifactBytes: m.artifactBytes,
		Checksum:      fmt.Sprintf("fnv1a:%016x", m.checksum),
	}
}

// Prediction is the answer to one Predict query.
type Prediction struct {
	// Label is the cluster id the point falls in, or Noise.
	Label int `json:"label"`
	// Noise is true when no core point lies within eps.
	Noise bool `json:"noise"`
	// CoreIndex is the training index of the nearest core point within
	// eps (ties to the smallest index), or -1 for noise.
	CoreIndex int `json:"core_index"`
	// CoreDist is the distance to that core point, or 0 for noise.
	CoreDist float64 `json:"core_dist"`
}

// Predict classifies one point under the fitted clustering: the label of
// the nearest core point within eps, or Noise when none qualifies. The
// nearest-with-deterministic-tie-break rule makes the answer a pure
// function of (model, point), so concurrent serving is byte-identical to
// sequential.
func (m *Model) Predict(point []float64) (Prediction, error) {
	if len(point) != m.dim {
		return Prediction{}, fmt.Errorf("serve: point has %d coordinates, model dimension is %d", len(point), m.dim)
	}
	for _, v := range point {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Prediction{}, fmt.Errorf("serve: non-finite coordinate %g", v)
		}
	}
	idx, d2, ok := m.tree.NearestInBall(point, m.eps)
	if !ok {
		return Prediction{Label: Noise, Noise: true, CoreIndex: -1}, nil
	}
	return Prediction{
		Label:     int(m.labels[idx]),
		CoreIndex: idx,
		CoreDist:  math.Sqrt(d2),
	}, nil
}

// PredictBatch classifies a batch of points. It fails on the first invalid
// point, returning its index in the error, so callers can reject a
// malformed request without a partial answer.
func (m *Model) PredictBatch(points [][]float64) ([]Prediction, error) {
	out := make([]Prediction, len(points))
	for i, p := range points {
		pr, err := m.Predict(p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = pr
	}
	return out, nil
}

// TrainingLabel returns the fitted label of training point i (test and
// harness accessor).
func (m *Model) TrainingLabel(i int) int { return int(m.labels[i]) }

// TrainingCore reports whether training point i was fitted as a core point.
func (m *Model) TrainingCore(i int) bool { return m.core[i] }

// TrainingPoint returns a view of training point i's coordinates.
func (m *Model) TrainingPoint(i int) []float64 {
	return m.coords[i*m.dim : (i+1)*m.dim]
}

// Eps returns the fitted neighborhood radius.
func (m *Model) Eps() float64 { return m.eps }
