package rpdbscan

import (
	"fmt"
	"io"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/serve"
)

// Model is a fitted clustering packaged for serving: the training points,
// their labels and core flags, the fit parameters, and a kd-tree over the
// core points. A Model is immutable and safe for concurrent use, persists
// to a versioned, checksummed binary artifact (Save/LoadModel), and
// answers the DBSCAN predict query: a new point within Eps of any core
// point inherits that core's cluster, otherwise it is noise.
//
// Build one from a Cluster result, save it, and serve it with the rpserve
// command:
//
//	res, _ := rpdbscan.Cluster(points, opts)
//	m, _ := res.Model(points, opts)
//	m.Save(f)
type Model struct {
	m *serve.Model
}

// Model packages the result fitted over points (the same slice passed to
// Cluster) with the options that produced it into a servable Model.
func (r *Result) Model(points [][]float64, opts Options) (*Model, error) {
	if len(points) != len(r.Labels) {
		return nil, fmt.Errorf("rpdbscan: %d points for a result over %d points", len(points), len(r.Labels))
	}
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	pts, err := geom.FromSlice(points, dim)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	return r.ModelFlat(pts.Coords, dim, opts)
}

// ModelFlat is Model for flat point-major coordinates, pairing with
// ClusterFlat.
func (r *Result) ModelFlat(coords []float64, dim int, opts Options) (*Model, error) {
	rho := opts.Rho
	if rho == 0 {
		rho = 0.01
	}
	m, err := serve.New(coords, dim, r.Labels, r.Core, opts.Eps, opts.MinPts, rho, r.NumClusters)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	return &Model{m: m}, nil
}

// Save writes the model's binary artifact to w. The encoding is canonical:
// saving a loaded model reproduces the artifact byte for byte, and any
// single-byte corruption of an artifact is rejected by checksum on load.
func (m *Model) Save(w io.Writer) error {
	return m.m.Save(w)
}

// LoadModel reads a model artifact written by Save (or rpdbscan
// -save-model), verifying its checksum and structural invariants.
func LoadModel(r io.Reader) (*Model, error) {
	sm, err := serve.Load(r)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	return &Model{m: sm}, nil
}

// Predict classifies one point under the fitted clustering: the cluster id
// of the nearest core point within Eps, or Noise when none qualifies.
func (m *Model) Predict(point []float64) (int, error) {
	pred, err := m.m.Predict(point)
	if err != nil {
		return Noise, fmt.Errorf("rpdbscan: %w", err)
	}
	return pred.Label, nil
}

// PredictBatch classifies points, returning one label (or Noise) each.
func (m *Model) PredictBatch(points [][]float64) ([]int, error) {
	preds, err := m.m.PredictBatch(points)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	labels := make([]int, len(preds))
	for i, p := range preds {
		labels[i] = p.Label
	}
	return labels, nil
}

// NumClusters returns the number of clusters the model was fitted with.
func (m *Model) NumClusters() int { return m.m.Info().Clusters }

// Checksum returns the model's artifact checksum ("fnv1a:%016x") — its
// content address in a ModelRegistry.
func (m *Model) Checksum() string { return m.m.Info().Checksum }

// Dim returns the model's point dimensionality.
func (m *Model) Dim() int { return m.m.Dim() }
