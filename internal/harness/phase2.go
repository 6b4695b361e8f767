package harness

// Phase II hot-path benchmark: the blocked SoA kernel (geom.Block lanes +
// dict.CellBatch.CountPoints), the production path, against the per-point
// oracle (core.Config.DisableBatching) on the appendix's skewed mixture,
// swept over dimensionality and size. The contrast isolates one stage —
// cell-graph-construction (Algorithm 3) — via the engine's per-stage
// accounting; clusterings must stay byte-identical (Rand index 1.0), since
// the modes only reorder evaluation. cmd/rpbench serialises the rows as
// BENCH_phase2.json; BenchmarkPhaseII in internal/core is the testing.B
// counterpart.

import (
	"fmt"
	"log/slog"
	"time"

	"rpdbscan/internal/core"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/metrics"
	"rpdbscan/internal/obs"
)

// phase2Stage is the engine stage name Phase II runs under.
const phase2Stage = "cell-graph-construction"

// Each mode runs until it has at least phase2MinRounds rounds and its
// stage times sum to at least phase2MinStage; the fastest round is
// reported, testing.B-style, to shed scheduler noise. The blocked stage
// takes about 1 ms at the default sizes, and the fastest of only three
// such rounds moved by up to 2x between runs of unchanged code.
const phase2MinRounds = 3

// phase2MinStage is a variable only so that tests checking the sweep's
// shape, not its timings, can drop the budget.
var phase2MinStage = 250 * time.Millisecond

// phase2Dims is the dimensionality sweep.
var phase2Dims = []int{2, 3, 5}

// Phase2Row reports the Phase II stage cost of one query mode at one
// (n, dim) sweep point.
type Phase2Row struct {
	// Mode is "blocked" (SoA lane kernels, the production path) or
	// "per-point" (the oracle, dim=2 groups only).
	Mode string `json:"mode"`
	N    int    `json:"n"`
	Dim  int    `json:"dim"`
	// StageMillis is the summed task time of the Phase II stage across
	// all partitions, in the fastest of Rounds runs.
	StageMillis float64 `json:"stage_millis"`
	// Rounds is how many runs the mode took to reach phase2MinRounds and
	// phase2MinStage.
	Rounds int `json:"rounds"`
	// NsPerOp is stage time per region query; one query per point.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the stage's heap-allocation count per point
	// (process-wide Mallocs delta, so an upper bound).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// PointsPerSec is the stage's region-query throughput.
	PointsPerSec float64 `json:"points_per_sec"`
	// RandIndex compares this mode's clustering against the blocked
	// run's; any value other than 1 is a correctness bug.
	RandIndex float64 `json:"rand_index"`
	// Speedup is the per-point stage time of the same (n, dim) group
	// divided by this mode's — 1 for the per-point row itself. Groups
	// without a per-point row omit it.
	Speedup float64 `json:"speedup,omitempty"`
}

// Phase2 benchmarks the Phase II hot path on the skewed synthetic mixture
// (alpha = 3, ten components) over dim x {N/2, N}: one row per query mode
// per sweep point. The per-point oracle joins only the dim=2 groups — at
// higher dimension it is minutes-slow.
func Phase2(s Scale) ([]Phase2Row, error) {
	s = s.norm()
	ns := []int{s.N / 2, s.N}
	if ns[0] == ns[1] || ns[0] < 100 {
		ns = ns[1:]
	}
	var rows []Phase2Row
	for _, dim := range phase2Dims {
		for _, n := range ns {
			pts := synthMixture(n, dim, 3, s.Seed)
			cfg := core.Config{
				Eps: synthEps, MinPts: s.minPtsFor(20), Rho: s.Rho,
				NumPartitions: s.Partitions, Seed: s.Seed,
			}
			type modeOut struct {
				stage  time.Duration
				allocs int64
				rounds int
				labels []int
			}
			measure := func(perPoint bool) (modeOut, error) {
				var out modeOut
				var spent time.Duration
				for ; out.rounds < phase2MinRounds || spent < phase2MinStage; out.rounds++ {
					mcfg := cfg
					mcfg.DisableBatching = perPoint
					cl := engine.New(s.Workers)
					cl.Sink = obs.NewSink(slog.Default())
					res, err := core.Run(pts, mcfg, cl)
					if err != nil {
						return out, err
					}
					st := res.Report.Stage(phase2Stage)
					if st == nil {
						return out, fmt.Errorf("harness: stage %q missing from report", phase2Stage)
					}
					spent += st.Total()
					if out.rounds == 0 || st.Total() < out.stage {
						out.stage = st.Total()
						out.allocs = st.MallocDelta
					}
					out.labels = res.Labels
				}
				return out, nil
			}
			modes := []string{"blocked"}
			if dim == 2 {
				modes = append(modes, "per-point")
			}
			outs := make([]modeOut, len(modes))
			for i, mode := range modes {
				var err error
				if outs[i], err = measure(mode == "per-point"); err != nil {
					return nil, err
				}
			}
			blocked, perPoint := outs[0], outs[len(outs)-1]
			np := float64(pts.N())
			for i, mode := range modes {
				o := outs[i]
				sec := o.stage.Seconds()
				r := Phase2Row{
					Mode: mode, N: pts.N(), Dim: pts.Dim,
					StageMillis: float64(o.stage.Microseconds()) / 1e3,
					Rounds:      o.rounds,
					NsPerOp:     float64(o.stage.Nanoseconds()) / np,
					AllocsPerOp: float64(o.allocs) / np,
					RandIndex:   metrics.RandIndex(blocked.labels, o.labels),
				}
				if sec > 0 {
					r.PointsPerSec = np / sec
				}
				if len(modes) > 1 && o.stage > 0 {
					r.Speedup = float64(perPoint.stage) / float64(o.stage)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}
