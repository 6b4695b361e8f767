package harness

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/engine"
)

func quick() Scale {
	s := QuickScale()
	s.N = 2500
	return s
}

func TestRunAlgorithmUnknown(t *testing.T) {
	s := quick()
	ds := SuiteDatasets(s)[0]
	if _, err := RunAlgorithm("NOPE", ds.Points, 1, 10, s); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// retryTiming runs a wall-clock-sensitive assertion up to three times: the
// engine measures real task durations, which scheduling noise on a busy
// machine can distort arbitrarily, so a single unlucky run must not fail
// the suite. A genuine regression fails all attempts.
func retryTiming(t *testing.T, name string, attempt func() error) {
	t.Helper()
	var err error
	for i := 0; i < 3; i++ {
		if err = attempt(); err == nil {
			return
		}
		t.Logf("%s attempt %d: %v", name, i+1, err)
	}
	t.Fatal(err)
}

func TestEfficiencySubset(t *testing.T) {
	s := quick()
	s.N = 4000
	// The paper's regime: eps-neighborhoods hold hundreds of points, so
	// per-point work tracks local density and region splits of even point
	// count still imbalance badly on skewed data.
	s.Density = 5
	retryTiming(t, "efficiency-subset", func() error {
		rows, err := Efficiency(s, EfficiencyConfig{
			Datasets:   []string{"SimGeoLife"},
			Algorithms: []string{AlgoESP, AlgoRP},
			EpsIndices: []int{3},
		})
		if err != nil {
			return err
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(rows))
		}
		var esp, rp EfficiencyRow
		for _, r := range rows {
			switch r.Algorithm {
			case AlgoESP:
				esp = r
			case AlgoRP:
				rp = r
			}
		}
		// Structural facts hold regardless of timing noise.
		if rp.Processed != int64(s.N) {
			t.Fatalf("RP processed %d points, want exactly %d (no duplication)", rp.Processed, s.N)
		}
		if esp.Processed < int64(s.N) {
			t.Fatalf("ESP processed %d points, want >= %d", esp.Processed, s.N)
		}
		if rp.Imbalance < 1 || esp.Imbalance < 1 {
			t.Fatal("imbalance below 1")
		}
		if rp.Clusters == 0 {
			t.Fatal("RP found no clusters on SimGeoLife")
		}
		// The heavily skewed set is the paper's showcase: pseudo random
		// partitioning must balance load at least as well as even-split
		// regions. RP's Phase II tasks last well under a scheduler time
		// slice, so one preemption on a busy machine can multiply a single
		// run's imbalance; the comparison takes every task at its fastest
		// of several runs instead.
		rpImb, err := floorImbalance(s, AlgoRP, "cell-graph-construction")
		if err != nil {
			return err
		}
		espImb, err := floorImbalance(s, AlgoESP, "local-clustering")
		if err != nil {
			return err
		}
		if rpImb > espImb*1.5 {
			return fmt.Errorf("RP imbalance %.2f much worse than ESP %.2f on skewed data", rpImb, espImb)
		}
		return nil
	})
}

// floorImbalance runs algo five times on SimGeoLife at the largest swept
// eps and returns the imbalance of each task's minimum cost in stage.
// Scheduling noise only ever adds to a task's measured time, and every run
// partitions the same points with the same seed, so task i is the same
// work in each run and its minimum is its least noisy cost.
func floorImbalance(s Scale, algo, stage string) (float64, error) {
	s = s.norm()
	var ds datagen.Dataset
	for _, d := range SuiteDatasets(s) {
		if d.Name == "SimGeoLife" {
			ds = d
		}
	}
	var floor []time.Duration
	for k := 0; k < 5; k++ {
		res, err := RunAlgorithm(algo, ds.Points, ds.EpsSweep()[3], s.minPtsFor(ds.MinPts), s)
		if err != nil {
			return 0, err
		}
		st := res.Report.Stage(stage)
		switch {
		case st == nil:
			return 0, fmt.Errorf("%s run has no %s stage", algo, stage)
		case floor == nil:
			floor = slices.Clone(st.Costs)
		case len(st.Costs) != len(floor):
			return 0, fmt.Errorf("%s run %d changed the %s task count", algo, k, stage)
		default:
			for i, c := range st.Costs {
				floor[i] = min(floor[i], c)
			}
		}
	}
	return (&engine.StageStats{Costs: floor}).Imbalance(), nil
}

func TestBreakdownSumsToOne(t *testing.T) {
	s := quick()
	rows, err := Breakdown(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		var sum float64
		for _, f := range r.Phases {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: phase fractions sum to %v", r.Dataset, sum)
		}
		if len(r.Order) != 5 {
			t.Fatalf("%s: %d phases, want 5", r.Dataset, len(r.Order))
		}
	}
}

func TestSpeedUpRPMonotone(t *testing.T) {
	s := quick()
	s.N = 8000
	s.Density = 20 // Phase II must dominate for parallelism to pay off
	retryTiming(t, "speed-up", func() error {
		rows, err := SpeedUp(s, AlgoRP)
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			t.Fatalf("rows = %d", len(rows))
		}
		su := rows[0].SpeedUp
		if su[0] != 1 {
			t.Fatalf("base speed-up = %v, want 1", su[0])
		}
		for i := 1; i < len(su); i++ {
			if su[i] < su[i-1]-1e-9 {
				t.Fatalf("speed-up not monotone: %v", su)
			}
		}
		// More workers must buy a clear gain at 8x the base cluster. The
		// magnitude at this reduced scale is bounded by the broadcast
		// load floor, which the paper's data sizes amortise away.
		if su[len(su)-1] <= 1.25 {
			return fmt.Errorf("speed-up at 40 workers = %.2f, want > 1.25", su[len(su)-1])
		}
		return nil
	})
}

func TestAccuracyTable(t *testing.T) {
	s := quick()
	rows, err := Accuracy(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 sets x 3 rhos)", len(rows))
	}
	for _, r := range rows {
		if r.RandIndex < 0.95 {
			t.Errorf("%s rho=%.2f: RandIndex %.4f < 0.95", r.Dataset, r.Rho, r.RandIndex)
		}
		if r.Rho == 0.01 && r.RandIndex < 0.99 {
			t.Errorf("%s rho=0.01: RandIndex %.4f < 0.99", r.Dataset, r.RandIndex)
		}
	}
}

func TestDictionarySizeTrends(t *testing.T) {
	s := quick()
	rows, err := DictionarySize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	// Within each data set, the dictionary shrinks as eps grows
	// (Table 5's trend), and it is always a compact fraction of the data.
	byDS := map[string][]DictSizeRow{}
	for _, r := range rows {
		if r.Ratio <= 0 {
			t.Fatalf("%s eps=%g: ratio %v", r.Dataset, r.Eps, r.Ratio)
		}
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rs := range byDS {
		for i := 1; i < len(rs); i++ {
			if rs[i].Bits > rs[i-1].Bits {
				t.Errorf("%s: dictionary grew with eps: %d -> %d bits", ds, rs[i-1].Bits, rs[i].Bits)
			}
		}
	}
}

func TestEdgeReductionMonotone(t *testing.T) {
	s := quick()
	rows, err := EdgeReduction(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i := 1; i < len(r.Edges); i++ {
			if r.Edges[i] > r.Edges[i-1] {
				t.Fatalf("%s eps=%g: edges grew: %v", r.Dataset, r.Eps, r.Edges)
			}
		}
	}
}

func TestSkewStatsRise(t *testing.T) {
	s := quick()
	rows := SkewStats(s)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[3].TopCellShare <= rows[0].TopCellShare {
		t.Fatalf("concentration did not rise with alpha: %v vs %v",
			rows[0].TopCellShare, rows[3].TopCellShare)
	}
}

func TestSkewDictionaryTrends(t *testing.T) {
	s := quick()
	rows, err := SkewDictionarySize(s)
	if err != nil {
		t.Fatal(err)
	}
	// Table 8 trends: size shrinks as alpha rises (per dim) and grows
	// with dim (per alpha).
	get := func(dim int, alpha float64) int64 {
		for _, r := range rows {
			if r.Dim == dim && r.Alpha == alpha {
				return r.Bits
			}
		}
		t.Fatalf("missing row dim=%d alpha=%v", dim, alpha)
		return 0
	}
	alphas := SkewAlphas()
	for _, dim := range []int{3, 4, 5} {
		for i := 1; i < len(alphas); i++ {
			if get(dim, alphas[i]) > get(dim, alphas[i-1]) {
				t.Errorf("dim %d: dictionary grew with skew", dim)
			}
		}
	}
	for _, a := range alphas {
		if get(5, a) < get(3, a) {
			t.Errorf("alpha %v: dictionary shrank with dimension", a)
		}
	}
}

func TestSizeScalingGrows(t *testing.T) {
	s := quick()
	rows, err := SizeScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[4].N != rows[0].N*16 {
		t.Fatalf("size range wrong: %d vs %d", rows[0].N, rows[4].N)
	}
	if rows[4].Elapsed <= rows[0].Elapsed {
		t.Fatalf("elapsed did not grow with size: %v vs %v", rows[0].Elapsed, rows[4].Elapsed)
	}
}

// TestPhase2SweepShape checks the sweep structure and, most importantly,
// that every mode's clustering is byte-identical to the blocked path's
// (Rand index exactly 1).
func TestPhase2SweepShape(t *testing.T) {
	defer func(budget time.Duration) { phase2MinStage = budget }(phase2MinStage)
	phase2MinStage = 0
	s := quick()
	rows, err := Phase2(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, dim := range phase2Dims {
		modes := 1
		if dim == 2 {
			modes = 2
		}
		want += 2 * modes // two N values per dim
	}
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.RandIndex != 1 {
			t.Fatalf("mode %s (n=%d dim=%d): Rand index %v, want exactly 1", r.Mode, r.N, r.Dim, r.RandIndex)
		}
		if r.Mode == "per-point" && r.Speedup != 1 {
			t.Fatalf("per-point row speedup = %v, want 1", r.Speedup)
		}
		if hasPerPoint := r.Dim == 2; hasPerPoint != (r.Speedup > 0) {
			t.Fatalf("mode %s (n=%d dim=%d): speedup %v, want > 0 exactly when the group has a per-point row", r.Mode, r.N, r.Dim, r.Speedup)
		}
		if r.StageMillis <= 0 {
			t.Fatalf("mode %s (n=%d dim=%d): non-positive stage time", r.Mode, r.N, r.Dim)
		}
		if r.Rounds != phase2MinRounds {
			t.Fatalf("mode %s (n=%d dim=%d): %d rounds without a stage budget, want %d", r.Mode, r.N, r.Dim, r.Rounds, phase2MinRounds)
		}
	}
}

// TestPhase3Identical checks that every flat-merge row reproduces the
// tournament's components exactly, at every worker count.
func TestPhase3Identical(t *testing.T) {
	s := quick()
	rows, err := Phase3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (tournament + 4 flat)", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("mode %s workers=%d diverged from the tournament", r.Mode, r.Workers)
		}
		if r.Edges == 0 {
			t.Fatal("generated subgraphs have no edges")
		}
	}
}
