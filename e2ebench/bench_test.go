package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpdbscan"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
	"rpdbscan/internal/transport"
)

func TestMain(m *testing.M) {
	// The proc workload's workers re-execute the test binary.
	transport.MaybeWorker()
	os.Exit(m.Run())
}

// tiny shrinks a workload so it runs end to end in seconds.
func tiny(name string) config {
	cfg := workloads[name]
	cfg.ladder = []float64{1000, 2000}
	cfg.setupReps = 2
	cfg.checkSample = 500
	switch name {
	case "fit-geolife":
		cfg.n = 20_000
	case "fit-teraclick-proc":
		cfg.n = 5_000
	case "online-geolife":
		cfg.n, cfg.bootN, cfg.watermark = 15_000, 1_500, 1_500
	}
	return cfg
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"fit-geolife", "fit-teraclick-proc", "online-geolife"} {
		t.Run(name, func(t *testing.T) {
			cfg := tiny(name)
			dir := t.TempDir()
			t.Setenv("TMPDIR", dir)
			plain, err := runWorkload(cfg, 7, 2*time.Second, filepath.Join(dir, "plain"), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := runWorkload(cfg, 7, 2*time.Second, filepath.Join(dir, "traced"), tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{plain, traced} {
				if o.failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.errs)
				}
			}
			e2e := plain.endToEnd()
			for _, name := range endToEndNames(t) {
				v, ok := e2e.Metrics[name]
				if !ok || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive value", name, v)
				}
			}
			pl := traced.perLayer(plain, tr)
			if !pl.Correct || len(pl.Metrics) != len(perLayerMetrics) {
				t.Fatalf("per-layer result: correct=%v, %d metrics", pl.Correct, len(pl.Metrics))
			}
			if cfg.online && pl.Metrics["refit.generations"].Value != float64(cfg.n/cfg.watermark-1) {
				t.Errorf("refit.generations = %v", pl.Metrics["refit.generations"].Value)
			}
			path := filepath.Join(dir, "trace.json")
			if err := tr.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) < 10 {
				t.Fatalf("chrome trace does not load: %v (%d events)", err, len(doc.TraceEvents))
			}
		})
	}
}

// endToEndNames reads the end-to-end metric names from BENCHMARK.json.
func endToEndNames(t *testing.T) []string {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, pm := range spec.PerLayer {
		if i < len(perLayerMetrics) && pm.Name != perLayerMetrics[i][0] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s, benchmark %s", i, pm.Name, perLayerMetrics[i][0])
		}
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

// smallFit fits a small seeded GeoLife stand-in for the planted-fault
// tests.
func smallFit(t *testing.T) (fitCheck, *rpdbscan.Result) {
	t.Helper()
	ds := datagen.SimGeoLife(3000, 3)
	cfg := workloads["fit-geolife"]
	res, err := rpdbscan.ClusterFlat(ds.Points.Coords, 3, rpdbscan.Options{Eps: cfg.eps, MinPts: cfg.minPts, Rho: cfg.rho, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc := fitCheck{coords: ds.Points.Coords, dim: 3, eps: cfg.eps, minPts: cfg.minPts, rho: cfg.rho,
		labels: append([]int(nil), res.Labels...), core: append([]bool(nil), res.Core...)}
	if err := checkFit(fc, 3000, 1); err != nil {
		t.Fatalf("unplanted fit fails its check: %v", err)
	}
	return fc, res
}

func TestPlantedFlippedLabelFails(t *testing.T) {
	fc, _ := smallFit(t)
	// Flip one core point that has a core neighbour within (1-rho/2)eps.
	g := newEpsGrid(fc.coords, fc.dim, fc.eps)
	for i := range fc.labels {
		if !fc.core[i] {
			continue
		}
		shared := false
		g.within(fc.coords[i*3:i*3+3], fc.eps*(1-fc.rho/2)*0.99, func(j int) { shared = shared || (j != i && fc.core[j]) })
		if shared {
			fc.labels[i] = fc.labels[i] + 1
			break
		}
	}
	if err := checkFit(fc, 3000, 1); err == nil || !strings.Contains(err.Error(), "labelled") {
		t.Fatalf("flipped label passed the fit check: %v", err)
	}
}

func TestPlantedClearedCoreFlagFails(t *testing.T) {
	fc, _ := smallFit(t)
	for i := range fc.core {
		near := 0
		g := newEpsGrid(fc.coords, fc.dim, fc.eps)
		g.within(fc.coords[i*3:i*3+3], fc.eps*(1-fc.rho/2)*0.99, func(int) { near++ })
		if near >= fc.minPts {
			fc.core[i] = false
			break
		}
	}
	if err := checkFit(fc, 3000, 1); err == nil || !strings.Contains(err.Error(), "not core") {
		t.Fatalf("cleared core flag passed the fit check: %v", err)
	}
}

func TestPlantedProcSimMismatchFails(t *testing.T) {
	fc, _ := smallFit(t)
	labels := append([]int(nil), fc.labels...)
	if err := checkIdentical("proc vs sim", fc.labels, labels, fc.core, fc.core); err != nil {
		t.Fatal(err)
	}
	labels[len(labels)/2]++
	if err := checkIdentical("proc vs sim", fc.labels, labels, fc.core, fc.core); err == nil {
		t.Fatal("flipped label passed the proc-vs-sim check")
	}
	core := append([]bool(nil), fc.core...)
	core[0] = !core[0]
	if err := checkIdentical("proc vs sim", fc.labels, fc.labels, fc.core, core); err == nil {
		t.Fatal("flipped core flag passed the proc-vs-sim check")
	}
}

// twoGenerations publishes two different models as versions 1 and 2.
func twoGenerations(t *testing.T, dir string) (*registry.Registry, [2]*serve.Model) {
	t.Helper()
	fc, res := smallFit(t)
	half := len(fc.labels) / 2
	var ms [2]*serve.Model
	m1, err := serve.New(fc.coords, 3, res.Labels, res.Core, fc.eps, fc.minPts, fc.rho, res.NumClusters)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rpdbscan.ClusterFlat(fc.coords[:half*3], 3, rpdbscan.Options{Eps: fc.eps, MinPts: fc.minPts, Rho: fc.rho, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := serve.New(fc.coords[:half*3], 3, sub.Labels, sub.Core, fc.eps, fc.minPts, fc.rho, sub.NumClusters)
	if err != nil {
		t.Fatal(err)
	}
	ms[0], ms[1] = m1, m2
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range ms {
		art := m.Encode()
		if _, err := reg.Publish(art, registry.Record{Version: int64(v + 1), ModelHash: m.Checksum(), Points: int64(m.Len())}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Sync(); err != nil {
		t.Fatal(err)
	}
	return reg, ms
}

func TestPlantedWrongVersionFails(t *testing.T) {
	reg, ms := twoGenerations(t, t.TempDir())
	defer reg.Close()
	d := &deployment{reg: reg}
	fc, _ := smallFit(t)
	queries := queryPoints(fc.coords, 3, fc.eps, 512, 5)
	preds, err := ms[0].PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	replies := []sampledReply{{points: queries, preds: preds, version: 1}}
	if err := checkReplies(replies, d.modelAt()); err != nil {
		t.Fatalf("correct replies fail the check: %v", err)
	}
	replies[0].version = 2
	if err := checkReplies(replies, d.modelAt()); err == nil {
		t.Fatal("replies stamped with the wrong model_version passed the check")
	}
}

func TestPlantedCorruptBlobFails(t *testing.T) {
	dir := t.TempDir()
	reg, ms := twoGenerations(t, dir)
	defer reg.Close()
	if _, err := reg.Verify(); err != nil {
		t.Fatalf("clean registry fails Verify: %v", err)
	}
	path := reg.BlobPath(ms[1].Checksum())
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Verify(); err == nil {
		t.Fatal("corrupted blob passed registry Verify")
	}
	d := &deployment{reg: reg}
	if _, err := d.modelAt()(2); err == nil {
		t.Fatal("corrupted blob decoded for the reply check")
	}
}

func TestPlantedOverrunStageFailsReconciliation(t *testing.T) {
	tr := newTracer()
	root := tr.begin("workload", "bench", laneMain, -1)
	start := time.Now()
	tr.do("fit", "engine", root, func(id int) {
		time.Sleep(20 * time.Millisecond)
		// Stage walls that add up to more than the fit itself took.
		tr.layStages(id, laneMain, start, []stageSpan{{"II", "core", 15 * time.Millisecond}, {"III", "core", 15 * time.Millisecond}})
	})
	tr.end(root)
	if r := tr.reconcile(root); r.ok() {
		t.Fatalf("overrunning stages reconciled: sum %v wall %v", r.sum, r.wall)
	}

	tr = newTracer()
	root = tr.begin("workload", "bench", laneMain, -1)
	start = time.Now()
	tr.do("fit", "engine", root, func(id int) {
		time.Sleep(20 * time.Millisecond)
		tr.layStages(id, laneMain, start, []stageSpan{{"II", "core", 8 * time.Millisecond}, {"III", "core", 8 * time.Millisecond}})
	})
	tr.end(root)
	if r := tr.reconcile(root); !r.ok() || r.byLayer["core"] != 16*time.Millisecond {
		t.Fatalf("nested stages do not reconcile: sum %v wall %v core %v", r.sum, r.wall, r.byLayer["core"])
	}
}

func TestQuantilesTail(t *testing.T) {
	xs := make([]time.Duration, 2000)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Microsecond
	}
	q := quantiles(xs)
	if q.tailPct != 99 || q.tail != 1980*time.Microsecond || q.p50 != 1000*time.Microsecond {
		t.Fatalf("quantiles of 1..2000us: %+v", q)
	}
	if q := quantiles(xs[:50]); q.tailPct != 50 {
		t.Fatalf("50 samples support only the median, got p%g", q.tailPct)
	}
}
