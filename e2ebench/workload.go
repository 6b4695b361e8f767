package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"rpdbscan/internal/datagen"
	"rpdbscan/internal/engine"
)

// config describes one workload. Inputs come only from internal/datagen
// with the run's seed; nothing is downloaded.
type config struct {
	online  bool
	dataset func(n int, seed int64) datagen.Dataset
	n       int // fit: points fitted; online: points ingested
	eps     float64
	minPts  int
	rho     float64
	workers int
	proc    bool // fit through core.Run on the multi-process transport

	// Online stream: the boot generation is a fit of the first bootN
	// points; refits run every watermark points over the whole prefix.
	bootN, watermark, ingestBatch int
	ingestRate                    float64 // points per second

	// Serving: the single-predict rate ladder (req/s), the reference rate
	// whose latency is reported, the batch size of /predict/batch, and
	// the share of the run's seconds the idle serving phase gets.
	ladder    []float64
	refRate   float64
	batchSize int
	serveFrac float64

	setupReps   int // set-ups per run; setup_s is their median
	checkSample int // points sampled by the fit contract check
}

// latencyLimit is the predict tail a ladder rate must hold to count
// towards predict_max_rps.
const latencyLimit = 5 * time.Millisecond

var ladder = []float64{1000, 2000, 3000, 4000, 5000, 6000}

var workloads = map[string]config{
	"fit-geolife": {
		dataset: datagen.SimGeoLife, n: 1_000_000, eps: 4, minPts: 20, rho: 0.01, workers: 2,
		ladder: ladder, refRate: 2000, batchSize: 1024, serveFrac: 0.3,
		setupReps: 3, checkSample: 2000,
	},
	"fit-teraclick-proc": {
		dataset: datagen.SimTeraClick, n: 100_000, eps: 6, minPts: 20, rho: 0.01, workers: 2, proc: true,
		ladder: ladder, refRate: 2000, batchSize: 1024, serveFrac: 0.3,
		setupReps: 3, checkSample: 2000,
	},
	"online-geolife": {
		online:  true,
		dataset: datagen.SimGeoLife, n: 300_000, eps: 4, minPts: 20, rho: 0.01, workers: 2,
		bootN: 30_000, watermark: 30_000, ingestBatch: 500, ingestRate: 30_000,
		ladder: ladder, refRate: 2000, batchSize: 1024, serveFrac: 0.4,
		setupReps: 3, checkSample: 2000,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// outcome is everything one pass of a workload measured.
type outcome struct {
	cfg  config
	wall time.Duration // whole pass, set-up included
	// untracedExtra is work only a traced pass does (the proc workload's
	// simulator fit), left out of the tracing overhead.
	untracedExtra time.Duration
	setup         []time.Duration
	fits          []time.Duration // fit-call walls; refit fit walls online
	heapSpans     [][2]time.Time  // when each fit peak_heap_mb covers ran
	heap          []heapSample
	boot          bootTimes       // the serving boot
	boots         []time.Duration // every boot's boot_s
	idle          idleStats
	attempted     int64
	failed        int64
	rejected      int64 // 429 replies
	errs          []error
	layer         map[string]float64 // per-layer numbers measured by the pass
}

// op accounts one operation; a non-nil err fails it.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if isRejected(err) {
			o.rejected++
		}
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err)
		}
	}
}

// check accounts one output check.
func (o *outcome) check(err error) {
	o.op(err)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check failed: %v\n", err)
	}
}

// runWorkload runs one pass of a workload; tr is nil for an untraced pass.
func runWorkload(cfg config, seed int64, budget time.Duration, dir string, tr *tracer) (*outcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &outcome{cfg: cfg, layer: make(map[string]float64)}
	gc0 := readGC()
	heap := startHeapSampler(2 * time.Millisecond)
	start := time.Now()
	root := tr.begin("workload", "bench", laneMain, -1)
	var err error
	if cfg.online {
		err = runOnline(out, seed, budget, dir, tr, root)
	} else {
		err = runFit(out, seed, budget, dir, tr, root)
	}
	tr.end(root)
	out.wall = time.Since(start)
	fmt.Fprintf(os.Stderr, "timed fits %v, set-ups %v, boots %v\n", out.fits, out.setup, out.boots)
	out.heap = heap.finish()
	gc1 := readGC()
	out.layer["gc.cycles"] = float64(gc1.cycles - gc0.cycles)
	out.layer["gc.pause_ms"] = ms(gc1.pause - gc0.pause)
	if err != nil {
		return nil, err
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "failed operation: %v\n", e)
	}
	if tr != nil {
		rec := tr.reconcile(root)
		for l, d := range rec.byLayer {
			out.layer["layer."+l+"_s"] = d.Seconds()
		}
		out.layer["trace.wall_s"] = rec.wall.Seconds()
		out.layer["trace.reconcile_gap_s"] = (rec.sum - rec.wall).Seconds()
		out.layer["trace.tolerance_s"] = rec.tolerance.Seconds()
		if !rec.ok() {
			out.check(fmt.Errorf("trace: per-layer self times sum to %v but the traced wall is %v (tolerance %v)",
				rec.sum, rec.wall, rec.tolerance))
		} else {
			out.check(nil)
		}
	}
	return out, nil
}

// endToEnd assembles the untraced run's result.
func (o *outcome) endToEnd() *result {
	m := map[string]metric{
		"setup_s":            {median(o.setup).Seconds(), "s"},
		"fit_s":              {median(o.fits).Seconds(), "s"},
		"peak_heap_mb":       {o.peakHeap(), "MB"},
		"boot_s":             {median(o.boots).Seconds(), "s"},
		"batch_points_per_s": {o.idle.batchPointsPerS, "1/s"},
	}
	fmt.Printf("predict at %.0f req/s: p50 %v, p%g %v of %d samples; predict_max_rps %.0f; %d set-ups, %d timed fits\n",
		o.cfg.refRate, o.idle.ref.lat.p50, o.idle.ref.lat.tailPct, o.idle.ref.lat.tail, o.idle.ref.lat.n,
		o.idle.maxRPS, len(o.setup), len(o.fits))
	return o.result(m)
}

// peakHeap is the median, in MB, over the heap spans of the highest live
// heap seen while each ran: the one warm-up fit of a fit workload, every
// refit online. A single run-wide maximum depends on where the
// collector's marks happen to fall; the median over refits does much less.
func (o *outcome) peakHeap() float64 {
	var peaks []float64
	for _, w := range o.heapSpans {
		peaks = append(peaks, float64(peakIn(o.heap, w[0], w[1]))/mb)
	}
	fmt.Fprintf(os.Stderr, "peak live heaps %.2f MB\n", peaks)
	return medianF(peaks)
}

func (o *outcome) result(m map[string]metric) *result {
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// perLayerMetrics names every per-layer metric with its unit. A workload
// reports 0 for a layer it does not exercise.
var perLayerMetrics = [][2]string{
	{"core.I-1_s", "s"}, {"core.I-2_s", "s"}, {"core.II_s", "s"}, {"core.III_s", "s"},
	{"core.II_ns_per_point", "ns"}, {"core.alloc_mb", "MB"},
	{"dict.sub_cells", "count"}, {"dict.points_per_sub_cell", "count"}, {"dict.mb", "MB"},
	{"engine.imbalance", "ratio"}, {"engine.retries", "count"}, {"engine.unattributed_s", "s"},
	{"transport.push_s", "s"}, {"transport.push_mb", "MB"}, {"transport.worker_maxrss_mb", "MB"},
	{"transport.overhead_s", "s"},
	{"spill.mb", "MB"}, {"spill.reloads", "count"},
	{"refit.fit_first_s", "s"}, {"refit.fit_last_s", "s"}, {"refit.swap_s", "s"},
	{"refit.backlog_max", "count"}, {"refit.generations", "count"},
	{"registry.open_s", "s"}, {"registry.head_load_s", "s"}, {"registry.blob_mb", "MB"},
	{"serve.model_build_s", "s"}, {"serve.encode_s", "s"}, {"serve.decode_s", "s"},
	{"serve.predict_kernel_us", "us"}, {"serve.http_us", "us"},
	{"serve.batch_kernel_ns_per_point", "ns"}, {"serve.rejected", "count"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
	{"loadgen.lag_tail_ms", "ms"}, {"loadgen.tail_percentile", "%"}, {"loadgen.samples", "count"},
	{"predict_p50_ms", "ms"}, {"predict_tail_ms", "ms"}, {"predict_max_rps", "1/s"},
	{"error_rate", "ratio"}, {"freshness_s", "s"}, {"ingest_tail_ms", "ms"}, {"predict_refit_tail_ms", "ms"},
	{"layer.bench_s", "s"}, {"layer.datagen_s", "s"}, {"layer.core_s", "s"}, {"layer.engine_s", "s"},
	{"layer.transport_s", "s"}, {"layer.serve_s", "s"}, {"layer.registry_s", "s"}, {"layer.http_s", "s"},
	{"layer.check_s", "s"},
	{"trace.wall_s", "s"}, {"trace.reconcile_gap_s", "s"}, {"trace.tolerance_s", "s"},
	{"trace.overhead_s", "s"}, {"trace.spans", "count"},
}

// perLayer assembles the traced run's result; plain is the untraced pass
// of the same invocation.
func (o *outcome) perLayer(plain *outcome, tr *tracer) *result {
	o.layer["trace.overhead_s"] = (o.wall - o.untracedExtra - plain.wall).Seconds()
	o.layer["trace.spans"] = float64(tr.len())
	o.layer["serve.rejected"] = float64(o.rejected + plain.rejected)
	o.layer["error_rate"] = float64(o.failed+plain.failed) / float64(o.attempted+plain.attempted)
	o.layer["predict_p50_ms"] = ms(o.idle.ref.lat.p50)
	o.layer["predict_tail_ms"] = ms(o.idle.ref.lat.tail)
	o.layer["predict_max_rps"] = o.idle.maxRPS
	o.layer["loadgen.tail_percentile"] = o.idle.ref.lat.tailPct
	o.layer["loadgen.samples"] = float64(o.idle.ref.lat.n)
	m := make(map[string]metric, len(perLayerMetrics))
	for _, pm := range perLayerMetrics {
		m[pm[0]] = metric{o.layer[pm[0]], pm[1]}
	}
	for k := range o.layer {
		if _, ok := m[k]; !ok {
			fmt.Fprintf(os.Stderr, "unlisted per-layer metric %s = %g\n", k, o.layer[k])
		}
	}
	r := o.result(m)
	r.Correct = o.failed == 0 && plain.failed == 0
	r.Attempted += plain.attempted
	r.Failed += plain.failed
	return r
}

// reportLayers records the per-layer numbers of one engine report: stage
// walls by phase, the unattributed rest of the fit wall, Phase II load
// imbalance, retries, and transport pushes.
func reportLayers(rep *engine.Report, fitWall time.Duration, n int) map[string]float64 {
	l := make(map[string]float64)
	var staged time.Duration
	for _, s := range rep.Stages {
		staged += s.Wall
		switch {
		case strings.HasSuffix(s.Name, "-push"):
			l["transport.push_s"] += s.Wall.Seconds()
			l["transport.push_mb"] += float64(s.Bytes) / mb
		case s.Phase == "I-1":
			l["core.I-1_s"] += s.Wall.Seconds()
		case s.Phase == "I-2":
			l["core.I-2_s"] += s.Wall.Seconds()
		case s.Phase == "II":
			l["core.II_s"] += s.Wall.Seconds()
		case strings.HasPrefix(s.Phase, "III"):
			l["core.III_s"] += s.Wall.Seconds()
		}
		l["engine.retries"] += float64(s.Retries)
	}
	if s := rep.Stage("cell-graph-construction"); s != nil {
		l["engine.imbalance"] = s.Imbalance()
	}
	l["engine.unattributed_s"] = (fitWall - staged).Seconds()
	if n > 0 {
		l["core.II_ns_per_point"] = l["core.II_s"] * 1e9 / float64(n)
	}
	return l
}

// stageSpans lists a report's stages for laying out in the trace.
func stageSpans(rep *engine.Report) []stageSpan {
	out := make([]stageSpan, 0, len(rep.Stages))
	for _, s := range rep.Stages {
		layer := "core"
		if strings.HasSuffix(s.Name, "-push") {
			layer = "transport"
		}
		out = append(out, stageSpan{name: s.Phase + " " + s.Name, layer: layer, wall: s.Wall})
	}
	return out
}

// medianLayers sets each key of out to the median of its values across
// maps.
func medianLayers(out map[string]float64, maps []map[string]float64) {
	keys := make(map[string]bool)
	for _, m := range maps {
		for k := range m {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, m := range maps {
			xs = append(xs, m[k])
		}
		out[k] = medianF(xs)
	}
}

// queryPoints draws a seeded pool of predict queries: training points
// jittered by eps/2, so answers mix cluster hits and noise.
func queryPoints(coords []float64, dim int, eps float64, count int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := len(coords) / dim
	out := make([][]float64, count)
	for i := range out {
		j := rng.Intn(n)
		p := make([]float64, dim)
		for d := range p {
			p[d] = coords[j*dim+d] + rng.NormFloat64()*eps/2
		}
		out[i] = p
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
