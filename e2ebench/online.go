package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rpdbscan"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
)

// swapLog collects the refitter's SwapEvents with the time each arrived.
type swapLog struct {
	mu     sync.Mutex
	events []swapRecord
}

type swapRecord struct {
	at time.Time
	ev serve.SwapEvent
}

func (l *swapLog) add(ev serve.SwapEvent) {
	l.mu.Lock()
	l.events = append(l.events, swapRecord{at: time.Now(), ev: ev})
	l.mu.Unlock()
}

func (l *swapLog) snapshot() []swapRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]swapRecord(nil), l.events...)
}

// ingestReply is the client's view of an /ingest answer.
type ingestReply struct {
	Accepted    int   `json:"accepted"`
	TotalPoints int64 `json:"total_points"`
}

// refitTimeout bounds the wait for the last generation after ingest ends.
const refitTimeout = 90 * time.Second

// runOnline is the online-geolife workload: set up a registry whose head
// is a fit of the stream's first bootN points, boot a server with a
// Refitter from it, serve idle, then ingest the whole stream while
// predicts continue, and check every generation and served answer.
func runOnline(out *outcome, seed int64, budget time.Duration, dir string, tr *tracer, root int) error {
	cfg := out.cfg
	var ds datagen.Dataset
	var regDir string
	for r := 0; r < cfg.setupReps; r++ {
		regDir = filepath.Join(dir, fmt.Sprintf("registry-%d", r))
		var err error
		t := time.Now()
		tr.do("setup", "bench", root, func(id int) {
			tr.do("datagen", "datagen", id, func(int) { ds = cfg.dataset(cfg.n, seed) })
			err = publishBoot(cfg, ds.Points, regDir, tr, id)
		})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		out.setup = append(out.setup, time.Since(t))
	}
	pts := ds.Points
	swaps := &swapLog{}
	rc := &serve.RefitConfig{
		Watermark: int64(cfg.watermark), BufferDir: filepath.Join(dir, "buffer"),
		Eps: cfg.eps, MinPts: cfg.minPts, Rho: cfg.rho, Workers: cfg.workers,
		OnSwap: swaps.add,
	}
	refit := func(d *deployment, c *client, queries [][]float64, keep *[]sampledReply) error {
		return refitPhase(out, d, c, pts, queries, keep, swaps, tr, root)
	}
	idle := time.Duration(float64(budget) * cfg.serveFrac)
	if err := serveDeployment(out, regDir, rc, pts, seed, idle, tr, root, refit); err != nil {
		return err
	}
	return finalGeneration(out, regDir, pts, seed, tr, root)
}

// publishBoot fits the first bootN points of the stream and publishes the
// model as generation 1 of a fresh registry at dir.
func publishBoot(cfg config, pts *geom.Points, dir string, tr *tracer, parent int) error {
	boot := pts.Coords[:cfg.bootN*pts.Dim]
	var res *rpdbscan.Result
	var err error
	tr.do("boot-generation fit", "engine", parent, func(int) {
		var src rpdbscan.StreamSource
		if src, err = rpdbscan.SliceSource(boot, pts.Dim); err != nil {
			return
		}
		res, err = rpdbscan.ClusterStream(src, rpdbscan.StreamOptions{Options: rpdbscan.Options{
			Eps: cfg.eps, MinPts: cfg.minPts, Rho: cfg.rho, Workers: cfg.workers}})
	})
	if err != nil {
		return err
	}
	tr.do("publish", "registry", parent, func(int) {
		var m *serve.Model
		if m, err = serve.New(boot, pts.Dim, res.Labels, res.Core, cfg.eps, cfg.minPts, cfg.rho, res.NumClusters); err != nil {
			return
		}
		art := m.Encode()
		var reg *registry.Registry
		if reg, err = registry.Open(dir); err != nil {
			return
		}
		_, err = reg.Publish(art, registry.Record{Version: 1, ModelHash: m.Checksum(), Watermark: int64(cfg.bootN),
			Points: int64(m.Len()), Clusters: int64(res.NumClusters), Bytes: int64(len(art))})
		if cerr := reg.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// refitPhase ingests the whole stream in fixed batches, open loop on its
// own connection, while single predicts continue at the reference rate on
// c, until the refitter has resolved every watermark.
func refitPhase(out *outcome, d *deployment, c *client, pts *geom.Points, queries [][]float64, keep *[]sampledReply,
	swaps *swapLog, tr *tracer, root int) error {
	cfg := out.cfg
	phase := tr.begin("refit phase", "serve", laneMain, root)
	defer tr.end(phase)
	spill0, reload0 := obs.Counters.StreamSpillBytes.Value(), obs.Counters.StreamSpillReloads.Value()
	start := time.Now()

	var predKeep []sampledReply
	send, err := predictSender(c, queries, &predKeep, tr, lanePredict, phase)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var predTs []timing
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		predTs = openLoop(cfg.refRate, 0, stop, send)
	}()

	ic := newClient(d.base)
	defer ic.close()
	w := int64(cfg.watermark)
	crossed := make(map[int64]time.Time) // version -> reply that crossed its watermark
	batches := cfg.n / cfg.ingestBatch
	rate := cfg.ingestRate / float64(cfg.ingestBatch)
	ingestTs := openLoop(rate, time.Duration((float64(batches)-0.5)/rate*float64(time.Second)), nil, func(i int) error {
		lo, hi := i*cfg.ingestBatch*pts.Dim, (i+1)*cfg.ingestBatch*pts.Dim
		batch := make([][]float64, 0, cfg.ingestBatch)
		for j := lo; j < hi; j += pts.Dim {
			batch = append(batch, pts.Coords[j:j+pts.Dim])
		}
		body, err := json.Marshal(map[string][][]float64{"points": batch})
		if err != nil {
			return err
		}
		id := tr.begin("POST /ingest", "http", laneIngest, phase)
		var r ingestReply
		err = ic.post("/ingest", body, &r)
		tr.end(id)
		if err != nil {
			return err
		}
		now := time.Now()
		for v := (r.TotalPoints-int64(r.Accepted))/w + 1; v*w <= r.TotalPoints; v++ {
			crossed[v] = now
		}
		return nil
	})

	// Wait until the refitter has resolved every crossed watermark past
	// the boot generation.
	want := int64(cfg.n/cfg.watermark) - d.head.Version
	deadline := time.Now().Add(refitTimeout)
	for int64(len(swaps.snapshot())) < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	*keep = append(*keep, predKeep...)
	events := swaps.snapshot()
	if int64(len(events)) < want {
		out.op(fmt.Errorf("refit: %d of %d generations resolved within %v of the last ingest", len(events), want, refitTimeout))
	}

	for _, t := range predTs {
		out.op(t.err)
	}
	for _, t := range ingestTs {
		out.op(t.err)
	}
	pred, ing := summarise(cfg.refRate, predTs), summarise(rate, ingestTs)
	fmt.Printf("refit-phase predict %s\nrefit-phase ingest %s\n", pred, ing)
	out.layer["predict_refit_tail_ms"] = ms(pred.lat.tail)
	out.layer["ingest_tail_ms"] = ms(ing.lat.tail)
	out.layer["loadgen.lag_tail_ms"] = ms(max(pred.lagTail, ing.lagTail))
	out.layer["spill.mb"] = float64(obs.Counters.StreamSpillBytes.Value()-spill0) / mb
	out.layer["spill.reloads"] = float64(obs.Counters.StreamSpillReloads.Value() - reload0)
	refitLayers(out, events, crossed, want, tr, phase)
	fmt.Printf("refit phase: %d generations in %v\n", len(events), time.Since(start))
	return nil
}

// refitLayers derives the refit numbers from the swap events: fit walls
// (fit_s online is their median), freshness from the crossing ingest
// reply to the swap, the backlog of crossed but unswapped watermarks, and
// the summed engine stage walls. want generations must have swapped in.
func refitLayers(out *outcome, events []swapRecord, crossed map[int64]time.Time, want int64, tr *tracer, parent int) {
	var fresh, swapDur []time.Duration
	var reports []map[string]float64
	type mark struct {
		at    time.Time
		delta int
	}
	var marks []mark
	for _, at := range crossed {
		marks = append(marks, mark{at, 1})
	}
	generations := 0
	for _, e := range events {
		out.op(e.ev.Err)
		if e.ev.Err != nil {
			continue
		}
		generations++
		out.fits = append(out.fits, e.ev.FitDuration)
		swapDur = append(swapDur, e.ev.SwapDuration)
		if at, ok := crossed[e.ev.Version]; ok {
			fresh = append(fresh, e.at.Sub(at))
		}
		marks = append(marks, mark{e.at, -1})
		swapStart := e.at.Add(-e.ev.SwapDuration)
		fitStart := swapStart.Add(-e.ev.FitDuration)
		out.heapSpans = append(out.heapSpans, [2]time.Time{fitStart, swapStart})
		id := tr.record(fmt.Sprintf("refit v%d", e.ev.Version), "engine", laneRefit, parent, fitStart, swapStart)
		tr.record(fmt.Sprintf("publish+swap v%d", e.ev.Version), "registry", laneRefit, parent, swapStart, e.at)
		if e.ev.Report != nil {
			tr.layStages(id, laneRefit, fitStart, stageSpans(e.ev.Report))
			reports = append(reports, reportLayers(e.ev.Report, e.ev.FitDuration, int(e.ev.Watermark)))
		}
	}
	sum := make(map[string]float64)
	for _, r := range reports {
		for k, v := range r {
			sum[k] += v
		}
	}
	for _, k := range []string{"core.I-1_s", "core.I-2_s", "core.II_s", "core.III_s", "engine.retries", "engine.unattributed_s"} {
		out.layer[k] = sum[k]
	}
	if len(reports) > 0 {
		last := reports[len(reports)-1]
		out.layer["core.II_ns_per_point"] = last["core.II_ns_per_point"]
		out.layer["engine.imbalance"] = last["engine.imbalance"]
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].at.Before(marks[j].at) })
	backlog, peak := 0, 0
	for _, m := range marks {
		backlog += m.delta
		peak = max(peak, backlog)
	}
	out.layer["refit.backlog_max"] = float64(peak)
	out.layer["refit.generations"] = float64(generations)
	out.layer["refit.swap_s"] = median(swapDur).Seconds()
	out.layer["freshness_s"] = median(fresh).Seconds()
	if generations > 0 {
		out.layer["refit.fit_first_s"] = out.fits[0].Seconds()
		out.layer["refit.fit_last_s"] = out.fits[len(out.fits)-1].Seconds()
	}
	if int64(generations) != want {
		out.check(fmt.Errorf("refit: %d generations swapped in, want %d", generations, want))
	} else {
		out.check(nil)
	}
}

// finalGeneration checks the last generation's fit against the region
// query contract and times the artifact layers on it.
func finalGeneration(out *outcome, regDir string, pts *geom.Points, seed int64, tr *tracer, root int) error {
	reg, err := registry.Open(regDir)
	if err != nil {
		return err
	}
	defer reg.Close()
	head, ok := reg.Head()
	if !ok {
		return fmt.Errorf("registry has no head")
	}
	blob, err := reg.Blob(head.ModelHash)
	if err != nil {
		return err
	}
	t := time.Now()
	m, err := serve.Decode(blob)
	if err != nil {
		return err
	}
	out.layer["serve.decode_s"] = time.Since(t).Seconds()
	n := m.Len()
	labels, core := make([]int, n), make([]bool, n)
	clusters := 0
	for i := range labels {
		labels[i], core[i] = m.TrainingLabel(i), m.TrainingCore(i)
		clusters = max(clusters, labels[i]+1)
	}
	coords := pts.Coords[:n*pts.Dim]
	tr.do("check final generation", "check", root, func(int) {
		if n != pts.N() {
			out.check(fmt.Errorf("final generation holds %d points, the stream %d", n, pts.N()))
		}
		out.check(checkFit(fitCheck{coords: coords, dim: pts.Dim, eps: out.cfg.eps, minPts: out.cfg.minPts,
			rho: out.cfg.rho, labels: labels, core: core}, out.cfg.checkSample, seed))
	})
	tr.do("artifact layers", "serve", root, func(int) {
		_, _, err = artifactLayers(out, coords, pts.Dim, labels, core, clusters)
	})
	return err
}
