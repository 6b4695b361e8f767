package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"rpdbscan"
	"rpdbscan/internal/core"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
	"rpdbscan/internal/transport"
)

// minFits is the fewest timed fits a fit workload makes.
const minFits = 3

// peakGCPercent is the GC target of the warm-up fit, which measures
// peak_heap_mb. The live heap is only known at the end of a GC mark, so
// at the usual target of 100 a mark every time the heap doubles misses or
// catches a short-lived spike by chance; a mark every tenth of the live
// heap catches the peak to within a tenth of it.
const peakGCPercent = 10

// fitResult is the part of a fit the benchmark checks and deploys.
type fitResult struct {
	labels    []int
	core      []bool
	clusters  int
	report    *engine.Report // nil for an untraced resident fit
	subCells  int
	dictBytes int
}

// fitter runs one fit of pts and returns its result.
type fitter func(pts *geom.Points, traced bool) (*fitResult, error)

// runFit is the fit-* workload: set up (generate the input, spawn proc
// workers), fit it repeatedly for most of the budget, check the output,
// then deploy the last fit — model, registry publish, boot — and serve it
// idle for the rest of the budget.
func runFit(out *outcome, seed int64, budget time.Duration, dir string, tr *tracer, root int) error {
	cfg := out.cfg
	var ds datagen.Dataset
	var proc *transport.Proc
	defer func() {
		if proc != nil {
			proc.Close()
		}
	}()
	for r := 0; r < cfg.setupReps; r++ {
		if proc != nil {
			proc.Close()
			proc = nil
		}
		var err error
		t := time.Now()
		tr.do("setup", "bench", root, func(id int) {
			tr.do("datagen", "datagen", id, func(int) { ds = cfg.dataset(cfg.n, seed) })
			if cfg.proc {
				tr.do("spawn workers", "transport", id, func(int) {
					proc, err = transport.NewProc(cfg.workers, transport.Options{})
				})
			}
		})
		if err != nil {
			return err
		}
		out.setup = append(out.setup, time.Since(t))
	}
	pts := ds.Points
	fit := residentFitter(cfg)
	if cfg.proc {
		fit = procFitter(cfg, proc)
	}

	// One warm-up fit, checked but not timed: the first fit of a process
	// also pays for growing the heap. It runs at peakGCPercent and gives
	// peak_heap_mb. Then fit until the fit share of the budget is spent,
	// at least minFits times.
	fitBudget := time.Duration(float64(budget) * (1 - cfg.serveFrac))
	var first, last *fitResult
	var reports []map[string]float64
	var fitStart time.Time
	for warm := true; warm || len(out.fits) < minFits || time.Since(fitStart) < fitBudget; warm = false {
		var res *fitResult
		var err error
		var alloc uint64
		name := "fit"
		if warm {
			name = "warm-up fit"
		}
		// Every fit starts from a collected heap, so none pays for the
		// garbage of the one before.
		tr.do("runtime.GC", "bench", root, func(int) { runtime.GC() })
		t := time.Now()
		tr.do(name, "engine", root, func(id int) {
			if warm {
				defer debug.SetGCPercent(debug.SetGCPercent(peakGCPercent))
			}
			g0 := readGC()
			res, err = fit(pts, tr != nil)
			alloc = readGC().totalAlloc - g0.totalAlloc
			if err == nil && res.report != nil {
				tr.layStages(id, laneMain, t, stageSpans(res.report))
			}
		})
		wall := time.Since(t)
		out.op(err)
		if err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		if first == nil {
			first = res
		}
		last = res
		if warm {
			out.heapSpans = append(out.heapSpans, [2]time.Time{t, t.Add(wall)})
			fitStart = time.Now()
			continue
		}
		out.fits = append(out.fits, wall)
		if res.report != nil {
			l := reportLayers(res.report, wall, pts.N())
			l["core.alloc_mb"] = float64(alloc) / mb
			reports = append(reports, l)
		}
	}
	medianLayers(out.layer, reports)
	out.layer["dict.sub_cells"] = float64(last.subCells)
	out.layer["dict.points_per_sub_cell"] = float64(pts.N()) / float64(last.subCells)
	out.layer["dict.mb"] = float64(last.dictBytes) / mb
	if proc != nil {
		proc.Close()
		proc = nil
		out.layer["transport.worker_maxrss_mb"] = childMaxRSS() / mb
	}

	tr.do("check fit", "check", root, func(int) {
		out.check(checkIdentical("repeated fits", first.labels, last.labels, first.core, last.core))
		out.check(checkFit(fitCheck{coords: pts.Coords, dim: pts.Dim, eps: cfg.eps, minPts: cfg.minPts,
			rho: cfg.rho, labels: last.labels, core: last.core}, cfg.checkSample, seed))
	})
	if cfg.proc && tr != nil {
		// The traced run also fits the same input on the simulator: the
		// two backends must agree byte for byte, and the wall difference
		// is what the transport costs.
		var sim *fitResult
		var err error
		t := time.Now()
		tr.do("sim fit", "engine", root, func(int) { sim, err = residentFitter(cfg)(pts, false) })
		simWall := time.Since(t)
		out.untracedExtra += simWall
		out.op(err)
		if err != nil {
			return fmt.Errorf("sim fit: %w", err)
		}
		out.layer["transport.overhead_s"] = (median(out.fits) - simWall).Seconds()
		tr.do("check proc = sim", "check", root, func(int) {
			out.check(checkIdentical("proc fit vs sim fit", last.labels, sim.labels, last.core, sim.core))
		})
	}

	// Deploy: model, artifact, registry publish, boot, idle serving.
	regDir := filepath.Join(dir, "registry")
	var m *serve.Model
	var art []byte
	var err error
	tr.do("serve.New+Encode", "serve", root, func(int) {
		m, art, err = artifactLayers(out, pts.Coords, pts.Dim, last.labels, last.core, last.clusters)
	})
	if err != nil {
		return err
	}
	tr.do("registry.Publish", "registry", root, func(int) {
		var reg *registry.Registry
		if reg, err = registry.Open(regDir); err != nil {
			return
		}
		_, err = reg.Publish(art, registry.Record{Version: 1, ModelHash: m.Checksum(), Watermark: int64(pts.N()),
			Points: int64(m.Len()), Clusters: int64(last.clusters), Bytes: int64(len(art)),
			FitNs: median(out.fits).Nanoseconds()})
		if cerr := reg.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	return serveDeployment(out, regDir, nil, pts, seed, time.Duration(float64(budget)*cfg.serveFrac), tr, root, nil)
}

// residentFitter fits in process on the simulator: the public
// rpdbscan.ClusterFlat untraced; core.Run with the same engine set-up
// traced, whose engine report gives the stage walls.
func residentFitter(cfg config) fitter {
	return func(pts *geom.Points, traced bool) (*fitResult, error) {
		if !traced {
			res, err := rpdbscan.ClusterFlat(pts.Coords, pts.Dim, rpdbscan.Options{
				Eps: cfg.eps, MinPts: cfg.minPts, Rho: cfg.rho, Workers: cfg.workers})
			if err != nil {
				return nil, err
			}
			return &fitResult{labels: res.Labels, core: res.Core, clusters: res.NumClusters,
				subCells: res.Stats.SubCells, dictBytes: res.Stats.DictionaryBytes}, nil
		}
		cl := engine.New(cfg.workers)
		cl.Sink = obs.NewSink(nil)
		return coreFit(pts, core.Config{Eps: cfg.eps, MinPts: cfg.minPts, Rho: cfg.rho}, cl)
	}
}

// procFitter fits with core.Run on the multi-process transport p.
func procFitter(cfg config, p *transport.Proc) fitter {
	return func(pts *geom.Points, _ bool) (*fitResult, error) {
		cl := engine.New(cfg.workers)
		cl.Sink = obs.NewSink(nil)
		p.Bind(cl)
		return coreFit(pts, core.Config{Eps: cfg.eps, MinPts: cfg.minPts, Rho: cfg.rho, Backend: core.BackendProc}, cl)
	}
}

func coreFit(pts *geom.Points, cc core.Config, cl *engine.Cluster) (*fitResult, error) {
	res, err := core.Run(pts, cc, cl)
	if err != nil {
		return nil, err
	}
	return &fitResult{labels: res.Labels, core: res.CorePoint, clusters: res.NumClusters, report: res.Report,
		subCells: res.NumSubCells, dictBytes: res.DictBytes}, nil
}
