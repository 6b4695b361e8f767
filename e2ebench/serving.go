package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
)

// How many times a run boots its server from the registry.
const (
	bootMin    = 3
	bootMax    = 9
	bootBudget = 3 * time.Second
)

// bootTimes splits boot_s: registry.Open to the first 200 from /healthz.
type bootTimes struct {
	total, open, headLoad, decode time.Duration
	blobBytes                     int
}

// serveDeployment boots the registry at regDir (online behind rc when
// non-nil), runs the idle serving phase, then phase (the online refit
// phase, if any), shuts down, and checks the served answers and the
// registry.
func serveDeployment(out *outcome, regDir string, rc *serve.RefitConfig, pts *geom.Points, seed int64, idleBudget time.Duration,
	tr *tracer, root int, phase func(d *deployment, c *client, queries [][]float64, keep *[]sampledReply) error) error {
	// Boot at least bootMin times and until bootBudget is spent (at most
	// bootMax); boot_s is the median, and the last boot serves. One
	// decode of a large artifact varies by a fifth from call to call.
	var d *deployment
	bootStart := time.Now()
	for r := 0; ; r++ {
		var err error
		tr.do("runtime.GC", "bench", root, func(int) { runtime.GC() })
		tr.do("boot", "serve", root, func(id int) {
			var brc *serve.RefitConfig
			if rc != nil {
				c := *rc
				c.BufferDir = fmt.Sprintf("%s-%d", rc.BufferDir, r)
				brc = &c
			}
			d, out.boot, err = boot(regDir, brc, tr, id)
		})
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		out.boots = append(out.boots, out.boot.total)
		if r+1 >= bootMax || (r+1 >= bootMin && time.Since(bootStart) >= bootBudget) {
			break
		}
		tr.do("shutdown", "serve", root, func(int) { err = d.shutdown() })
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	out.layer["registry.open_s"] = out.boot.open.Seconds()
	out.layer["registry.head_load_s"] = out.boot.headLoad.Seconds()
	out.layer["registry.blob_mb"] = float64(out.boot.blobBytes) / mb
	out.layer["serve.decode_s"] = out.boot.decode.Seconds()
	queries := queryPoints(pts.Coords, pts.Dim, out.cfg.eps, 4096, seed)
	var keep []sampledReply
	// Collect the garbage earlier phases left, so the serving phase does
	// not pay their collection debt.
	tr.do("runtime.GC", "bench", root, func(int) { runtime.GC() })
	err := serveIdle(out, d.base, queries, idleBudget, &keep, tr, root)
	if err == nil && phase != nil {
		c := newClient(d.base)
		err = phase(d, c, queries, &keep)
		c.close()
	}
	var serr error
	tr.do("shutdown", "serve", root, func(int) { serr = d.shutdown() })
	if err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("shutdown: %w", serr)
	}
	out.layer["loadgen.lag_tail_ms"] = max(out.layer["loadgen.lag_tail_ms"], ms(out.idle.lagTail))
	if err := kernelLayers(out, d.model, queries); err != nil {
		return err
	}
	// The registry is closed now; reopen it read-side for the checks.
	reg, err := registry.Open(regDir)
	if err != nil {
		return err
	}
	defer reg.Close()
	d.reg = reg
	tr.do("check replies+registry", "check", root, func(int) {
		out.check(checkReplies(keep, d.modelAt()))
		_, verr := reg.Verify()
		out.check(verr)
	})
	return nil
}

// deployment is a booted server and what it serves from.
type deployment struct {
	reg      *registry.Registry
	head     registry.Record
	model    *serve.Model
	refitter *serve.Refitter
	srv      *serve.Server
	base     string
}

// boot opens the registry at dir, loads its head generation, and starts a
// loopback server on it: frozen when rc is nil, online behind a Refitter
// built from rc otherwise. It returns once /healthz answers 200.
func boot(dir string, rc *serve.RefitConfig, tr *tracer, parent int) (*deployment, bootTimes, error) {
	var bt bootTimes
	d := &deployment{}
	start := time.Now()
	var err error
	tr.do("registry.Open", "registry", parent, func(int) { d.reg, err = registry.Open(dir) })
	bt.open = time.Since(start)
	if err != nil {
		return nil, bt, err
	}
	ok := false
	defer func() {
		if !ok {
			d.reg.Close()
		}
	}()
	var found bool
	if d.head, found = d.reg.Head(); !found {
		return nil, bt, fmt.Errorf("registry %s has no head", dir)
	}
	t := time.Now()
	tr.do("Blob+serve.Load", "registry", parent, func(int) {
		var blob []byte
		if blob, err = d.reg.Blob(d.head.ModelHash); err != nil {
			return
		}
		bt.blobBytes = len(blob)
		t := time.Now()
		d.model, err = serve.Load(bytes.NewReader(blob))
		bt.decode = time.Since(t)
	})
	bt.headLoad = time.Since(t)
	if err != nil {
		return nil, bt, err
	}
	tr.do("server start", "serve", parent, func(int) {
		cfg := serve.ServerConfig{}
		if rc != nil {
			c := *rc
			c.Registry, c.Boot, c.BootVersion = d.reg, d.model, d.head.Version
			if d.refitter, err = serve.NewRefitter(c); err != nil {
				return
			}
			cfg.Refitter = d.refitter
			d.srv = serve.NewServer(nil, cfg)
		} else {
			cfg.Static = &serve.Snapshot{Model: d.model, Version: d.head.Version, Watermark: d.head.Watermark}
			d.srv = serve.NewServer(nil, cfg)
		}
		var addr net.Addr
		if addr, err = d.srv.Start("127.0.0.1:0"); err == nil {
			d.base = "http://" + addr.String()
		}
	})
	if err != nil {
		return nil, bt, err
	}
	c := newClient(d.base)
	defer c.close()
	tr.do("healthz", "http", parent, func(int) {
		for deadline := time.Now().Add(10 * time.Second); ; {
			code, gerr := c.get("/healthz")
			if gerr == nil && code == 200 {
				return
			}
			if time.Now().After(deadline) {
				err = fmt.Errorf("healthz never answered 200 (last %d, %v)", code, gerr)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	bt.total = time.Since(start)
	if err != nil {
		d.shutdown()
		return nil, bt, err
	}
	ok = true
	return d, bt, nil
}

// shutdown drains the listener, then closes the refitter (which fits every
// watermark already crossed) and the registry.
func (d *deployment) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if d.refitter != nil {
		if rerr := d.refitter.Close(); err == nil {
			err = rerr
		}
	}
	if rerr := d.reg.Close(); err == nil {
		err = rerr
	}
	return err
}

// modelAt resolves a served version to the model decoded from its
// registry blob, caching decodes; the booted head is decoded already.
func (d *deployment) modelAt() func(int64) (*serve.Model, error) {
	cache := make(map[int64]*serve.Model)
	if d.model != nil {
		cache[d.head.Version] = d.model
	}
	return func(v int64) (*serve.Model, error) {
		if m, ok := cache[v]; ok {
			return m, nil
		}
		rec, ok := d.reg.ByVersion(v)
		if !ok {
			return nil, fmt.Errorf("no registry record for version %d", v)
		}
		blob, err := d.reg.Blob(rec.ModelHash)
		if err != nil {
			return nil, err
		}
		m, err := serve.Decode(blob)
		if err != nil {
			return nil, err
		}
		cache[v] = m
		return m, nil
	}
}

// idleStats is the idle serving phase: the rate ladder and closed-loop
// batches.
type idleStats struct {
	ref             loopStats
	maxRPS          float64
	batchPointsPerS float64
	lagTail         time.Duration
}

// replySampleEvery keeps one served answer in this many for checking.
const replySampleEvery = 8

// predictSender returns a send func for open-loop /predict requests on c
// over the query pool, sampling replies into *keep and recording each
// request as a span on lane under parent.
func predictSender(c *client, queries [][]float64, keep *[]sampledReply, tr *tracer, lane, parent int) (func(i int) error, error) {
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(map[string][]float64{"point": q})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return func(i int) error {
		k := i % len(queries)
		id := tr.begin("POST /predict", "http", lane, parent)
		var r predictReply
		err := c.post("/predict", bodies[k], &r)
		tr.end(id)
		if err == nil && i%replySampleEvery == 0 {
			*keep = append(*keep, sampledReply{points: queries[k : k+1], preds: []serve.Prediction{r.Prediction}, version: r.ModelVersion})
		}
		return err
	}, nil
}

// refineSteps is how many bisection steps refine predict_max_rps between
// the highest ladder rate that holds the latency limit and the first that
// does not.
const refineSteps = 3

// Shares of the idle serving budget. The reference rate's time and the
// batches' time are each split into windows spread over the phase, so a
// burst of load from outside the benchmark lands in one of them, not in
// all their samples.
const (
	refShare    = 0.4
	ladderShare = 0.2
	batchShare  = 0.4
	windows     = 3
)

// serveIdle runs the idle serving phase against base within budget:
// single /predict requests open loop on one connection at the reference
// rate and up a ladder of rates to the first that misses the latency
// limit, bisecting between the last rate that held and the first that
// missed; closed-loop /predict/batch on the same connection between them.
func serveIdle(out *outcome, base string, queries [][]float64, budget time.Duration, keep *[]sampledReply, tr *tracer, parent int) error {
	cfg := out.cfg
	c := newClient(base)
	defer c.close()
	var st idleStats
	run := func(rate float64, dur time.Duration) ([]timing, error) {
		var ts []timing
		var err error
		tr.do(fmt.Sprintf("predict %.0f/s", rate), "bench", parent, func(id int) {
			var send func(int) error
			if send, err = predictSender(c, queries, keep, tr, laneMain, id); err != nil {
				return
			}
			ts = openLoop(rate, dur, nil, send)
		})
		for _, t := range ts {
			out.op(t.err)
		}
		return ts, err
	}
	var refTs [][]timing
	refWindow := func() error {
		ts, err := run(cfg.refRate, time.Duration(float64(budget)*refShare/windows))
		refTs = append(refTs, ts)
		return err
	}

	// Closed-loop batches: the next batch goes out when the previous
	// reply is in. Throughput is that of the median request over all
	// windows, which a burst of outside load moves less than a mean.
	batches := make([][]byte, 0, 8)
	for b := 0; b < 8; b++ {
		pts := make([][]float64, cfg.batchSize)
		for j := range pts {
			pts[j] = queries[(b*cfg.batchSize+j)%len(queries)]
		}
		body, err := json.Marshal(map[string][][]float64{"points": pts})
		if err != nil {
			return err
		}
		batches = append(batches, body)
	}
	var durs []time.Duration
	batchWindow := func() {
		tr.do("batch closed loop", "bench", parent, func(id int) {
			window := time.Duration(float64(budget) * batchShare / windows)
			for start := time.Now(); time.Since(start) < window; {
				i := len(durs)
				rid := tr.begin("POST /predict/batch", "http", laneMain, id)
				t := time.Now()
				var r batchReply
				perr := c.post("/predict/batch", batches[i%len(batches)], &r)
				durs = append(durs, time.Since(t))
				tr.end(rid)
				out.op(perr)
				if perr != nil || i%replySampleEvery != 0 {
					continue
				}
				b := i % len(batches)
				pts := make([][]float64, cfg.batchSize)
				for j := range pts {
					pts[j] = queries[(b*cfg.batchSize+j)%len(queries)]
				}
				*keep = append(*keep, sampledReply{points: pts, preds: r.Predictions, version: r.ModelVersion})
			}
		})
	}
	note := func(s loopStats) {
		st.lagTail = max(st.lagTail, s.lagTail)
		if s.meetsLimit(latencyLimit) {
			st.maxRPS = max(st.maxRPS, s.achieved)
		}
		fmt.Printf("predict %s\n", s)
	}

	if err := refWindow(); err != nil {
		return err
	}
	batchWindow()
	refHeld := summarise(cfg.refRate, refTs...).meetsLimit(latencyLimit)
	unit := time.Duration(float64(budget) * ladderShare / float64(len(cfg.ladder)-1+refineSteps))
	step := func(rate float64) (bool, error) {
		ts, err := run(rate, unit)
		s := summarise(rate, ts)
		note(s)
		return s.meetsLimit(latencyLimit), err
	}
	// Climb the ladder until a rate above the reference misses the limit.
	held, missed := 0.0, 0.0
	for _, rate := range cfg.ladder {
		ok := refHeld
		if rate != cfg.refRate {
			var err error
			if ok, err = step(rate); err != nil {
				return err
			}
		}
		if ok {
			held, missed = rate, 0
		} else if missed == 0 {
			missed = rate
		}
		if missed > held && rate >= cfg.refRate {
			break
		}
	}
	for i := 0; i < refineSteps && held > 0 && missed > held; i++ {
		mid := (held + missed) / 2
		ok, err := step(mid)
		if err != nil {
			return err
		}
		if ok {
			held = mid
		} else {
			missed = mid
		}
	}
	if err := refWindow(); err != nil {
		return err
	}
	batchWindow()
	if err := refWindow(); err != nil {
		return err
	}
	batchWindow()
	st.batchPointsPerS = float64(cfg.batchSize) / median(durs).Seconds()
	fmt.Printf("batch %d requests of %d points, median %v\n", len(durs), cfg.batchSize, median(durs))
	st.ref = summarise(cfg.refRate, refTs...)
	note(st.ref)
	out.idle = st
	return nil
}

// kernelLayers times the predict kernels directly on the served model:
// Model.Predict per query and Model.PredictBatch per point.
func kernelLayers(out *outcome, m *serve.Model, queries [][]float64) error {
	const reps = 5
	var single []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for _, q := range queries {
			if _, err := m.Predict(q); err != nil {
				return err
			}
		}
		single = append(single, float64(time.Since(t).Nanoseconds())/1e3/float64(len(queries)))
	}
	var batch []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i+out.cfg.batchSize <= len(queries); i += out.cfg.batchSize {
			if _, err := m.PredictBatch(queries[i : i+out.cfg.batchSize]); err != nil {
				return err
			}
		}
		n := len(queries) / out.cfg.batchSize * out.cfg.batchSize
		batch = append(batch, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	out.layer["serve.predict_kernel_us"] = medianF(single)
	out.layer["serve.http_us"] = float64(out.idle.ref.lat.p50)/float64(time.Microsecond) - medianF(single)
	out.layer["serve.batch_kernel_ns_per_point"] = medianF(batch)
	return nil
}

// artifactLayers times serve.New and Encode on the final model's training
// data; they move freshness_s and boot_s. Decode is timed where the
// benchmark decodes the artifact anyway.
func artifactLayers(out *outcome, coords []float64, dim int, labels []int, core []bool, clusters int) (*serve.Model, []byte, error) {
	cfg := out.cfg
	t := time.Now()
	m, err := serve.New(coords, dim, labels, core, cfg.eps, cfg.minPts, cfg.rho, clusters)
	if err != nil {
		return nil, nil, err
	}
	out.layer["serve.model_build_s"] = time.Since(t).Seconds()
	t = time.Now()
	art := m.Encode()
	out.layer["serve.encode_s"] = time.Since(t).Seconds()
	return m, art, nil
}
