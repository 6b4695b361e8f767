package serve

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rpdbscan/internal/core"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/frame"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/registry"
)

// Snapshot is one immutable served-model generation. The refitter
// publishes snapshots through an atomic pointer; handlers load the pointer
// once per request, so every reply is internally consistent (model,
// version, and watermark always agree) and a hot swap is invisible to
// in-flight requests.
type Snapshot struct {
	// Model is the generation's immutable model.
	Model *Model
	// Version is the generation number: watermark / RefitConfig.Watermark
	// for refitted generations, or the boot version for a warm start.
	// Versions are strictly increasing across swaps but may skip numbers
	// (a failed refit leaves a gap; the old generation keeps serving).
	Version int64
	// Watermark is the exact count of ingested points the model was
	// fitted on. Zero for a warm-start model whose training stream is not
	// the ingest stream.
	Watermark int64
	// ParentHash is the artifact checksum ("fnv1a:%016x") of the
	// generation that was serving when this one swapped in; "" for the
	// first generation. The chain makes served lineage auditable.
	ParentHash string
}

// VersionInfo is Info extended with the snapshot's generation fields —
// what /model/info reports when the server runs a refitter.
type VersionInfo struct {
	Info
	// Version is the served generation number.
	Version int64 `json:"version"`
	// Watermark is the ingested-point count the generation was fitted on.
	Watermark int64 `json:"watermark"`
	// ParentHash is the predecessor generation's checksum ("" for the
	// first).
	ParentHash string `json:"parent_hash"`
}

// SwapEvent describes one refit attempt, delivered to RefitConfig.OnSwap
// after the attempt resolves (swap or failure). The differential and bench
// harnesses consume these; production wires them to slog.
type SwapEvent struct {
	// Version and Watermark identify the attempted generation.
	Version   int64
	Watermark int64
	// Checksum is the new artifact checksum ("fnv1a:%016x"); "" on
	// failure.
	Checksum string
	// ParentHash is the checksum of the generation serving before the
	// attempt.
	ParentHash string
	// ArtifactPath is the persisted artifact's path ("" without a model
	// dir or on failure).
	ArtifactPath string
	// Report carries the fit's engine report (nil if the fit never ran).
	// Chaos harnesses reconcile its fault tally against the injector.
	Report *engine.Report
	// FitDuration is the RunStream + model-build wall time; SwapDuration
	// the persist + validate + pointer-flip window.
	FitDuration  time.Duration
	SwapDuration time.Duration
	// Err is nil when the generation swapped in; otherwise the old
	// generation kept serving and Err says why.
	Err error
}

// RefitConfig configures a Refitter. Watermark is required; everything
// else has serviceable defaults.
type RefitConfig struct {
	// Watermark is the refit cadence in points: a refit runs at every
	// exact multiple (W, 2W, 3W, ...) of ingested points, each over the
	// full prefix up to that multiple. Required, > 0.
	Watermark int64
	// ModelDir, when set, is the model-registry root: every swap publishes
	// its artifact content-addressed (blobs/<hash>.rpm1) with a fit record
	// appended to the registry's tamper-evident manifest. Empty keeps
	// models in memory only.
	ModelDir string
	// Registry, when set, is the registry to publish through (the caller
	// keeps ownership). Nil with a ModelDir makes the refitter open and
	// own one rooted there.
	Registry *registry.Registry
	// BufferDir, when set, backs the ingest buffer with durable spill
	// segments (see IngestBuffer). Empty keeps the buffer memory-only.
	BufferDir string
	// Eps, MinPts, Rho, Partitions, Seed, ChunkSize, Backend mirror the
	// offline fit configuration; a differential harness reproduces any
	// served generation by fitting the same prefix with the same values.
	Eps        float64
	MinPts     int
	Rho        float64 // 0 defaults to 0.01, the paper's value
	Partitions int     // 0 defaults to Workers
	Seed       int64
	ChunkSize  int    // 0 defaults to core.DefaultChunkSize
	Backend    string // "", "sim", or core.BackendProc
	// Workers is the virtual cluster width of each refit; 0 defaults to
	// GOMAXPROCS.
	Workers int
	// Boot, when set, serves from the start as generation BootVersion
	// (with BootParentHash) until the first refit replaces it.
	Boot           *Model
	BootVersion    int64
	BootParentHash string
	// Cluster, when set, supplies the engine cluster for each refit plus
	// a cleanup func; tests use it to bind chaos injectors or a real
	// multi-process transport. Nil builds a plain engine.New(Workers)
	// with the obs sink and Injector below.
	Cluster func() (*engine.Cluster, func(), error)
	// Injector is installed on default-built clusters (ignored when
	// Cluster is set — the factory wires its own).
	Injector engine.Injector
	// OnSwap, when set, receives a SwapEvent per refit attempt,
	// synchronously from the refit goroutine.
	OnSwap func(SwapEvent)
	// Log receives swap/failure records; nil discards them.
	Log *slog.Logger
}

// Refitter owns the online loop: an ingest buffer, a single refit
// goroutine, and the atomically published served snapshot. Ingest is
// non-blocking (appends signal the goroutine and return); refits run
// strictly in watermark order, each over an exact prefix, so the stream of
// published generations is deterministic given the ingest order.
type Refitter struct {
	cfg RefitConfig
	buf *IngestBuffer
	cur atomic.Pointer[Snapshot]

	// reg is the publish target (nil without a model dir); ownReg marks a
	// registry the refitter opened itself and must close.
	reg    *registry.Registry
	ownReg bool
	// configSum fingerprints the fit configuration for manifest records:
	// same prefix + same configSum ⇒ byte-identical artifact.
	configSum uint64

	notify chan struct{} // cap 1: "total may have crossed nextTarget"
	done   chan struct{} // closed when the refit goroutine exits

	mu         sync.Mutex
	nextTarget int64
	closed     bool
}

// NewRefitter opens the buffer (recovering any durable segments), installs
// the boot snapshot, and starts the refit goroutine. If the recovered
// buffer already crosses pending watermarks, the goroutine fits them
// immediately — catch-up is just the normal loop.
func NewRefitter(cfg RefitConfig) (*Refitter, error) {
	if cfg.Watermark <= 0 {
		return nil, fmt.Errorf("serve: refit watermark must be > 0, got %d", cfg.Watermark)
	}
	if cfg.Rho == 0 {
		cfg.Rho = 0.01
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	reg, ownReg := cfg.Registry, false
	if reg == nil && cfg.ModelDir != "" {
		var err error
		if reg, err = registry.Open(cfg.ModelDir); err != nil {
			return nil, fmt.Errorf("serve: model registry: %w", err)
		}
		ownReg = true
	}
	buf, err := NewIngestBuffer(cfg.BufferDir)
	if err != nil {
		if ownReg {
			reg.Close()
		}
		return nil, err
	}
	r := &Refitter{
		cfg:       cfg,
		buf:       buf,
		reg:       reg,
		ownReg:    ownReg,
		configSum: configFingerprint(cfg),
		notify:    make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if cfg.Boot != nil {
		r.cur.Store(&Snapshot{
			Model:      cfg.Boot,
			Version:    cfg.BootVersion,
			Watermark:  cfg.BootVersion * cfg.Watermark,
			ParentHash: cfg.BootParentHash,
		})
	}
	r.nextTarget = (cfg.BootVersion + 1) * cfg.Watermark
	go r.loop()
	r.wake() // recovered buffer may already cross pending watermarks
	return r, nil
}

// Current returns the served snapshot, or nil before any model exists
// (cold start, first watermark not yet crossed).
func (r *Refitter) Current() *Snapshot { return r.cur.Load() }

// Buffer exposes the ingest buffer (the HTTP layer appends to it).
func (r *Refitter) Buffer() *IngestBuffer { return r.buf }

// Registry exposes the publish target (nil without a model dir). Callers
// must not Close a registry they did not pass in.
func (r *Refitter) Registry() *registry.Registry { return r.reg }

// configFingerprint hashes the fit configuration fields that determine the
// artifact bytes for a given prefix: the manifest's config_sum column.
func configFingerprint(cfg RefitConfig) uint64 {
	parts := cfg.Partitions
	if parts == 0 {
		parts = cfg.Workers
	}
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = core.DefaultChunkSize
	}
	buf := make([]byte, 0, 64)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(cfg.Eps))
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.MinPts))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(cfg.Rho))
	buf = binary.BigEndian.AppendUint64(buf, uint64(parts))
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.Seed))
	buf = binary.BigEndian.AppendUint64(buf, uint64(chunk))
	buf = append(buf, cfg.Backend...)
	return frame.Sum64(buf)
}

// Watermark returns the refit cadence in points.
func (r *Refitter) Watermark() int64 { return r.cfg.Watermark }

// Ingest appends one batch and signals the refit loop. It returns the
// buffer's new total and whether that total reaches the next refit target
// (the "refit queued" bit of the /ingest reply).
func (r *Refitter) Ingest(coords []float64, dim int) (total int64, queued bool, err error) {
	total, err = r.buf.Append(coords, dim)
	if err != nil {
		return 0, false, err
	}
	obs.Counters.IngestPoints.Add(int64(len(coords) / dim))
	obs.Histograms.IngestBatchPoints.Record(int64(len(coords) / dim))
	r.mu.Lock()
	queued = total >= r.nextTarget && !r.closed
	r.mu.Unlock()
	if queued {
		r.wake()
	}
	return total, queued, nil
}

// NextWatermark returns the next refit target in points.
func (r *Refitter) NextWatermark() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextTarget
}

// wake nudges the refit goroutine without blocking.
func (r *Refitter) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// Close stops the refit goroutine — after draining every watermark already
// crossed, so a test that ingested past k watermarks observes all k swaps
// by closing — then seals the buffer.
func (r *Refitter) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.wake()
	<-r.done
	err := r.buf.Close()
	if r.ownReg {
		if rerr := r.reg.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// loop is the refit goroutine: wait for a signal, then fit every crossed
// watermark in order. Exactly one fit runs at a time; ingest never blocks
// on it.
func (r *Refitter) loop() {
	defer close(r.done)
	for {
		<-r.notify
		for {
			r.mu.Lock()
			target, closed := r.nextTarget, r.closed
			r.mu.Unlock()
			if r.buf.Total() < target {
				if closed {
					return
				}
				break
			}
			r.refitTo(target)
			r.mu.Lock()
			r.nextTarget = target + r.cfg.Watermark
			r.mu.Unlock()
		}
	}
}

// refitTo runs one micro-batch refit over the exact prefix [0, target):
// seal the durable segment at the crossing, copy the prefix, fit it with
// RunStream, build the model, persist + validate the artifact, and only
// then flip the served pointer. Any failure keeps the old generation
// serving (no torn swap) and skips the version number.
func (r *Refitter) refitTo(target int64) {
	version := target / r.cfg.Watermark
	parent := ""
	var parentSum uint64
	if cur := r.cur.Load(); cur != nil {
		parent = cur.Model.Info().Checksum
		parentSum = cur.Model.Checksum()
	}
	ev := SwapEvent{Version: version, Watermark: target, ParentHash: parent}
	defer func() {
		if ev.Err != nil {
			obs.Counters.RefitFailures.Add(1)
			if r.cfg.Log != nil {
				r.cfg.Log.Error("refit failed", "version", version, "watermark", target, "err", ev.Err)
			}
		}
		if r.cfg.OnSwap != nil {
			r.cfg.OnSwap(ev)
		}
	}()

	if err := r.buf.Seal(); err != nil {
		ev.Err = err
		return
	}

	fitStart := time.Now()
	m, rep, err := r.fit(target)
	ev.Report = rep
	ev.FitDuration = time.Since(fitStart)
	if err != nil {
		ev.Err = err
		return
	}
	obs.Counters.RefitRuns.Add(1)
	obs.Counters.RefitPoints.Add(target)
	obs.Histograms.RefitDurationNs.Record(int64(ev.FitDuration))

	swapStart := time.Now()
	path, err := r.publish(m, version, target, parentSum, ev.FitDuration)
	if err != nil {
		ev.Err = err
		return
	}
	ev.ArtifactPath = path
	r.cur.Store(&Snapshot{Model: m, Version: version, Watermark: target, ParentHash: parent})
	ev.SwapDuration = time.Since(swapStart)
	ev.Checksum = m.Info().Checksum
	obs.Counters.ModelSwaps.Add(1)
	obs.Histograms.SwapLatencyNs.Record(int64(ev.SwapDuration))
	if r.cfg.Log != nil {
		r.cfg.Log.Info("model swap",
			"version", version, "watermark", target, "checksum", ev.Checksum,
			"parent", parent, "artifact", path,
			"fit_ms", ev.FitDuration.Milliseconds(), "swap_us", ev.SwapDuration.Microseconds())
	}
}

// fit re-clusters the exact prefix with the out-of-core pipeline and
// builds the generation's model. The fit is a pure function of (prefix,
// config) — the differential harness re-runs it offline and asserts
// byte-identical artifacts.
func (r *Refitter) fit(target int64) (*Model, *engine.Report, error) {
	dim := r.buf.Dim()
	pts := &geom.Points{Dim: dim, Coords: r.buf.Prefix(target)}

	cl, cleanup, err := r.cluster()
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()

	cfg := core.StreamConfig{
		Config: core.Config{
			Eps:           r.cfg.Eps,
			MinPts:        r.cfg.MinPts,
			Rho:           r.cfg.Rho,
			NumPartitions: r.cfg.Partitions,
			Seed:          r.cfg.Seed,
			Backend:       r.cfg.Backend,
		},
		ChunkSize: r.cfg.ChunkSize,
	}
	// The out-of-core pipeline is the default substrate. The proc backend
	// routes through core.Run instead — RunStream's stages are
	// simulator-only, while Run dispatches Phase I/II to the cluster's
	// multi-process Transport — and the equivalence batteries pin both
	// paths byte-identical, so the choice never changes the artifact.
	//
	// The engine panics when a task exhausts its retry budget ("a real
	// bug; surface it loudly"), which is right for batch runs but must not
	// take down an online server over one poisoned micro-batch: recover it
	// into a failed refit, keeping the previous generation serving.
	var res *core.Result
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serve: refit run: %v", p)
			}
		}()
		if r.cfg.Backend == core.BackendProc {
			res, err = core.Run(pts, cfg.Config, cl)
		} else {
			res, err = core.RunStream(pointio.FromPoints(pts), cfg, cl)
		}
	}()
	rep := cl.Report()
	if err != nil {
		return nil, rep, err
	}
	m, err := New(pts.Coords, dim, res.Labels, res.CorePoint, r.cfg.Eps, r.cfg.MinPts, r.cfg.Rho, res.NumClusters)
	if err != nil {
		return nil, rep, err
	}
	info := obs.RunInfo{
		Algorithm: "rp", Points: res.PointsProcessed, Clusters: res.NumClusters,
		Cells: res.NumCells, SubCells: res.NumSubCells, DictBytes: res.DictBytes,
	}
	if res.Stream != nil {
		info.Streamed = true
		info.Chunks = res.Stream.Chunks
		info.SpillBytes = res.Stream.SpillBytes
		info.SpillReloads = res.Stream.SpillReloads
	}
	obs.CountRun(rep, info)
	return m, rep, nil
}

// cluster builds the engine cluster for one refit.
func (r *Refitter) cluster() (*engine.Cluster, func(), error) {
	if r.cfg.Cluster != nil {
		return r.cfg.Cluster()
	}
	cl := engine.New(r.cfg.Workers)
	cl.Sink = obs.NewSink(nil)
	cl.Injector = r.cfg.Injector
	return cl, func() {}, nil
}

// publish stores the generation's artifact through the registry and
// validates it end to end before the caller may swap: encode, publish
// (content-addressed blob, fsynced and read back; fit record appended to
// the tamper-evident manifest), then re-read the blob, byte-compare, and
// decode. A model that cannot be proven durable and loadable never
// serves. The manifest record itself rides the registry's batched
// appender, so ledger fsync stays off this path. Returns "" without a
// model dir (in-memory generations skip persistence).
func (r *Refitter) publish(m *Model, version, watermark int64, parent uint64, fitDur time.Duration) (string, error) {
	if r.reg == nil {
		return "", nil
	}
	art := m.Encode()
	sum := m.Checksum()
	rec := registry.Record{
		Version:   version,
		ModelHash: sum,
		Parent:    parent,
		Watermark: watermark,
		ConfigSum: r.configSum,
		Points:    int64(m.Len()),
		Clusters:  int64(m.Info().Clusters),
		Bytes:     int64(len(art)),
		FitNs:     fitDur.Nanoseconds(),
	}
	path, err := r.reg.Publish(art, rec)
	if err != nil {
		return "", fmt.Errorf("serve: publish model: %w", err)
	}
	back, err := r.reg.Blob(sum)
	if err != nil {
		return "", fmt.Errorf("serve: validate artifact %016x: %w", sum, err)
	}
	if string(back) != string(art) {
		return "", fmt.Errorf("serve: validate artifact %016x: readback differs from encoding", sum)
	}
	if _, err := Decode(back); err != nil {
		return "", fmt.Errorf("serve: validate artifact %016x: %w", sum, err)
	}
	return path, nil
}
