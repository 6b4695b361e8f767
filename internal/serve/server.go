package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"time"

	"rpdbscan/internal/frame"
	"rpdbscan/internal/obs"
)

// FaultInjector decides handler-level fault injection. chaos.Injector
// satisfies it: the server addresses each request by its endpoint path
// (stage) and a pure hash of the request body (task), so the set of
// faulted requests is a deterministic function of the request stream —
// independent of arrival order and concurrency — exactly like the
// engine-side chaos schedule.
type FaultInjector interface {
	FailTask(stage string, task, attempt int) bool
}

// ServerConfig parameterizes a Server. The zero value serves with the
// documented defaults and no logging, no chaos.
type ServerConfig struct {
	// MaxBodyBytes caps request body size; larger bodies get 413. Zero
	// defaults to 1 MiB.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently admitted requests (the queue of the
	// backpressure model); excess requests are rejected immediately with
	// 429 so overload sheds load instead of queueing unboundedly. Zero
	// defaults to 256.
	MaxInFlight int
	// MaxBatch caps the number of points in one /predict/batch request;
	// larger batches get 400. Zero defaults to 4096.
	MaxBatch int
	// RequestTimeout bounds one request's read+handle+write on the
	// listener-facing server (http.Server Read/WriteTimeout). Zero
	// defaults to 10s.
	RequestTimeout time.Duration
	// Log receives one access-log record per request at debug level (and
	// warn for 5xx). Nil disables access logging.
	Log *slog.Logger
	// Injector, when non-nil, injects deterministic handler faults
	// (500s) for chaos testing.
	Injector FaultInjector
	// Refitter, when non-nil, runs the server online: /ingest mounts,
	// every reply carries the served model_version, and the served model
	// is whatever snapshot the refitter last published (the boot model
	// passes through RefitConfig.Boot, not NewServer). Nil serves one
	// frozen model forever, exactly as before.
	Refitter *Refitter
	// Static, when non-nil, is the frozen snapshot to serve — a registry
	// pin or rollback with its real version, watermark, and parent hash.
	// Takes precedence over the model passed to NewServer; requires a nil
	// Refitter.
	Static *Snapshot
	// AB, when non-nil, splits prediction traffic deterministically
	// between two pinned snapshots by request hash. Requires a nil
	// Refitter; /model/info reports arm A.
	AB *ABConfig
}

// ABConfig is a deterministic A/B split between two frozen snapshots.
// Routing hashes the request's canonical point encoding, so which arm
// answers is a pure function of the request body — independent of arrival
// order and concurrency, reproducible by anyone holding the split config.
// Every reply's model_version names the arm that served it, which is what
// makes the split observable and auditable from the client side.
type ABConfig struct {
	// A and B are the two serving snapshots.
	A, B *Snapshot
	// SplitMilli is the share of traffic routed to arm A, in thousandths
	// (0..1000).
	SplitMilli int
}

// RouteSingle reports whether a /predict request for point routes to arm
// A. Exported so differential harnesses share the server's exact router.
func (ab *ABConfig) RouteSingle(point []float64) bool {
	return ab.route(encodePoint(point))
}

// RouteBatch reports whether a /predict/batch request routes to arm A.
// The whole batch routes as one unit (one reply, one model_version).
func (ab *ABConfig) RouteBatch(points [][]float64) bool {
	var flat []byte
	for _, p := range points {
		flat = append(flat, encodePoint(p)...)
	}
	return ab.route(flat)
}

func (ab *ABConfig) route(body []byte) bool {
	return frame.Sum64(body)%1000 < uint64(ab.SplitMilli)
}

// pick resolves a routing decision to its snapshot.
func (ab *ABConfig) pick(toA bool) *Snapshot {
	if toA {
		return ab.A
	}
	return ab.B
}

// Server serves predictions from an immutable model snapshot — either one
// frozen Model for the process lifetime, or the live generation published
// by a Refitter. Create with NewServer, mount Handler on any mux or listen
// with Serve/Start, stop with Shutdown (graceful drain: in-flight requests
// complete; a Refitter is closed separately by its owner).
type Server struct {
	static *Snapshot // frozen generation when no Refitter is configured
	cfg    ServerConfig
	sem    chan struct{}
	http   *http.Server
}

// NewServer builds a Server. Without cfg.Refitter, m is the frozen model
// (required). With cfg.Refitter, the refitter supplies the model and m
// must be nil.
func NewServer(m *Model, cfg ServerConfig) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight)}
	switch {
	case cfg.Static != nil:
		s.static = cfg.Static
	case m != nil:
		// A frozen model is generation 0 fitted on its whole training set.
		s.static = &Snapshot{Model: m, Watermark: int64(m.Len())}
	}
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.RequestTimeout,
		WriteTimeout:      cfg.RequestTimeout,
		IdleTimeout:       60 * time.Second,
	}
	return s
}

// current returns the serving snapshot: the refitter's latest generation,
// or the frozen one. Nil means no model exists yet (online cold start
// before the first watermark) and model-backed endpoints answer 503.
// Handlers load it exactly once per request so each reply is internally
// consistent across a concurrent hot swap.
func (s *Server) current() *Snapshot {
	if s.cfg.Refitter != nil {
		return s.cfg.Refitter.Current()
	}
	if s.cfg.AB != nil {
		return s.cfg.AB.A
	}
	return s.static
}

// Handler returns the server's routed handler: /predict, /predict/batch,
// /model/info, /healthz, and — when a Refitter is configured — /ingest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/model/info", s.instrument("/model/info", s.handleInfo))
	mux.HandleFunc("/predict", s.instrument("/predict", s.handlePredict))
	mux.HandleFunc("/predict/batch", s.instrument("/predict/batch", s.handleBatch))
	if s.cfg.Refitter != nil {
		mux.HandleFunc("/ingest", s.instrument("/ingest", s.handleIngest))
	}
	// /metrics mounts raw: scrapes bypass the admission queue (so they keep
	// working during overload) and stay out of the serve_* counters and
	// latency histogram (so monitoring traffic never skews serving stats).
	mux.Handle("/metrics", obs.MetricsHandler())
	mux.HandleFunc("/", s.instrument("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not found")
	}))
	return mux
}

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	return s.http.Serve(ln)
}

// Start binds addr and serves in a background goroutine, returning the
// bound address (useful with ":0"). Serve errors other than graceful
// shutdown are logged.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			if s.cfg.Log != nil {
				s.cfg.Log.Error("serve", "err", err)
			}
		}
	}()
	return ln.Addr(), nil
}

// Shutdown gracefully drains the server: the listener stops accepting, all
// in-flight requests run to completion (bounded by ctx), then Serve
// returns http.ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// statusWriter captures the response status for access logs and counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint with the shared request plumbing:
// bounded-queue admission (429 on overload), body-size limiting, expvar
// request/latency counters, and slog access logs.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obs.Counters.ServeRequests.Add(1)
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			obs.Counters.ServeRejects.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server overloaded")
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		dur := time.Since(start)
		obs.Counters.ServeLatencyNs.Add(dur.Nanoseconds())
		obs.Histograms.ServeLatencyNs.Record(dur.Nanoseconds())
		if sw.status >= 400 {
			obs.Counters.ServeErrors.Add(1)
		}
		if log := s.cfg.Log; log != nil {
			level := slog.LevelDebug
			if sw.status >= 500 {
				level = slog.LevelWarn
			}
			log.Log(r.Context(), level, "http",
				"method", r.Method, "path", path, "status", sw.status,
				"dur_us", dur.Microseconds(), "remote", r.RemoteAddr)
		}
	}
}

// writeJSON writes a canonical JSON body: encoding/json with the struct's
// field order, a trailing newline, and application/json. Responses must
// stay a pure function of the request — no timestamps, no request ids —
// so concurrent serving is byte-identical to sequential (pinned by the
// soak test).
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the response types below; fail loudly if a
		// future type breaks marshaling.
		http.Error(w, `{"error":"encode failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

type errorReply struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorReply{Error: msg})
}

// requireMethod enforces the endpoint's method, answering 405 with an
// Allow header otherwise.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, "method not allowed")
	return false
}

type healthReply struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, healthReply{Status: "ok"})
}

// requireModel loads the serving snapshot, answering 503 when no
// generation exists yet (online cold start before the first watermark).
func (s *Server) requireModel(w http.ResponseWriter) *Snapshot {
	snap := s.current()
	if snap == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no model fitted yet")
	}
	return snap
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	snap := s.requireModel(w)
	if snap == nil {
		return
	}
	writeJSON(w, http.StatusOK, VersionInfo{
		Info:       snap.Model.Info(),
		Version:    snap.Version,
		Watermark:  snap.Watermark,
		ParentHash: snap.ParentHash,
	})
}

// predictRequest is the /predict body.
type predictRequest struct {
	Point []float64 `json:"point"`
}

// predictReply is the /predict body's answer: the prediction plus the
// generation that computed it. The version is what lets a concurrent
// client attribute every answer to a specific served model — the
// differential harness replays each prediction against the offline fit of
// that exact version.
type predictReply struct {
	Prediction
	ModelVersion int64 `json:"model_version"`
}

// batchRequest is the /predict/batch body.
type batchRequest struct {
	Points [][]float64 `json:"points"`
}

type batchReply struct {
	Predictions  []Prediction `json:"predictions"`
	NoiseCount   int          `json:"noise_count"`
	ModelVersion int64        `json:"model_version"`
}

// ingestRequest is the /ingest body: exactly one of Point (single) or
// Points (batch).
type ingestRequest struct {
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

// ingestReply reports the accepted batch and where the online stream
// stands. It deliberately carries no model version: the refit triggered by
// a crossing runs asynchronously, so the post-crossing version is not yet
// knowable when the ingest reply is written.
type ingestReply struct {
	// Accepted is the number of points this request appended.
	Accepted int `json:"accepted"`
	// TotalPoints is the stream total after the append.
	TotalPoints int64 `json:"total_points"`
	// NextWatermark is the point count at which the next refit fires
	// (already-crossed watermarks refit in order first).
	NextWatermark int64 `json:"next_watermark"`
	// RefitQueued reports whether this append crossed (or the stream had
	// already crossed) the next watermark, so a refit is due.
	RefitQueued bool `json:"refit_queued"`
}

// readBody decodes one JSON request body into v, mapping failure modes to
// their canonical status codes: 413 for oversized bodies, 400 for
// malformed or trailing JSON.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid request body")
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after request body")
		return false
	}
	return true
}

// injected consults the chaos injector for this (endpoint, body) site. The
// task id is a pure FNV-1a hash of the body bytes, so which requests fault
// is replayable from the injector seed alone.
func (s *Server) injected(w http.ResponseWriter, path string, body []byte) bool {
	if s.cfg.Injector == nil {
		return false
	}
	task := int(frame.Sum64(body) & 0x7fffffff)
	if !s.cfg.Injector.FailTask(path, task, 0) {
		return false
	}
	obs.Counters.ServeFaults.Add(1)
	writeError(w, http.StatusInternalServerError, "injected fault")
	return true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req predictRequest
	if !readBody(w, r, &req) {
		return
	}
	if s.injected(w, "/predict", encodePoint(req.Point)) {
		return
	}
	var snap *Snapshot
	if ab := s.cfg.AB; ab != nil {
		snap = ab.pick(ab.RouteSingle(req.Point))
	} else if snap = s.requireModel(w); snap == nil {
		return
	}
	pred, err := snap.Model.Predict(req.Point)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obs.Counters.ServePredictPoints.Add(1)
	writeJSON(w, http.StatusOK, predictReply{Prediction: pred, ModelVersion: snap.Version})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req batchRequest
	if !readBody(w, r, &req) {
		return
	}
	obs.Histograms.PredictBatchPoints.Record(int64(len(req.Points)))
	if len(req.Points) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d points exceeds limit %d", len(req.Points), s.cfg.MaxBatch))
		return
	}
	var flat []byte
	for _, p := range req.Points {
		flat = append(flat, encodePoint(p)...)
	}
	if s.injected(w, "/predict/batch", flat) {
		return
	}
	var snap *Snapshot
	if ab := s.cfg.AB; ab != nil {
		snap = ab.pick(ab.RouteBatch(req.Points))
	} else if snap = s.requireModel(w); snap == nil {
		return
	}
	preds, err := snap.Model.PredictBatch(req.Points)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obs.Counters.ServePredictPoints.Add(int64(len(preds)))
	noise := 0
	for _, p := range preds {
		if p.Noise {
			noise++
		}
	}
	writeJSON(w, http.StatusOK, batchReply{Predictions: preds, NoiseCount: noise, ModelVersion: snap.Version})
}

// handleIngest accepts one point or one batch into the online buffer. The
// append is synchronous (an accepted reply means the points are in the
// buffer, durably if a buffer dir is configured); the refit a crossing
// triggers is not — the reply only reports that one is due.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ingestRequest
	if !readBody(w, r, &req) {
		return
	}
	var pts [][]float64
	switch {
	case len(req.Point) > 0 && len(req.Points) > 0:
		writeError(w, http.StatusBadRequest, "exactly one of point and points")
		return
	case len(req.Point) > 0:
		pts = [][]float64{req.Point}
	case len(req.Points) > 0:
		pts = req.Points
	default:
		writeError(w, http.StatusBadRequest, "empty ingest request")
		return
	}
	if len(pts) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d points exceeds limit %d", len(pts), s.cfg.MaxBatch))
		return
	}
	dim := len(pts[0])
	flat := make([]float64, 0, len(pts)*dim)
	for i, p := range pts {
		if len(p) != dim {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("point %d has %d coordinates, point 0 has %d", i, len(p), dim))
			return
		}
		flat = append(flat, p...)
	}
	if s.injected(w, "/ingest", encodePoint(flat)) {
		return
	}
	total, queued, err := s.cfg.Refitter.Ingest(flat, dim)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	wm := s.cfg.Refitter.Watermark()
	writeJSON(w, http.StatusOK, ingestReply{
		Accepted:    len(pts),
		TotalPoints: total,
		// The next multiple of the cadence strictly above the new total —
		// a pure function of the total, stable across refit timing.
		NextWatermark: (total/wm + 1) * wm,
		RefitQueued:   queued,
	})
}

// encodePoint canonicalises a coordinate slice for fault-site hashing.
func encodePoint(p []float64) []byte {
	out := make([]byte, 0, 8*len(p))
	for _, v := range p {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			out = append(out, byte(u>>(8*i)))
		}
	}
	return out
}
