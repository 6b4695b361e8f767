// Package transport is the multi-process backend behind engine.Transport:
// worker subprocesses (or in-process worker servers, for tests) serve the
// registered task handlers over local stdlib-HTTP sockets. The engine
// stays the scheduler — retry, backoff, speculation, and the fault ledger
// are untouched — while this package moves the bytes: blobs pushed once
// per worker with the engine's per-chunk checksums, task invocations
// framed with whole-body checksums, every transfer verified on receipt.
//
// The failure model is process-level chaos: the seeded injector may
// SIGKILL the worker about to serve an attempt (the transport respawns a
// replacement and re-syncs its blobs) or flip a byte on the wire (the
// receiver's checksum rejects the frame). Both surface to the engine as
// failed attempts, so the existing retry machinery recovers, and both are
// ledgered in the running stage's FaultStats for exact reconciliation
// against the injector's own tally.
package transport

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"rpdbscan/internal/engine"
	"rpdbscan/internal/frame"
)

const (
	// workerEnv marks a process as a transport worker; see MaybeWorker.
	workerEnv = "RPDBSCAN_TRANSPORT_WORKER"
	// handshakePrefix starts the single stdout line a worker subprocess
	// prints once it is listening.
	handshakePrefix = "RPDBSCAN_WORKER_ADDR "

	// hdrChunkSums carries the comma-separated hex FNV-1a checksums of a
	// pushed blob's engine.PayloadChunkSize chunks.
	hdrChunkSums = "X-Rpdbscan-Chunk-Sums"
	// hdrBodySum carries the hex FNV-1a checksum of a request or response
	// body on the invoke path.
	hdrBodySum = "X-Rpdbscan-Body-Sum"

	// maxBodyBytes bounds any single request body a worker accepts.
	maxBodyBytes = 1 << 31
)

// Server is the worker-side HTTP handler: a blob store plus the handler
// registry, shared by the subprocess worker main and the in-process
// spawner (which lets `go test -race -cover` execute worker code inside
// the test process).
type Server struct {
	state *engine.WorkerState
}

// NewServer returns a worker server with empty state.
func NewServer() *Server {
	return &Server{state: engine.NewWorkerState()}
}

// State exposes the worker's blob store (for tests).
func (s *Server) State() *engine.WorkerState { return s.state }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		fmt.Fprintln(w, "ok")
	case r.Method == http.MethodPost && r.URL.Path == "/blob":
		s.handleBlob(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/invoke":
		s.handleInvoke(w, r)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// handleBlob verifies a pushed blob chunk by chunk against the checksums
// the driver computed and, only if every chunk is intact, installs it. A
// mismatch answers 409 with the offending chunk index, which the driver
// ledgers as a checksum rejection and retries.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing blob name", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	sums, err := parseSums(r.Header.Get(hdrChunkSums))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if want := (len(body) + engine.PayloadChunkSize - 1) / engine.PayloadChunkSize; len(sums) != want {
		http.Error(w, fmt.Sprintf("blob has %d chunks, header lists %d", want, len(sums)),
			http.StatusBadRequest)
		return
	}
	for c := range sums {
		lo := c * engine.PayloadChunkSize
		hi := lo + engine.PayloadChunkSize
		if hi > len(body) {
			hi = len(body)
		}
		if frame.Sum64(body[lo:hi]) != sums[c] {
			http.Error(w, fmt.Sprintf("chunk %d", c), http.StatusConflict)
			return
		}
	}
	s.state.SetBlob(name, body)
	w.WriteHeader(http.StatusNoContent)
}

// handleInvoke verifies the request body, runs the named registered
// handler against the worker state, and ships the checksummed output
// back. Corruption answers 409; an unknown handler 404; a handler error
// 500. Handler panics are left to net/http's per-request recovery — the
// driver sees a closed connection and retries on a respawned worker.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("handler")
	task, err := strconv.Atoi(r.URL.Query().Get("task"))
	if name == "" || err != nil {
		http.Error(w, "missing handler or task", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	want, err := strconv.ParseUint(r.Header.Get(hdrBodySum), 16, 64)
	if err != nil {
		http.Error(w, "bad "+hdrBodySum, http.StatusBadRequest)
		return
	}
	if frame.Sum64(body) != want {
		http.Error(w, "request body", http.StatusConflict)
		return
	}
	h, ok := engine.Handler(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown handler %q (have %v)", name, engine.HandlerNames()),
			http.StatusNotFound)
		return
	}
	out, err := h(s.state, task, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(hdrBodySum, strconv.FormatUint(frame.Sum64(out), 16))
	w.Write(out)
}

// parseSums decodes the comma-separated hex checksum list of hdrChunkSums.
// An empty header means zero chunks (an empty blob).
func parseSums(h string) ([]uint64, error) {
	if h == "" {
		return nil, nil
	}
	parts := strings.Split(h, ",")
	sums := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %d: %v", hdrChunkSums, i, err)
		}
		sums[i] = v
	}
	return sums, nil
}

// formatSums is the inverse of parseSums.
func formatSums(sums []uint64) string {
	parts := make([]string, len(sums))
	for i, s := range sums {
		parts[i] = strconv.FormatUint(s, 16)
	}
	return strings.Join(parts, ",")
}

// MaybeWorker turns the current process into a transport worker when the
// worker environment marker is set, and never returns in that case: it
// serves on a loopback socket, prints the handshake line, and exits when
// stdin closes (the parent holds the other end of the pipe, so worker
// lifetime is bounded by driver lifetime even if the driver dies without
// cleanup). Binaries that can act as workers — rpdbscan, the test
// binaries — call this first thing in main/TestMain; for everyone else it
// is a no-op. The hidden `rpdbscan -worker` flag sets the same marker for
// manual runs.
func MaybeWorker() {
	if os.Getenv(workerEnv) != "1" {
		return
	}
	RunWorker(os.Stdin, os.Stdout)
	os.Exit(0)
}

// RunWorker serves a worker on a fresh loopback socket, announcing the
// address on out and serving until in closes. Split from MaybeWorker so
// tests can drive the exact subprocess code path in-process.
func RunWorker(in io.Reader, out io.Writer) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "transport worker: listen: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: NewServer()}
	go srv.Serve(ln)
	fmt.Fprintf(out, "%s%s\n", handshakePrefix, ln.Addr().String())
	// Block until the driver closes our stdin (its end of the pipe), then
	// die: an orphaned worker must not outlive its driver.
	io.Copy(io.Discard, in)
	srv.Close()
}
