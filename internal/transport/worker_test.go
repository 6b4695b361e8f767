package transport_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"rpdbscan/internal/core"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/frame"
	"rpdbscan/internal/transport"
)

func init() {
	engine.RegisterHandler("test-echo", func(ws *engine.WorkerState, task int, input []byte) ([]byte, error) {
		return input, nil
	})
	engine.RegisterHandler("test-fail", func(ws *engine.WorkerState, task int, input []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom %d", task)
	})
}

// postInvoke drives the worker server directly.
func postInvoke(srv http.Handler, handler string, task int, body []byte, sum string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost,
		fmt.Sprintf("/invoke?handler=%s&task=%d", handler, task), bytes.NewReader(body))
	if sum != "" {
		req.Header.Set("X-Rpdbscan-Body-Sum", sum)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	return rr
}

func sumOf(b []byte) string { return strconv.FormatUint(frame.Sum64(b), 16) }

// TestWorkerServerRoutes pins the worker-side HTTP contract: healthz,
// verified blob install, per-chunk 409 rejection, request-body 409, 404
// for unknown handlers, 500 for handler errors, and the checksummed echo
// of a good invocation.
func TestWorkerServerRoutes(t *testing.T) {
	srv := transport.NewServer()

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", rr.Code)
	}

	// Good blob push installs; the state must hold the exact bytes.
	blob := bytes.Repeat([]byte("x"), 100)
	req := httptest.NewRequest(http.MethodPost, "/blob?name=b1", bytes.NewReader(blob))
	req.Header.Set("X-Rpdbscan-Chunk-Sums", sumOf(blob))
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusNoContent {
		t.Fatalf("blob push: %d %s", rr.Code, rr.Body.String())
	}
	if got, ok := srv.State().Blob("b1"); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("blob not installed verbatim")
	}

	// A corrupted blob must be rejected with the chunk index and NOT
	// installed.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0x80
	req = httptest.NewRequest(http.MethodPost, "/blob?name=b2", bytes.NewReader(bad))
	req.Header.Set("X-Rpdbscan-Chunk-Sums", sumOf(blob))
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusConflict || strings.TrimSpace(rr.Body.String()) != "chunk 0" {
		t.Fatalf("corrupt blob: %d %q, want 409 \"chunk 0\"", rr.Code, rr.Body.String())
	}
	if _, ok := srv.State().Blob("b2"); ok {
		t.Fatalf("corrupt blob was installed")
	}

	// Header/chunk-count mismatch and missing name are 400s.
	req = httptest.NewRequest(http.MethodPost, "/blob?name=b3", bytes.NewReader(blob))
	req.Header.Set("X-Rpdbscan-Chunk-Sums", sumOf(blob)+","+sumOf(blob))
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("chunk-count mismatch: %d", rr.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/blob", bytes.NewReader(blob))
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("missing name: %d", rr.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/blob?name=b4", bytes.NewReader(blob))
	req.Header.Set("X-Rpdbscan-Chunk-Sums", "nothex")
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("garbage sums header: %d", rr.Code)
	}

	// Invoke: happy path echoes with a matching response checksum.
	in := []byte("payload")
	rr = postInvoke(srv, "test-echo", 3, in, sumOf(in))
	if rr.Code != 200 || !bytes.Equal(rr.Body.Bytes(), in) {
		t.Fatalf("echo invoke: %d %q", rr.Code, rr.Body.Bytes())
	}
	if got := rr.Header().Get("X-Rpdbscan-Body-Sum"); got != sumOf(in) {
		t.Fatalf("response sum header %q, want %q", got, sumOf(in))
	}

	// Corrupted request body: 409 "request body".
	rr = postInvoke(srv, "test-echo", 3, []byte("tampered"), sumOf(in))
	if rr.Code != http.StatusConflict || strings.TrimSpace(rr.Body.String()) != "request body" {
		t.Fatalf("corrupt invoke: %d %q", rr.Code, rr.Body.String())
	}
	// Missing/garbage sum header: 400.
	if rr = postInvoke(srv, "test-echo", 3, in, ""); rr.Code != http.StatusBadRequest {
		t.Fatalf("missing sum header: %d", rr.Code)
	}
	// Unknown handler: 404 listing what exists.
	rr = postInvoke(srv, "no-such", 0, in, sumOf(in))
	if rr.Code != http.StatusNotFound || !strings.Contains(rr.Body.String(), "cell-assignment") {
		t.Fatalf("unknown handler: %d %q", rr.Code, rr.Body.String())
	}
	// Handler error: 500 with the message.
	rr = postInvoke(srv, "test-fail", 7, in, sumOf(in))
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "boom 7") {
		t.Fatalf("failing handler: %d %q", rr.Code, rr.Body.String())
	}
	// Bad task number: 400.
	req = httptest.NewRequest(http.MethodPost, "/invoke?handler=test-echo&task=x", bytes.NewReader(in))
	req.Header.Set("X-Rpdbscan-Body-Sum", sumOf(in))
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad task: %d", rr.Code)
	}
}

// TestRunWorkerHandshake drives the exact subprocess code path in-process:
// the worker announces its address on out, serves while stdin stays open,
// and shuts down when stdin closes.
func TestRunWorkerHandshake(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan struct{})
	go func() {
		transport.RunWorker(inR, outW)
		close(done)
	}()
	line, err := bufio.NewReader(outR).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "RPDBSCAN_WORKER_ADDR "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("handshake line %q lacks the address prefix", line)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, prefix))
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz on handshake address: %d", resp.StatusCode)
	}
	inW.Close() // driver gone: the worker must exit
	<-done
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatalf("worker still listening after stdin closed")
	}
}

// hostileSpawner wraps a real worker server in a proxy that tampers with
// the first nTamper /invoke responses in the given mode, then behaves.
// This is the malformed-worker-response battery: a response the driver
// cannot verify must never be trusted — it is ledgered like a corrupt
// frame and the attempt retried.
func hostileSpawner(mode string, nTamper int32) transport.SpawnFunc {
	return func(idx int) (transport.Endpoint, error) {
		inner := transport.NewServer()
		var left atomic.Int32
		left.Store(nTamper)
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/invoke" || left.Add(-1) < 0 {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			switch mode {
			case "flip-body":
				body := rec.Body.Bytes()
				if len(body) > 0 {
					body[0] ^= 0xff
				}
				w.Header().Set("X-Rpdbscan-Body-Sum", rec.Header().Get("X-Rpdbscan-Body-Sum"))
				w.Write(body)
			case "drop-header":
				w.Write(rec.Body.Bytes())
			case "garbage-header":
				w.Header().Set("X-Rpdbscan-Body-Sum", "zzzz-not-hex")
				w.Write(rec.Body.Bytes())
			case "garbage-body":
				w.Header().Set("X-Rpdbscan-Body-Sum", "1234")
				w.Write([]byte("not a frame at all"))
			}
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		return &closableEndpoint{srv: srv, url: "http://" + ln.Addr().String()}, nil
	}
}

type closableEndpoint struct {
	srv *http.Server
	url string
}

func (e *closableEndpoint) URL() string  { return e.url }
func (e *closableEndpoint) Kill() error  { return e.srv.Close() }
func (e *closableEndpoint) Close() error { return e.srv.Close() }

// TestHostileWorkerResponses runs the full pipeline against workers whose
// first invoke response is malformed four different ways. Every mode must
// be detected by response verification, ledgered as a checksum rejection,
// retried, and the final clustering must still be byte-identical.
func TestHostileWorkerResponses(t *testing.T) {
	pts := datagen.Moons(400, 0.05, 1)
	cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 4, Seed: 1}
	ref, err := core.Run(pts, cfg, engine.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"flip-body", "drop-header", "garbage-header", "garbage-body"} {
		t.Run(mode, func(t *testing.T) {
			got, cl := procRun(t, pts, cfg, 2, transport.Options{
				Spawn: hostileSpawner(mode, 1),
			})
			assertIdentical(t, ref, got)
			f := faultTotals(cl)
			// Two workers, each hostile on its first invoke: exactly two
			// malformed responses rejected and retried.
			if f.ChecksumRejects != 2 {
				t.Fatalf("mode %s: ledgered %d rejects, want 2", mode, f.ChecksumRejects)
			}
		})
	}
}
