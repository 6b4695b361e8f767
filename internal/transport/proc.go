package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"rpdbscan/internal/engine"
	"rpdbscan/internal/frame"
)

// Endpoint is one live worker process as the transport sees it: an HTTP
// base URL plus the two ways it can die.
type Endpoint interface {
	// URL is the worker's base URL (http://127.0.0.1:port).
	URL() string
	// Kill terminates the worker abruptly — SIGKILL for a subprocess —
	// simulating a machine failure. In-flight requests error.
	Kill() error
	// Close tears the worker down gracefully at end of run.
	Close() error
}

// SpawnFunc brings up worker idx and returns its endpoint. The transport
// calls it at construction and again for every replacement after a kill.
type SpawnFunc func(idx int) (Endpoint, error)

// Options configures a Proc transport.
type Options struct {
	// Spawn brings workers up; nil defaults to Subprocess(), re-executing
	// the current binary in worker mode.
	Spawn SpawnFunc
	// Injector, when set, decides wire corruption: per invocation, the
	// engine Injector's CorruptFetch is consulted for the request frame
	// (chunk 0) then — only if the request stays clean — the response
	// frame (chunk 1); per blob push, one chunk at most is corrupted (the
	// first whose site fires). Lazy consultation keeps the injector's
	// corruption tally exactly equal to the engine's rejection ledger.
	Injector engine.Injector
	// Killer, when set, decides process-level kills before each task
	// invocation. A chaos.Injector with KillProb set implements it; nil
	// (or an Injector that never fires) disables kills.
	Killer engine.WorkerKiller
	// Client overrides the HTTP client (tests); nil uses a default with a
	// 60s timeout.
	Client *http.Client
}

// worker is one slot of the transport's worker pool. Slots are respawned
// in place after kills; blob sync state travels with the slot.
type worker struct {
	mu     sync.Mutex
	ep     Endpoint
	alive  bool
	gen    int             // incremented per respawn
	synced map[string]bool // blobs this incarnation has verified
}

// Proc is the multi-process engine.Transport. It is safe for concurrent
// use: stage tasks invoke in parallel, and a kill under one task's feet
// only costs other in-flight tasks a transparent internal redelivery.
type Proc struct {
	cl      *engine.Cluster
	opts    Options
	client  *http.Client
	workers []*worker

	blobMu sync.Mutex
	blobs  map[string]*engine.Payload // every blob pushed so far, for respawn re-sync
	order  []string
}

// NewProc spawns n workers and returns the transport. On error, already
// spawned workers are torn down.
func NewProc(n int, opts Options) (*Proc, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least 1 worker, got %d", n)
	}
	spawn := opts.Spawn
	if spawn == nil {
		spawn = Subprocess()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	p := &Proc{opts: opts, client: client, blobs: make(map[string]*engine.Payload)}
	p.opts.Spawn = spawn
	for i := 0; i < n; i++ {
		ep, err := spawn(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("transport: spawn worker %d: %w", i, err)
		}
		p.workers = append(p.workers, &worker{ep: ep, alive: true, synced: make(map[string]bool)})
	}
	return p, nil
}

// Bind attaches the transport to the cluster whose stages it will serve:
// the cluster gets its Transport, the transport gets the fault ledger.
func (p *Proc) Bind(cl *engine.Cluster) {
	p.cl = cl
	cl.Transport = p
}

// Workers implements engine.Transport.
func (p *Proc) Workers() int { return len(p.workers) }

// Close implements engine.Transport: graceful teardown of every worker.
func (p *Proc) Close() error {
	var first error
	for _, w := range p.workers {
		w.mu.Lock()
		if w.ep != nil {
			if err := w.ep.Close(); err != nil && first == nil {
				first = err
			}
			w.ep = nil
			w.alive = false
		}
		w.mu.Unlock()
	}
	return first
}

// route maps a task to its worker slot. Any fixed mapping works — results
// are deterministic regardless of placement — so tasks simply stripe.
func (p *Proc) route(task int) int { return task % len(p.workers) }

// PushBlob implements engine.Transport: ship the payload to worker w with
// the engine's per-chunk checksums, corrupting at most one chunk when the
// injector says so. A worker-side rejection is ledgered and returned as an
// error for the engine to retry.
func (p *Proc) PushBlob(stage string, w, attempt int, name string, pl *engine.Payload) error {
	p.blobMu.Lock()
	if _, ok := p.blobs[name]; !ok {
		p.order = append(p.order, name)
	}
	p.blobs[name] = pl
	p.blobMu.Unlock()

	body := pl.Bytes()
	sums := make([]uint64, pl.NumChunks())
	for i := range sums {
		sums[i] = pl.ChunkSum(i)
	}
	// Corrupt at most one chunk per attempt (lazy scan: the first site
	// that fires wins), so the injector's corruption count matches the
	// rejection ledger one to one.
	if inj := p.opts.Injector; inj != nil {
		for c := 0; c < pl.NumChunks(); c++ {
			if inj.CorruptFetch(stage, w, attempt, c) {
				body = append([]byte(nil), body...)
				body[c*engine.PayloadChunkSize] ^= 0x80
				break
			}
		}
	}
	slot := p.workers[w]
	status, respBody, _, err := p.deliver(slot, stage, "/blob?name="+name, body, map[string]string{
		hdrChunkSums: formatSums(sums),
	})
	if err != nil {
		return err
	}
	switch status {
	case http.StatusNoContent:
		slot.mu.Lock()
		slot.synced[name] = true
		slot.mu.Unlock()
		return nil
	case http.StatusConflict:
		chunk, _ := strconv.Atoi(string(bytes.TrimSpace(bytes.TrimPrefix(respBody, []byte("chunk")))))
		p.cl.ChargeChecksumReject(stage, w, attempt, chunk, int64(len(body)))
		return fmt.Errorf("worker %d rejected blob %q chunk %d", w, name, chunk)
	default:
		return fmt.Errorf("worker %d blob push: status %d: %s", w, status, bytes.TrimSpace(respBody))
	}
}

// Invoke implements engine.Transport: run the named handler for one task
// attempt on the task's worker. Order of chaos consultation per site:
// first the killer (a fired kill SIGKILLs the serving worker, is
// ledgered, and fails the attempt before any bytes move), then request
// corruption, then — only for clean requests — response corruption.
func (p *Proc) Invoke(stage, handler string, task, attempt int, input []byte) ([]byte, error) {
	w := p.route(task)
	slot := p.workers[w]
	if k := p.opts.Killer; k != nil && k.KillWorker(stage, task, attempt) {
		p.kill(slot, stage, task, w)
		return nil, fmt.Errorf("worker %d killed serving stage %q task %d attempt %d",
			w, stage, task, attempt)
	}
	reqCorrupt, respCorrupt := false, false
	if inj := p.opts.Injector; inj != nil {
		reqCorrupt = len(input) > 0 && inj.CorruptFetch(stage, task, attempt, 0)
		if !reqCorrupt {
			respCorrupt = inj.CorruptFetch(stage, task, attempt, 1)
		}
	}
	body := input
	sum := frame.Sum64(input)
	if reqCorrupt {
		body = append([]byte(nil), input...)
		body[0] ^= 0x80 // one flipped bit on the wire; the checksum header still promises the original
	}
	url := fmt.Sprintf("/invoke?handler=%s&task=%d", handler, task)
	status, respBody, respSum, err := p.deliver(slot, stage, url, body, map[string]string{
		hdrBodySum: strconv.FormatUint(sum, 16),
	})
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusConflict:
		p.cl.ChargeChecksumReject(stage, task, attempt, 0, int64(len(body)))
		return nil, fmt.Errorf("worker %d rejected stage %q task %d request frame", w, stage, task)
	default:
		return nil, fmt.Errorf("worker %d stage %q task %d: status %d: %s",
			w, stage, task, status, bytes.TrimSpace(respBody))
	}
	// Verify the response frame. A malformed response — missing or
	// unparseable checksum header, or a body that does not match it — is
	// never trusted: it is ledgered like a corrupt frame and the attempt
	// fails, so the engine retries.
	want, err := strconv.ParseUint(respSum, 16, 64)
	if respCorrupt {
		if len(respBody) > 0 {
			respBody[0] ^= 0x80 // flipped on the wire coming back
		} else {
			want ^= 1 // nothing to flip; fail verification so injector tally and ledger stay 1:1
		}
	}
	if err != nil || frame.Sum64(respBody) != want {
		p.cl.ChargeChecksumReject(stage, task, attempt, 1, int64(len(respBody)))
		return nil, fmt.Errorf("worker %d stage %q task %d: response frame failed verification", w, stage, task)
	}
	p.cl.ChargeWorkerTask(task, w)
	return respBody, nil
}

// kill terminates the slot's current incarnation and ledgers it.
func (p *Proc) kill(slot *worker, stage string, task, w int) {
	slot.mu.Lock()
	if slot.alive && slot.ep != nil {
		slot.ep.Kill()
		slot.alive = false
	}
	slot.mu.Unlock()
	p.cl.ChargeWorkerKill(stage, task, w)
}

// deliver posts one frame to the slot's worker, transparently respawning
// and redelivering on connection-level failures (a worker killed under
// another task's feet, a crashed subprocess): those are scheduling noise,
// not part of the deterministic fault schedule, so they must not consume
// the calling task's retry budget. Definitive HTTP responses (any status)
// end delivery. Returns status, body, and the response checksum header.
func (p *Proc) deliver(slot *worker, stage, path string, body []byte, headers map[string]string) (int, []byte, string, error) {
	const maxTries = 4
	var lastErr error
	for try := 0; try < maxTries; try++ {
		base, gen, err := p.ensureAlive(slot, stage)
		if err != nil {
			// A failed respawn or re-sync usually means the incarnation we
			// believed alive is not (an external kill the transport has not
			// observed yet): mark it dead so the next try respawns.
			slot.markDead(gen)
			lastErr = err
			continue
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, "", err
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := p.client.Do(req)
		if err != nil {
			// Connection-level failure: mark the incarnation dead and
			// redeliver on a fresh one.
			slot.markDead(gen)
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if err != nil {
			slot.markDead(gen)
			lastErr = err
			continue
		}
		return resp.StatusCode, respBody, resp.Header.Get(hdrBodySum), nil
	}
	return 0, nil, "", fmt.Errorf("transport: delivery failed after %d tries: %w", maxTries, lastErr)
}

// markDead marks incarnation gen of the slot dead, so the next
// ensureAlive respawns it. A failure observed on an older incarnation is
// stale — a kill aimed at another task already replaced it — and must not
// condemn the healthy successor, whose in-flight requests a respawn would
// reset.
func (w *worker) markDead(gen int) {
	w.mu.Lock()
	if w.gen == gen {
		w.alive = false
	}
	w.mu.Unlock()
}

// ensureAlive returns the slot's base URL and incarnation, respawning a
// replacement incarnation first if the current one is dead. A fresh
// incarnation gets every previously pushed blob re-synced (verified,
// chaos-free — recovery traffic is not part of the fault schedule) before
// any task reaches it. The incarnation is returned on error as well, for
// the caller's markDead.
func (p *Proc) ensureAlive(slot *worker, stage string) (string, int, error) {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.alive {
		idx := p.slotIndex(slot)
		if slot.ep != nil {
			slot.ep.Close() // reap the dead incarnation
		}
		ep, err := p.opts.Spawn(idx)
		if err != nil {
			return "", slot.gen, fmt.Errorf("transport: respawn worker %d: %w", idx, err)
		}
		slot.ep = ep
		slot.alive = true
		slot.gen++
		slot.synced = make(map[string]bool)
		p.cl.ChargeWorkerRespawn(stage, idx)
	}
	// Re-sync any blob this incarnation is missing.
	p.blobMu.Lock()
	missing := make([]string, 0)
	for _, name := range p.order {
		if !slot.synced[name] {
			missing = append(missing, name)
		}
	}
	p.blobMu.Unlock()
	for _, name := range missing {
		p.blobMu.Lock()
		pl := p.blobs[name]
		p.blobMu.Unlock()
		if err := p.syncBlob(slot.ep.URL(), pl, name); err != nil {
			return "", slot.gen, fmt.Errorf("transport: re-sync blob %q: %w", name, err)
		}
		slot.synced[name] = true
	}
	return slot.ep.URL(), slot.gen, nil
}

// syncBlob pushes one blob to a fresh incarnation, verified but outside
// the chaos schedule.
func (p *Proc) syncBlob(base string, pl *engine.Payload, name string) error {
	sums := make([]uint64, pl.NumChunks())
	for i := range sums {
		sums[i] = pl.ChunkSum(i)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/blob?name="+name, bytes.NewReader(pl.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set(hdrChunkSums, formatSums(sums))
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// slotIndex recovers a slot's worker index.
func (p *Proc) slotIndex(slot *worker) int {
	for i, w := range p.workers {
		if w == slot {
			return i
		}
	}
	return -1
}

// Subprocess returns the default spawner: re-execute the current binary
// with the worker environment marker set. The child announces its address
// on stdout and lives until the parent closes its stdin pipe, so workers
// never outlive the driver. Any binary whose main (or TestMain) calls
// MaybeWorker can serve.
func Subprocess() SpawnFunc {
	return func(idx int) (Endpoint, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := cutPrefix(line, handshakePrefix); ok {
				addr = rest
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("worker %d: no handshake on stdout (is MaybeWorker called in main?)", idx)
		}
		// Drain any later stdout so the child never blocks on a full pipe.
		go io.Copy(io.Discard, stdout)
		sp := &subprocessWorker{cmd: cmd, stdin: stdin, url: "http://" + addr,
			reaped: make(chan struct{})}
		go func() { cmd.Wait(); close(sp.reaped) }()
		return sp, nil
	}
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

// subprocessWorker is a worker running as a child process.
type subprocessWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	url    string
	reaped chan struct{}
	once   sync.Once
}

func (s *subprocessWorker) URL() string { return s.url }

// Pid exposes the child's process id so tests can SIGKILL it externally.
func (s *subprocessWorker) Pid() int { return s.cmd.Process.Pid }

// Kill SIGKILLs the child.
func (s *subprocessWorker) Kill() error {
	err := s.cmd.Process.Kill()
	s.awaitExit()
	return err
}

// Close asks the child to exit by closing its stdin, then waits for it.
func (s *subprocessWorker) Close() error {
	s.stdin.Close()
	s.awaitExit()
	return nil
}

func (s *subprocessWorker) awaitExit() {
	select {
	case <-s.reaped:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.reaped
	}
}
