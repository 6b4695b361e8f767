package transport_test

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rpdbscan/internal/chaos"
	"rpdbscan/internal/core"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/transport"
)

// TestMain routes worker-marked child processes into worker mode: the
// subprocess tests re-execute this test binary, and core's handler
// registrations arrive through the import above.
func TestMain(m *testing.M) {
	transport.MaybeWorker()
	os.Exit(m.Run())
}

// procRun executes one clustering on the multi-process backend.
func procRun(t *testing.T, pts *geom.Points, cfg core.Config, workers int,
	opts transport.Options) (*core.Result, *engine.Cluster) {
	t.Helper()
	cl := engine.New(workers)
	tr, err := transport.NewProc(workers, opts)
	if err != nil {
		t.Fatalf("spawn %d workers: %v", workers, err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.Bind(cl)
	cfg.Backend = core.BackendProc
	res, err := core.Run(pts, cfg, cl)
	if err != nil {
		t.Fatalf("proc run: %v", err)
	}
	return res, cl
}

// assertIdentical pins the full observable output of a proc run against
// its in-process reference: labels, core flags, merge-round edge counts,
// cluster count, and the dictionary facts, all exactly.
func assertIdentical(t *testing.T, ref, got *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Labels, got.Labels) {
		t.Errorf("labels diverged from the in-process run")
	}
	if !reflect.DeepEqual(ref.CorePoint, got.CorePoint) {
		t.Errorf("core flags diverged from the in-process run")
	}
	if !reflect.DeepEqual(ref.EdgesPerRound, got.EdgesPerRound) {
		t.Errorf("merge edges diverged: ref %v, got %v", ref.EdgesPerRound, got.EdgesPerRound)
	}
	if ref.NumClusters != got.NumClusters || ref.NumCells != got.NumCells ||
		ref.NumSubCells != got.NumSubCells || ref.DictBytes != got.DictBytes ||
		ref.DictSizeBits != got.DictSizeBits {
		t.Errorf("run facts diverged: ref {clusters=%d cells=%d subs=%d dict=%dB} got {clusters=%d cells=%d subs=%d dict=%dB}",
			ref.NumClusters, ref.NumCells, ref.NumSubCells, ref.DictBytes,
			got.NumClusters, got.NumCells, got.NumSubCells, got.DictBytes)
	}
}

// faultTotals sums the fault ledger over every stage of the report.
func faultTotals(cl *engine.Cluster) engine.FaultStats {
	var f engine.FaultStats
	for _, st := range cl.Report().Stages {
		f.Add(st.Faults)
	}
	return f
}

// TestTransportEquivalence is the differential battery of the PR: three
// seeds by {1, 2, 4} worker processes by chaos on/off, every combination
// byte-identical to the in-process simulator, and under chaos the engine's
// fault ledger must reconcile exactly against the injector's own tally —
// every injected failure, corrupted frame, and worker kill accounted, no
// phantom faults. Runs on the in-process spawner so `-race` and coverage
// observe the worker-side code; CI runs it with -race.
func TestTransportEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pts := datagen.Moons(600, 0.05, seed)
		cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 6, Seed: seed}
		ref, err := core.Run(pts, cfg, engine.New(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, chaosOn := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/workers=%d/chaos=%v", seed, workers, chaosOn), func(t *testing.T) {
					var spawns atomic.Int64
					inproc := transport.InProcess()
					opts := transport.Options{Spawn: func(idx int) (transport.Endpoint, error) {
						spawns.Add(1)
						return inproc(idx)
					}}
					var inj *chaos.Injector
					if chaosOn {
						var err error
						inj, err = chaos.New(chaos.Config{
							Seed: seed, FailProb: 0.08, CorruptProb: 0.08, KillProb: 0.08,
						})
						if err != nil {
							t.Fatal(err)
						}
						opts.Injector = inj
						opts.Killer = inj
					}
					cl := engine.New(workers)
					if inj != nil {
						cl.Injector = inj
					}
					tr, err := transport.NewProc(workers, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer tr.Close()
					tr.Bind(cl)
					pcfg := cfg
					pcfg.Backend = core.BackendProc
					got, err := core.Run(pts, pcfg, cl)
					if err != nil {
						t.Fatal(err)
					}
					assertIdentical(t, ref, got)
					f := faultTotals(cl)
					if !chaosOn {
						if !f.IsZero() {
							t.Errorf("fault ledger not empty without chaos: %+v", f)
						}
						return
					}
					st := inj.Stats()
					if st.Failures != f.InjectedFailures {
						t.Errorf("injected failures: injector %d, ledger %d", st.Failures, f.InjectedFailures)
					}
					if st.Corruptions != f.ChecksumRejects {
						t.Errorf("corruptions: injector %d, ledger %d", st.Corruptions, f.ChecksumRejects)
					}
					if st.Kills != f.WorkerKills {
						t.Errorf("kills: injector %d, ledger %d", st.Kills, f.WorkerKills)
					}
					// Each injected kill costs at most the one respawn of
					// its own worker: no collateral respawns.
					if respawns := spawns.Load() - int64(workers); respawns > int64(st.Kills) {
						t.Errorf("%d respawns for %d injected kills", respawns, st.Kills)
					}
				})
			}
		}
	}
}

// stageKiller fires exactly once: the first attempt of one task of one
// stage. It implements engine.WorkerKiller.
type stageKiller struct {
	stage string
	task  int
	fired int
}

func (k *stageKiller) KillWorker(stage string, task, attempt int) bool {
	if stage == k.stage && task == k.task && attempt == 0 {
		k.fired++
		return true
	}
	return false
}

// TestSubprocessKillMidPhase2 is the real-process chaos test: worker
// subprocesses (forked from this test binary), one of which is SIGKILLed
// by the injector at the moment it is about to serve Phase II task 0. The
// engine must retry onto a respawned worker, the output must stay
// byte-identical, and the kill must be ledgered on the Phase II stage.
func TestSubprocessKillMidPhase2(t *testing.T) {
	pts := datagen.Moons(400, 0.05, 1)
	cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 4, Seed: 1}
	ref, err := core.Run(pts, cfg, engine.New(2))
	if err != nil {
		t.Fatal(err)
	}
	killer := &stageKiller{stage: core.HandlerPhase2, task: 0}
	got, cl := procRun(t, pts, cfg, 2, transport.Options{Killer: killer})
	assertIdentical(t, ref, got)
	if killer.fired != 1 {
		t.Fatalf("killer fired %d times, want 1", killer.fired)
	}
	var onStage int64
	for _, st := range cl.Report().Stages {
		if st.Name == "cell-graph-construction" {
			onStage = st.Faults.WorkerKills
		}
	}
	if onStage != 1 {
		t.Fatalf("phase II stage ledgered %d worker kills, want 1", onStage)
	}
	if f := faultTotals(cl); f.WorkerKills != 1 {
		t.Fatalf("run ledgered %d worker kills total, want 1", f.WorkerKills)
	}
}

// TestExternalSigkillIsCollateral pins the fault-schedule policy: a worker
// killed from the outside (not by the injector) is scheduling noise, so
// the transport absorbs it — respawn, blob re-sync, internal redelivery —
// without consuming engine retry attempts and without charging a kill to
// the ledger. Output still byte-identical.
func TestExternalSigkillIsCollateral(t *testing.T) {
	pts := datagen.Moons(400, 0.05, 1)
	cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 4, Seed: 1}
	ref, err := core.Run(pts, cfg, engine.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the subprocess spawner to capture the first worker's pid, then
	// SIGKILL it from outside after Phase I-0 has pushed its blobs.
	var pids []int
	spawn := transport.Subprocess()
	capture := func(idx int) (transport.Endpoint, error) {
		ep, err := spawn(idx)
		if err != nil {
			return nil, err
		}
		if p, ok := ep.(interface{ Pid() int }); ok {
			pids = append(pids, p.Pid())
		}
		return ep, nil
	}
	cl := engine.New(2)
	tr, err := transport.NewProc(2, transport.Options{Spawn: capture})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Bind(cl)
	if len(pids) != 2 {
		t.Fatalf("captured %d worker pids, want 2", len(pids))
	}
	if err := syscall.Kill(pids[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// Give the kernel a moment to tear the socket down.
	time.Sleep(50 * time.Millisecond)
	pcfg := cfg
	pcfg.Backend = core.BackendProc
	got, err := core.Run(pts, pcfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ref, got)
	f := faultTotals(cl)
	if f.WorkerKills != 0 {
		t.Errorf("external SIGKILL was charged as %d injected kills, want 0", f.WorkerKills)
	}
	if len(pids) <= 2 {
		t.Errorf("no replacement worker was spawned after the external kill")
	}
}

// stageCorrupter corrupts the first frame of one named stage's task 0,
// attempt 0, and nothing else. It implements engine.Injector.
type stageCorrupter struct {
	stage string
	sub   int // 0 = request frame, 1 = response frame
	fired int
}

func (c *stageCorrupter) FailTask(string, int, int) bool      { return false }
func (c *stageCorrupter) TaskDelay(string, int) time.Duration { return 0 }
func (c *stageCorrupter) CorruptFetch(stage string, task, attempt, chunk int) bool {
	if stage == c.stage && task == 0 && attempt == 0 && chunk == c.sub {
		c.fired++
		return true
	}
	return false
}

// TestWireCorruptionPerStage flips one frame on the wire in every remote
// stage of the pipeline, one run per (stage, direction): the receiver's
// checksum must reject it, the rejection must land on exactly that stage's
// ledger, and the clustering must come out byte-identical anyway.
func TestWireCorruptionPerStage(t *testing.T) {
	pts := datagen.Moons(400, 0.05, 1)
	cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 4, Seed: 1}
	ref, err := core.Run(pts, cfg, engine.New(2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		stage string
		sub   int
	}{
		{"config-push", 0},             // conf blob, chunk 0
		{"points-push", 0},             // input blob, chunk 0
		{"cell-assignment", 1},         // RPS1 frames, response side (its request is empty: points are a blob)
		{"cell-partitioning", 0},       // shuffle column in
		{"cell-partitioning", 1},       // merged frame out
		{"dictionary-build", 1},        // RPD2 entry shard back
		{"dictionary-push", 0},         // RPD2 broadcast blob
		{"dictionary-load", 1},         // load ack
		{"cell-graph-construction", 0}, // Phase II input
		{"cell-graph-construction", 1}, // Phase II result (RPG1 inside)
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/sub=%d", tc.stage, tc.sub), func(t *testing.T) {
			inj := &stageCorrupter{stage: tc.stage, sub: tc.sub}
			got, cl := procRun(t, pts, cfg, 2, transport.Options{
				Spawn: transport.InProcess(), Injector: inj,
			})
			assertIdentical(t, ref, got)
			if inj.fired != 1 {
				t.Fatalf("corruption site fired %d times, want 1", inj.fired)
			}
			var onStage, total int64
			for _, st := range cl.Report().Stages {
				total += st.Faults.ChecksumRejects
				if st.Name == tc.stage {
					onStage = st.Faults.ChecksumRejects
				}
			}
			if onStage != 1 || total != 1 {
				t.Fatalf("checksum rejects: %d on stage %q, %d total, want 1/1", onStage, tc.stage, total)
			}
		})
	}
}

// TestRaceStressRetryState is the -race stress companion to the PR-3
// error-capture race class: heavy chaos on few workers, so retries,
// speculation, kills, respawns, and blob re-syncs all interleave across
// concurrently running tasks. Any state shared between the engine's retry
// paths and the transport's respawn machinery that lacks synchronization
// shows up here under -race.
func TestRaceStressRetryState(t *testing.T) {
	for _, seed := range []int64{7, 11, 13} {
		pts := datagen.Moons(500, 0.05, seed)
		cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 12, Seed: seed}
		ref, err := core.Run(pts, cfg, engine.New(4))
		if err != nil {
			t.Fatal(err)
		}
		inj, err := chaos.New(chaos.Config{
			Seed: seed, FailProb: 0.2, CorruptProb: 0.2, KillProb: 0.15, StragglerProb: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := engine.New(4)
		cl.Injector = inj
		tr, err := transport.NewProc(2, transport.Options{
			Spawn: transport.InProcess(), Injector: inj, Killer: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.Bind(cl)
		pcfg := cfg
		pcfg.Backend = core.BackendProc
		got, err := core.Run(pts, pcfg, cl)
		tr.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertIdentical(t, ref, got)
		f := faultTotals(cl)
		st := inj.Stats()
		if st.Failures != f.InjectedFailures || st.Corruptions != f.ChecksumRejects || st.Kills != f.WorkerKills {
			t.Fatalf("seed %d: ledger does not reconcile: injector {fail=%d corrupt=%d kill=%d} ledger {fail=%d corrupt=%d kill=%d}",
				seed, st.Failures, st.Corruptions, st.Kills,
				f.InjectedFailures, f.ChecksumRejects, f.WorkerKills)
		}
	}
}

// TestMakespanReconciliation pins the measured-vs-simulated contract on
// the proc backend: every stage's simulated makespan (greedy packing of
// the recorded task costs) is bounded by the stage's cost sum, and the
// run-level measured wall stays within the harness divergence bound of the
// simulated total — the same invariant BENCH_transport.json records.
func TestMakespanReconciliation(t *testing.T) {
	pts := datagen.Moons(600, 0.05, 1)
	cfg := core.Config{Eps: 0.1, MinPts: 10, Rho: 0.01, NumPartitions: 4, Seed: 1}
	_, cl := procRun(t, pts, cfg, 2, transport.Options{Spawn: transport.InProcess()})
	rep := cl.Report()
	var measured, simulated time.Duration
	for _, st := range rep.Stages {
		mk := st.Makespan(rep.Workers)
		if sum := st.Total(); mk > sum {
			t.Errorf("stage %s: makespan %v exceeds cost sum %v", st.Name, mk, sum)
		}
		var max time.Duration
		for _, c := range st.Costs {
			if c > max {
				max = c
			}
		}
		if mk < max {
			t.Errorf("stage %s: makespan %v below longest task %v", st.Name, mk, max)
		}
		measured += st.Wall
		simulated += st.Makespan(rep.Workers)
	}
	// The same generous bound the rpbench transport experiment states:
	// task costs on this backend include their real wire roundtrips, so
	// wall and makespan must track each other up to scheduling overhead.
	if measured > time.Duration(25*float64(simulated))+250*time.Millisecond {
		t.Errorf("measured wall %v diverged above simulated makespan %v beyond the stated bound", measured, simulated)
	}
	if float64(measured) < float64(simulated)/25 {
		t.Errorf("measured wall %v diverged below simulated makespan %v beyond the stated bound", measured, simulated)
	}
}

// scriptedWorkers is a SpawnFunc whose in-process worker incarnations
// block chosen invocations inside the handler until the test releases
// them, so a test decides which request is in flight on which
// incarnation when a kill lands.
type scriptedWorkers struct {
	mu      sync.Mutex
	spawned int
	gates   map[[2]int]chan struct{} // (incarnation, task) -> release
	arrived chan [2]int
}

func (s *scriptedWorkers) gate(incarnation, task int) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := make(chan struct{})
	s.gates[[2]int{incarnation, task}] = g
	return g
}

func (s *scriptedWorkers) spawn(idx int) (transport.Endpoint, error) {
	s.mu.Lock()
	inc := s.spawned
	s.spawned++
	s.mu.Unlock()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	worker := transport.NewServer()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/invoke" {
			task, _ := strconv.Atoi(r.URL.Query().Get("task"))
			s.mu.Lock()
			g := s.gates[[2]int{inc, task}]
			s.mu.Unlock()
			if g != nil {
				s.arrived <- [2]int{inc, task}
				<-g
			}
		}
		worker.ServeHTTP(w, r)
	})}
	go srv.Serve(ln)
	return scriptedEndpoint{srv: srv, url: "http://" + ln.Addr().String()}, nil
}

type scriptedEndpoint struct {
	srv *http.Server
	url string
}

func (e scriptedEndpoint) URL() string  { return e.url }
func (e scriptedEndpoint) Kill() error  { return e.srv.Close() }
func (e scriptedEndpoint) Close() error { return e.srv.Close() }

// holdFailure is a client RoundTripper that parks the first failed round
// trip of one task's invocation until released: the test then lets the
// stale failure surface at the moment of its choosing.
type holdFailure struct {
	task    string
	once    sync.Once
	failed  chan struct{}
	release chan struct{}
}

func (h *holdFailure) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil && req.URL.Query().Get("task") == h.task {
		h.once.Do(func() {
			close(h.failed)
			<-h.release
		})
	}
	return resp, err
}

// TestStaleFailureSparesRespawnedWorker replays, deterministically, the
// interleaving behind delivery failures under kill chaos: a request in
// flight on incarnation 0 is reset by a kill aimed at another task, and
// its failure surfaces only after incarnation 1 has been spawned and is
// serving another request. The stale failure must not condemn incarnation
// 1: every request succeeds, and the one injected kill costs exactly one
// respawn.
func TestStaleFailureSparesRespawnedWorker(t *testing.T) {
	s := &scriptedWorkers{gates: map[[2]int]chan struct{}{}, arrived: make(chan [2]int, 4)}
	gateA := s.gate(0, 0) // task 0 parks on incarnation 0
	gateC := s.gate(1, 3) // task 3 parks on incarnation 1
	hold := &holdFailure{task: "0", failed: make(chan struct{}), release: make(chan struct{})}
	killer := &stageKiller{stage: "II", task: 1}
	tr, err := transport.NewProc(1, transport.Options{
		Spawn: s.spawn, Killer: killer, Client: &http.Client{Transport: hold},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Bind(engine.New(1))
	t.Cleanup(func() {
		close(gateA)
		tr.Close()
	})
	invoke := func(task int, body string) <-chan error {
		done := make(chan error, 1)
		go func() {
			out, err := tr.Invoke("II", "test-echo", task, 0, []byte(body))
			if err == nil && string(out) != body {
				err = fmt.Errorf("task %d echoed %q, want %q", task, out, body)
			}
			done <- err
		}()
		return done
	}

	doneA := invoke(0, "a")
	if got := <-s.arrived; got != [2]int{0, 0} {
		t.Fatalf("arrival %v, want task 0 on incarnation 0", got)
	}
	// The kill for task 1 resets task 0's connection; its failure parks.
	if err := <-invoke(1, "k"); err == nil {
		t.Fatal("killed invocation succeeded")
	}
	<-hold.failed
	// Task 2 respawns the worker as incarnation 1; task 3 parks on it.
	if err := <-invoke(2, "b"); err != nil {
		t.Fatal(err)
	}
	doneC := invoke(3, "c")
	if got := <-s.arrived; got != [2]int{1, 3} {
		t.Fatalf("arrival %v, want task 3 on incarnation 1", got)
	}
	// The stale failure of incarnation 0 now surfaces; task 0 must be
	// redelivered to incarnation 1, leaving task 3 in flight there.
	close(hold.release)
	if err := <-doneA; err != nil {
		t.Fatalf("task 0: %v", err)
	}
	close(gateC)
	if err := <-doneC; err != nil {
		t.Fatalf("task 3: %v", err)
	}
	s.mu.Lock()
	respawns := s.spawned - 1
	s.mu.Unlock()
	if killer.fired != 1 || respawns != 1 {
		t.Fatalf("%d respawns for %d injected kills, want exactly one each", respawns, killer.fired)
	}
}
