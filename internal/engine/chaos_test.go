package engine

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"rpdbscan/internal/frame"
	"rpdbscan/internal/testutil"
)

// testInjector is a scriptable Injector for engine-level tests.
type testInjector struct {
	fail    func(stage string, task, attempt int) bool
	delay   func(stage string, task int) time.Duration
	corrupt func(stage string, task, attempt, chunk int) bool
}

func (in *testInjector) FailTask(stage string, task, attempt int) bool {
	return in.fail != nil && in.fail(stage, task, attempt)
}
func (in *testInjector) TaskDelay(stage string, task int) time.Duration {
	if in.delay == nil {
		return 0
	}
	return in.delay(stage, task)
}
func (in *testInjector) CorruptFetch(stage string, task, attempt, chunk int) bool {
	return in.corrupt != nil && in.corrupt(stage, task, attempt, chunk)
}

func TestBackoffDeterministicAndExponential(t *testing.T) {
	c := New(2)
	b0 := c.backoffFor("stage", 3, 0)
	b1 := c.backoffFor("stage", 3, 1)
	b2 := c.backoffFor("stage", 3, 2)
	if b0 != c.backoffFor("stage", 3, 0) {
		t.Fatal("backoff not deterministic")
	}
	// Jitter is within [0.5, 1.5), so successive attempts of the same task
	// can overlap; the base schedule doubles, so attempt a+2 must always
	// exceed attempt a (2^2 * 0.5 > 1.5).
	if b2 <= b0 {
		t.Fatalf("backoff not growing: %v then %v", b0, b2)
	}
	if b1 <= 0 || b0 <= 0 {
		t.Fatalf("non-positive backoff: %v %v", b0, b1)
	}
	// Distinct tasks get distinct jitter.
	if c.backoffFor("stage", 3, 0) == c.backoffFor("stage", 4, 0) &&
		c.backoffFor("stage", 3, 1) == c.backoffFor("stage", 4, 1) {
		t.Fatal("jitter identical across tasks")
	}
	// The cap binds.
	c.RetryBackoffBase = time.Second
	c.RetryBackoffMax = 2 * time.Second
	if got := c.backoffFor("s", 0, 30); got > 2*time.Second {
		t.Fatalf("backoff %v exceeds cap", got)
	}
	// Negative base disables.
	c.RetryBackoffBase = -1
	if got := c.backoffFor("s", 0, 0); got != 0 {
		t.Fatalf("disabled backoff = %v, want 0", got)
	}
}

func TestBackoffFeedsTaskCostVirtually(t *testing.T) {
	c := New(1)
	c.RetryBackoffBase = 50 * time.Millisecond
	c.Injector = InjectorFunc(func(stage string, task, attempt int) bool { return attempt == 0 })
	start := time.Now()
	s := c.RunStage("II", "flaky", 2, func(i int) {})
	wall := time.Since(start)
	// Virtual: the stage must not actually sleep through ~2x50ms backoff.
	if wall > 40*time.Millisecond {
		t.Fatalf("backoff appears to sleep for real: stage wall %v", wall)
	}
	if s.Faults.BackoffVirtual < 50*time.Millisecond {
		t.Fatalf("BackoffVirtual = %v, want >= 50ms", s.Faults.BackoffVirtual)
	}
	// And it must feed the recorded costs (hence the simulated makespan).
	if s.Total() < s.Faults.BackoffVirtual {
		t.Fatalf("costs %v do not include virtual backoff %v", s.Total(), s.Faults.BackoffVirtual)
	}
}

func TestStragglerSpeculationFirstFinisherWins(t *testing.T) {
	c := New(2)
	var runs atomic.Int64
	// Inflate task 1 by far more than its real cost: speculation must
	// launch, and the uninflated copy must win in virtual time.
	c.Injector = &testInjector{delay: func(stage string, task int) time.Duration {
		if task == 1 {
			return time.Second
		}
		return 0
	}}
	s := c.RunStage("II", "straggly", 3, func(i int) { runs.Add(1) })
	if s.Faults.StragglerDelay != time.Second {
		t.Fatalf("StragglerDelay = %v, want 1s", s.Faults.StragglerDelay)
	}
	if s.Faults.SpeculativeLaunches != 1 || s.Faults.SpeculativeWins != 1 {
		t.Fatalf("speculation = %d launches / %d wins, want 1/1",
			s.Faults.SpeculativeLaunches, s.Faults.SpeculativeWins)
	}
	// The speculative copy really re-ran the task body.
	if runs.Load() != 4 {
		t.Fatalf("task body ran %d times, want 4 (3 tasks + 1 speculative copy)", runs.Load())
	}
	// First-finisher-wins: the winning cost must be far below the
	// straggler's inflated cost.
	if s.Costs[1] >= time.Second {
		t.Fatalf("straggler cost %v: speculative win did not replace it", s.Costs[1])
	}
}

func TestSpeculationDisabled(t *testing.T) {
	c := New(2)
	c.SpeculationFactor = -1
	c.Injector = &testInjector{delay: func(string, int) time.Duration { return time.Second }}
	s := c.RunStage("II", "straggly", 2, func(i int) {})
	if s.Faults.SpeculativeLaunches != 0 {
		t.Fatal("speculation ran while disabled")
	}
	if s.Costs[0] < time.Second || s.Costs[1] < time.Second {
		t.Fatalf("straggler inflation missing from costs: %v", s.Costs)
	}
}

func TestFetchNilInjectorReturnsSharedPayload(t *testing.T) {
	c := New(2)
	p := c.BroadcastChecked("I-2", "dict", func() []byte { return []byte("payload-bytes") })
	got, err := c.Fetch(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &p.Bytes()[0] {
		t.Fatal("nil-injector Fetch copied the payload")
	}
}

func TestFetchDetectsCorruptionAndRefetches(t *testing.T) {
	sink := &recordSink{}
	c := New(2)
	c.Sink = sink
	var corruptions atomic.Int64
	c.Injector = &testInjector{corrupt: func(stage string, task, attempt, chunk int) bool {
		// Corrupt the first transfer attempt of every chunk, to every task.
		if attempt == 0 {
			corruptions.Add(1)
			return true
		}
		return false
	}}
	payload := make([]byte, 3*payloadChunkSize/2) // two chunks
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	p := c.BroadcastChecked("I-2", "dict", func() []byte { return payload })
	var fetchErr error
	var fetched []byte
	s := c.RunStage("I-2", "load", 1, func(i int) {
		fetched, fetchErr = c.Fetch(p, i)
	})
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if string(fetched) != string(payload) {
		t.Fatal("re-fetched payload differs from the pristine copy")
	}
	if &fetched[0] == &payload[0] {
		t.Fatal("chaos-mode Fetch returned the shared driver copy")
	}
	if want := corruptions.Load(); s.Faults.ChecksumRejects != want {
		t.Fatalf("ChecksumRejects = %d, want %d (every corruption detected)",
			s.Faults.ChecksumRejects, want)
	}
	if s.Faults.BackoffVirtual <= 0 {
		t.Fatal("re-transfer accrued no virtual backoff")
	}
	// Re-transfer backoff must be charged to the fetching task's cost.
	if s.Costs[0] < s.Faults.BackoffVirtual {
		t.Fatalf("task cost %v misses re-transfer backoff %v", s.Costs[0], s.Faults.BackoffVirtual)
	}
	if got := sink.count(EventChecksumReject); int64(got) != corruptions.Load() {
		t.Fatalf("checksum-reject events = %d, want %d", got, corruptions.Load())
	}
}

func TestFetchPersistentCorruptionErrors(t *testing.T) {
	c := New(1)
	c.Injector = &testInjector{corrupt: func(string, int, int, int) bool { return true }}
	p := c.BroadcastChecked("I-2", "dict", func() []byte { return []byte("doomed") })
	if _, err := c.Fetch(p, 0); err == nil {
		t.Fatal("persistently corrupt payload did not error")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFetchEmptyPayload(t *testing.T) {
	c := New(1)
	c.Injector = &testInjector{}
	p := c.BroadcastChecked("I-2", "dict", func() []byte { return nil })
	got, err := c.Fetch(p, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty payload fetch = %v, %v", got, err)
	}
}

func TestChecksumDetectsEverySingleByteFlip(t *testing.T) {
	b := []byte("the broadcast dictionary payload")
	sum := frame.Sum64(b)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if frame.Sum64(b) == sum {
				t.Fatalf("flip of byte %d bit %d undetected", i, bit)
			}
			b[i] ^= 1 << bit
		}
	}
}

func TestTotalFaultsSumsStages(t *testing.T) {
	r := &Report{Stages: []*StageStats{
		{Faults: FaultStats{InjectedFailures: 2, ChecksumRejects: 1, BackoffVirtual: 3}},
		{Faults: FaultStats{InjectedFailures: 1, SpeculativeLaunches: 4, SpeculativeWins: 2, StragglerDelay: 5}},
		{},
	}}
	got := r.TotalFaults()
	want := FaultStats{InjectedFailures: 3, ChecksumRejects: 1, BackoffVirtual: 3,
		SpeculativeLaunches: 4, SpeculativeWins: 2, StragglerDelay: 5}
	if got != want {
		t.Fatalf("TotalFaults = %+v, want %+v", got, want)
	}
	if got.IsZero() || (FaultStats{}).IsZero() != true {
		t.Fatal("IsZero wrong")
	}
}

func TestReportStringShowsFaults(t *testing.T) {
	r := &Report{Workers: 2, Stages: []*StageStats{
		{Name: "chaotic", Phase: "II", Costs: []time.Duration{time.Millisecond},
			Faults: FaultStats{InjectedFailures: 2, ChecksumRejects: 1}},
	}}
	s := r.String()
	if !strings.Contains(s, "inj=2") || !strings.Contains(s, "cksum=1") {
		t.Fatalf("faults missing from report table:\n%s", s)
	}
}

// Graham's bound for greedy list scheduling: makespan <= total/w + max.
// This is the deterministic "bounded" half of the chaos harness's
// monotone-bounded degradation claim — injected virtual delays can push
// the makespan up, but never past the bound computable from the stage's
// own recorded costs.
func TestMakespanGrahamBound(t *testing.T) {
	f := func(raw []uint16, w8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]time.Duration, len(raw))
		for i, v := range raw {
			costs[i] = time.Duration(v)
		}
		w := int(w8%15) + 1
		s := statsWith(costs...)
		bound := s.Total()/time.Duration(w) + s.Max()
		return s.Makespan(w) <= bound
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 206, 300)); err != nil {
		t.Fatal(err)
	}
}

// The injected-fault accounting must be exact: every FailTask=true is one
// InjectedFailures tick, including failures that exhaust the retry budget.
func TestEveryInjectedFailureAccounted(t *testing.T) {
	c := New(4)
	var injected atomic.Int64
	c.Injector = &testInjector{fail: func(stage string, task, attempt int) bool {
		if attempt < 2 && task%3 == 0 {
			injected.Add(1)
			return true
		}
		return false
	}}
	s := c.RunStage("II", "flaky", 17, func(i int) {})
	if s.Faults.InjectedFailures != injected.Load() {
		t.Fatalf("accounted %d injected failures, injector reports %d",
			s.Faults.InjectedFailures, injected.Load())
	}
}

// BenchmarkRunStageNilInjector is the chaos-off baseline: with no injector
// installed, the fault path is one nil check per site and must add no
// measurable overhead versus BenchmarkRunStageNilSink (the pre-chaos
// engine). BenchmarkRunStageInjector shows the cost chaos adds only when
// an injector is actually installed.
func BenchmarkRunStageNilInjector(b *testing.B) { benchRunStage(b, nil) }

func BenchmarkRunStageInjector(b *testing.B) {
	c := New(8)
	c.Injector = &testInjector{}
	var x int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunStage("II", "bench", 256, func(t int) { x += int64(t) })
		c.Reset()
	}
	_ = x
}

// BenchmarkFetchNilInjector must be a pointer return: no copy, no
// checksum.
func BenchmarkFetchNilInjector(b *testing.B) {
	c := New(8)
	p := c.BroadcastChecked("I-2", "dict", func() []byte { return make([]byte, 1<<20) })
	c.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch(p, i%8); err != nil {
			b.Fatal(err)
		}
	}
}
