package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Lanes of the trace. The main lane is the benchmark's driving goroutine:
// its spans nest without overlap, so their self times add up to the
// traced wall. The other lanes run concurrently with it.
const (
	laneMain = iota
	lanePredict
	laneIngest
	laneRefit
)

var laneNames = []string{"main", "predict-conn", "ingest-conn", "refitter"}

// span is one traced interval, in offsets from the tracer's start.
type span struct {
	name, layer string
	lane        int
	parent      int // index of the causing span, -1 for a root
	start, end  time.Duration
}

// tracer records spans in memory; a nil tracer records nothing, so the
// untraced run executes the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, lane, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, lane: lane, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, layer string, parent int, fn func(id int)) {
	id := t.begin(name, layer, laneMain, parent)
	fn(id)
	t.end(id)
}

// record adds a finished span with explicit bounds.
func (t *tracer) record(name, layer string, lane, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, lane: lane, parent: parent,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// stageSpan is one engine stage as the report measured it.
type stageSpan struct {
	name, layer string
	wall        time.Duration
}

// layStages lays engine stages end to end from the start of the fit span
// parent, which ran from start to end. Their walls come from the engine
// report; whatever of the fit they do not cover is the fit span's self
// time. Stages whose walls overrun the fit are laid as measured, so the
// reconciliation exposes them instead of hiding them.
func (t *tracer) layStages(parent, lane int, start time.Time, stages []stageSpan) {
	if t == nil {
		return
	}
	at := start
	for _, s := range stages {
		t.record(s.name, s.layer, lane, parent, at, at.Add(s.wall))
		at = at.Add(s.wall)
	}
}

// reconciliation is the check that the main lane's per-layer self times
// add up to the traced wall.
type reconciliation struct {
	wall      time.Duration
	sum       time.Duration
	tolerance time.Duration
	byLayer   map[string]time.Duration
}

func (r reconciliation) ok() bool {
	d := r.sum - r.wall
	if d < 0 {
		d = -d
	}
	return d <= r.tolerance
}

// reconcileTolerance is the stated tolerance: 1% of the traced wall.
const reconcileTolerance = 0.01

// reconcile computes the self time of every main-lane span under root —
// its duration minus the part of it that its main-lane children cover —
// and sums them per layer. Self times of properly nested spans add up to
// the root's duration exactly; overlapping siblings or children that
// overrun their parent make the sum exceed it.
func (t *tracer) reconcile(root int) reconciliation {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.lane == laneMain && s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	r := reconciliation{byLayer: make(map[string]time.Duration)}
	rs := t.spans[root]
	r.wall = rs.end - rs.start
	r.tolerance = time.Duration(reconcileTolerance * float64(r.wall))
	var walk func(i int)
	walk = func(i int) {
		s := t.spans[i]
		self := (s.end - s.start) - covered(t.spans, children[i], s.start, s.end)
		r.byLayer[s.layer] += self
		r.sum += self
		for _, c := range children[i] {
			walk(c)
		}
	}
	walk(root)
	return r
}

// covered is the length of the union of spans ids clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		a, b := spans[id].start, spans[id].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// chromeEvent is one Chrome trace-event ("X" complete events plus thread
// name metadata), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a Chrome trace file.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans)+len(laneNames))
	for i, n := range laneNames {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": n}})
	}
	for i, s := range t.spans {
		if s.end < 0 {
			return fmt.Errorf("trace: span %q never ended", s.name)
		}
		evs = append(evs, chromeEvent{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
