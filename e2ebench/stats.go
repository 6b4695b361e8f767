package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quant is a timing distribution reported as a median plus the highest
// percentile with at least ten samples beyond it.
type quant struct {
	n       int
	p50     time.Duration
	tail    time.Duration
	tailPct float64 // the percentile tail reports, e.g. 99
}

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

func quantiles(xs []time.Duration) quant {
	q := quant{n: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q.p50 = pick(s, 50)
	for _, p := range tailLevels {
		if float64(len(s))*(100-p)/100 >= 10 || p == 50 {
			q.tail, q.tailPct = pick(s, p), p
			break
		}
	}
	return q
}

// pick is the nearest-rank percentile of a sorted sample.
func pick(s []time.Duration, p float64) time.Duration {
	i := int(float64(len(s))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (q quant) String() string {
	return fmt.Sprintf("p50=%v p%g=%v n=%d", q.p50, q.tailPct, q.tail, q.n)
}

func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapSampler polls the live heap of this process — as the collector
// measured it at its last mark — and records each change with its time.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []heapSample
}

type heapSample struct {
	at   time.Time
	live uint64
}

// liveHeapMetric is the heap held by live objects as of the last GC mark.
const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			h.mu.Lock()
			if n := len(h.samples); n == 0 || h.samples[n-1].live != v {
				h.samples = append(h.samples, heapSample{time.Now(), v})
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns its samples.
func (h *heapSampler) finish() []heapSample {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// peakIn is the highest live heap in effect during [a, b].
func peakIn(samples []heapSample, a, b time.Time) uint64 {
	var peak uint64
	for i, s := range samples {
		if s.at.After(b) {
			break
		}
		if !s.at.Before(a) || i+1 == len(samples) || samples[i+1].at.After(a) {
			peak = max(peak, s.live)
		}
	}
	return peak
}

// gcState is a snapshot of the collector's cumulative counters.
type gcState struct {
	cycles     uint32
	pause      time.Duration
	totalAlloc uint64
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs), totalAlloc: ms.TotalAlloc}
}

// childMaxRSS is the largest resident set of any waited-for child process,
// in bytes (Linux reports ru_maxrss in KiB).
func childMaxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

const mb = 1 << 20
