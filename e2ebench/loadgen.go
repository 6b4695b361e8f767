package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// client is one HTTP/1.1 keep-alive connection to the server under test.
// Requests on it are strictly sequential, so a client is one connection.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one JSON body and decodes a 2xx reply into out. Any transport
// error or non-2xx status (429 included) is an error.
func (c *client) post(path string, body []byte, out any) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: read reply: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return nil
}

// get issues a GET and returns the status code.
func (c *client) get(path string) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// timing is one open-loop request, in offsets from the loop's start.
type timing struct {
	due, sent, done time.Duration
	err             error
}

// latency is measured from when the request was due, so a stall also
// charges the wait it imposes on every request scheduled behind it.
func (t timing) latency() time.Duration { return t.done - t.due }

// openLoop issues requests on a fixed schedule — the i-th is due at
// i/rate — over one connection, until the schedule passes dur or stop
// closes. send performs request i. A request due while the previous one is
// still outstanding is sent as soon as it returns; its latency still
// counts from its due time. The returned timings are in send order.
func openLoop(rate float64, dur time.Duration, stop <-chan struct{}, send func(i int) error) []timing {
	defer precisePacing()()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var out []timing
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if dur > 0 && due >= dur {
			break
		}
		if stop != nil {
			select {
			case <-stop:
				return out
			default:
			}
		}
		waitUntil(start, due)
		t := timing{due: due, sent: time.Since(start)}
		t.err = send(i)
		t.done = time.Since(start)
		out = append(out, t)
	}
	return out
}

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// precisePacing pins the calling goroutine to its OS thread and sets the
// thread's timer slack to 1ns, so nanosleep wakes within microseconds of
// its deadline. (time.Sleep rounds to the runtime poller's millisecond
// resolution, which would make the generator, not the server, set the
// latency.) The returned func restores the default slack and unpins.
func precisePacing() func() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0)
		runtime.UnlockOSThread()
	}
}

// spinBelow is how close to a deadline waitUntil stops sleeping and spins.
const spinBelow = 50 * time.Microsecond

// waitUntil returns once the offset due from start has passed.
func waitUntil(start time.Time, due time.Duration) {
	for {
		left := due - time.Since(start)
		switch {
		case left <= 0:
			return
		case left > spinBelow:
			ts := syscall.NsecToTimespec(int64(left - spinBelow))
			syscall.Nanosleep(&ts, nil)
		}
	}
}

// loopStats summarises one open-loop window.
type loopStats struct {
	rate     float64 // scheduled requests per second
	sent     int
	failed   int
	lat      quant // latency from due time, successful requests
	lagTail  time.Duration
	backlog  int           // requests due inside a window but not done by its end
	achieved float64       // completions per second over the windows
	window   time.Duration // summed length of the windows
}

// summarise derives loopStats from one or more windows run at rate.
// Generator lateness of a request is how long after it could first be
// sent — its due time, or the previous reply if that came later — it
// actually went out.
func summarise(rate float64, windows ...[]timing) loopStats {
	s := loopStats{rate: rate}
	var lat, lag []time.Duration
	completed := 0
	for _, ts := range windows {
		if len(ts) == 0 {
			continue
		}
		end := ts[len(ts)-1].due + time.Duration(float64(time.Second)/rate)
		s.window += end
		s.sent += len(ts)
		var prevDone time.Duration
		for _, t := range ts {
			lag = append(lag, t.sent-max(t.due, prevDone))
			prevDone = t.done
			if t.err != nil {
				s.failed++
				continue
			}
			lat = append(lat, t.latency())
			if t.done <= end {
				completed++
			} else {
				s.backlog++
			}
		}
	}
	if s.sent == 0 {
		return s
	}
	s.lat = quantiles(lat)
	s.lagTail = quantiles(lag).tail
	s.achieved = float64(completed) / s.window.Seconds()
	return s
}

// meetsLimit reports whether a ladder step holds the latency limit at its
// tail with completions keeping pace with the schedule: no failures, and
// at most 1% of the window's requests still outstanding when it ends.
func (s loopStats) meetsLimit(limit time.Duration) bool {
	return s.sent > 0 && s.failed == 0 && s.lat.tail <= limit && float64(s.backlog) <= 0.01*float64(s.sent)
}

func (s loopStats) String() string {
	return "rate=" + strconv.FormatFloat(s.rate, 'f', 0, 64) + "/s " + s.lat.String() +
		" backlog=" + strconv.Itoa(s.backlog) + " failed=" + strconv.Itoa(s.failed) +
		" lag_tail=" + s.lagTail.String()
}

// isRejected reports whether err is a 429 from the server's admission
// control.
func isRejected(err error) bool {
	return err != nil && strings.Contains(err.Error(), "status 429")
}
