// Command e2ebench is the repository's end-to-end benchmark. It generates a
// workload from a seed, drives the system through each layer's public
// functions, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the workload runs once untraced and once traced, and the
// metrics are the per-layer numbers computed from the traced run's spans.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload fit-geolife --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"rpdbscan/internal/transport"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	// Proc-backend workers re-execute this binary; in that role it serves
	// and never returns.
	transport.MaybeWorker()

	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also run traced and report per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for registries, spill files and traces")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive, got %g", o.seconds)
	}
	cfg, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	res, err := run(o, cfg)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation in a private run directory under
// the work directory and removes it afterwards. Spill files of the
// streaming pipeline go there too (through TMPDIR), so the benchmark writes
// nothing outside its checkout.
func run(o options, cfg config) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	// A fixed GC target keeps heap and pause figures comparable between
	// commits regardless of the caller's environment.
	debug.SetGCPercent(100)

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		out, err := runWorkload(cfg, o.seed, budget, filepath.Join(dir, "untraced"), nil)
		if err != nil {
			return nil, err
		}
		return out.endToEnd(), nil
	}
	// Traced invocation: the same work untraced, then traced; the wall
	// difference is the tracing overhead.
	plain, err := runWorkload(cfg, o.seed, budget, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runWorkload(cfg, o.seed, budget, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "chrome trace: %s (%d spans)\n", tracePath, tr.len())
	return traced.perLayer(plain, tr), nil
}

func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}
