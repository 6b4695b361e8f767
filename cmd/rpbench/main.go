// Command rpbench regenerates the tables and figures of the RP-DBSCAN
// paper's evaluation as text tables. Each experiment is named after the
// paper artifact it reproduces.
//
// Usage:
//
//	rpbench [flags] [experiment ...]
//
// Experiments: fig11 fig12 fig13 fig14 fig15 table4 table5 table7 fig18
// table8 fig19 fig20 fig21 phase2 phase3 chaos serve stream transport
// registry, or "all". With no arguments, "all" runs.
//
// Flags:
//
//	-n       points per data set (default 20000)
//	-workers virtual cluster size (default 40)
//	-minpts  DBSCAN minPts (default: per-data-set calibration)
//	-density point-density multiplier (default 20, the paper's regime)
//	-seed    RNG seed (default 1)
//	-quick   small preset (n=3000, workers=8) for smoke runs
//	-svgdir  also render Figures 16/18 as SVG files into this directory
//	-csvdir  also write machine-readable CSVs into this directory
//	-phase2out  where the phase2 experiment writes BENCH_phase2.json ("" skips)
//	-phase3out  where the phase3 experiment writes BENCH_phase3.json ("" skips)
//	-chaosout   where the chaos experiment writes BENCH_chaos.json ("" skips)
//	-serveout   where the serve experiment writes BENCH_serve.json ("" skips)
//	-streamout  where the stream experiment writes BENCH_stream.json ("" skips)
//	-transportout  where the transport experiment writes BENCH_transport.json ("" skips)
//	-registryout   where the registry experiment writes BENCH_registry.json ("" skips)
//	-log-level / -log-format  structured logging (stderr); debug logs stage events
//	-debug-addr  serve /metrics, /healthz, /debug/pprof and /debug/vars for
//	             live profiling and scraping
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rpdbscan"
	"rpdbscan/internal/datagen"
	"rpdbscan/internal/harness"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/plot"
	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
	"rpdbscan/internal/serve/loadgen"
	"rpdbscan/internal/transport"
)

func main() {
	// The transport experiment re-executes this binary as its worker
	// processes; a child with the marker set serves tasks and never returns.
	transport.MaybeWorker()
	n := flag.Int("n", 20000, "points per data set")
	workers := flag.Int("workers", 40, "virtual cluster size")
	minPts := flag.Int("minpts", 0, "DBSCAN minPts (0: per-data-set default)")
	seed := flag.Int64("seed", 1, "RNG seed")
	density := flag.Float64("density", 20, "point-density multiplier vs the calibrated reference; ~5 reproduces the paper's dense-neighborhood regime")
	quick := flag.Bool("quick", false, "small smoke-test preset")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/vars on this address")
	flag.StringVar(&svgDir, "svgdir", "", "when set, fig16/fig18 also render scatter plots as SVG files here")
	flag.StringVar(&csvDir, "csvdir", "", "when set, experiments also write machine-readable CSV files here")
	flag.StringVar(&phase2Out, "phase2out", "BENCH_phase2.json", "where the phase2 experiment writes its JSON report (empty: skip)")
	flag.StringVar(&phase3Out, "phase3out", "BENCH_phase3.json", "where the phase3 experiment writes its JSON report (empty: skip)")
	flag.StringVar(&chaosOut, "chaosout", "BENCH_chaos.json", "where the chaos experiment writes its JSON report (empty: skip)")
	flag.StringVar(&serveOut, "serveout", "BENCH_serve.json", "where the serve experiment writes its JSON report (empty: skip)")
	flag.StringVar(&refitOut, "refitout", "BENCH_refit.json", "where the refit experiment writes its JSON report (empty: skip)")
	flag.StringVar(&streamOut, "streamout", "BENCH_stream.json", "where the stream experiment writes its JSON report (empty: skip)")
	flag.StringVar(&transportOut, "transportout", "BENCH_transport.json", "where the transport experiment writes its JSON report (empty: skip)")
	flag.StringVar(&registryOut, "registryout", "BENCH_registry.json", "where the registry experiment writes its JSON report (empty: skip)")
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	log, err := logCfg.Setup(os.Stderr)
	if err != nil {
		slog.Error("rpbench", "err", err)
		os.Exit(2)
	}
	log = log.With("cmd", "rpbench")
	if *debugAddr != "" {
		if _, err := obs.StartDebugServer(*debugAddr, log); err != nil {
			log.Error("debug server", "err", err)
			os.Exit(1)
		}
	}

	scale := harness.Scale{N: *n, Workers: *workers, MinPts: *minPts, Seed: *seed, Rho: 0.01, Density: *density}
	if *quick {
		scale = harness.QuickScale()
		scale.Seed = *seed
		scale.Density = *density
	}

	want := flag.Args()
	if len(want) == 0 {
		want = []string{"all"}
	}
	all := map[string]func(harness.Scale) error{
		"fig11":     fig11,
		"fig16":     fig16,
		"fig12":     fig12,
		"fig13":     fig13,
		"fig14":     fig14,
		"fig15":     fig15,
		"table4":    table4,
		"table5":    table5,
		"table7":    table7,
		"fig18":     fig18,
		"table8":    table8,
		"fig19":     fig19,
		"fig20":     fig20,
		"fig21":     fig21,
		"phase2":    phase2,
		"phase3":    phase3,
		"chaos":     chaosExp,
		"serve":     serveExp,
		"refit":     refitExp,
		"stream":    streamExp,
		"transport": transportExp,
		"registry":  registryExp,
	}
	order := []string{"fig11", "fig12", "fig13", "fig14", "fig15", "table4", "fig16", "table5", "table7", "fig18", "table8", "fig19", "fig20", "fig21", "phase2", "phase3", "chaos", "serve", "refit", "stream", "transport", "registry"}

	run := map[string]bool{}
	for _, w := range want {
		if w == "all" {
			for _, o := range order {
				run[o] = true
			}
			continue
		}
		if _, ok := all[w]; !ok {
			log.Error("unknown experiment", "experiment", w, "have", strings.Join(order, " ")+", all")
			os.Exit(2)
		}
		run[w] = true
	}
	for _, name := range order {
		if !run[name] {
			continue
		}
		start := time.Now()
		log.Debug("experiment start", "experiment", name)
		if err := all[name](scale); err != nil {
			log.Error("experiment failed", "experiment", name, "err", err)
			os.Exit(1)
		}
		fmt.Printf("  (%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func header(title string) {
	fmt.Printf("==== %s ====\n", title)
}

// csvDir is where experiments write machine-readable CSV copies (empty =
// skip).
var csvDir string

// writeCSV writes rows (with a header) to csvDir/name, when enabled.
func writeCSV(name, header string, rows []string) error {
	if csvDir == "" {
		return nil
	}
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	path := filepath.Join(csvDir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// effCache memoises the efficiency sweep shared by fig11, fig13, and
// fig14 so "all" pays for it once.
var effCache []harness.EfficiencyRow

func efficiencyRows(s harness.Scale) ([]harness.EfficiencyRow, error) {
	if effCache != nil {
		return effCache, nil
	}
	rows, err := harness.Efficiency(s, harness.EfficiencyConfig{})
	if err != nil {
		return nil, err
	}
	effCache = rows
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%s,%g,%s,%d,%.4f,%d,%d",
			r.Dataset, r.Eps, r.Algorithm, r.Elapsed.Milliseconds(), r.Imbalance, r.Processed, r.Clusters))
	}
	if err := writeCSV("efficiency.csv", "dataset,eps,algorithm,elapsed_ms,imbalance,points_processed,clusters", lines); err != nil {
		return nil, err
	}
	return rows, nil
}

// fig11: total elapsed time of the six parallel algorithms (also Table 6).
func fig11(s harness.Scale) error {
	header("Figure 11 / Table 6: total elapsed time (simulated, ms)")
	rows, err := efficiencyRows(s)
	if err != nil {
		return err
	}
	printEff(rows, func(r harness.EfficiencyRow) string {
		return fmt.Sprintf("%d", r.Elapsed.Milliseconds())
	})
	return nil
}

// fig13: load imbalance of local clustering.
func fig13(s harness.Scale) error {
	header("Figure 13: load imbalance (slowest/fastest split)")
	rows, err := efficiencyRows(s)
	if err != nil {
		return err
	}
	printEff(rows, func(r harness.EfficiencyRow) string {
		return fmt.Sprintf("%.2f", r.Imbalance)
	})
	return nil
}

// fig14: total points processed (data duplication).
func fig14(s harness.Scale) error {
	header("Figure 14: total points processed across splits")
	rows, err := efficiencyRows(s)
	if err != nil {
		return err
	}
	printEff(rows, func(r harness.EfficiencyRow) string {
		return fmt.Sprintf("%d", r.Processed)
	})
	return nil
}

// printEff prints dataset-grouped tables: one row per algorithm, one column
// per eps.
func printEff(rows []harness.EfficiencyRow, cell func(harness.EfficiencyRow) string) {
	byDS := map[string][]harness.EfficiencyRow{}
	var dsOrder []string
	for _, r := range rows {
		if _, ok := byDS[r.Dataset]; !ok {
			dsOrder = append(dsOrder, r.Dataset)
		}
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for _, ds := range dsOrder {
		sub := byDS[ds]
		var epss []float64
		seen := map[float64]bool{}
		for _, r := range sub {
			if !seen[r.Eps] {
				seen[r.Eps] = true
				epss = append(epss, r.Eps)
			}
		}
		sort.Float64s(epss)
		fmt.Printf("-- %s --\n%-14s", ds, "eps:")
		for _, e := range epss {
			fmt.Printf("%12.4g", e)
		}
		fmt.Println()
		var algos []string
		seenA := map[string]bool{}
		for _, r := range sub {
			if !seenA[r.Algorithm] {
				seenA[r.Algorithm] = true
				algos = append(algos, r.Algorithm)
			}
		}
		for _, a := range algos {
			fmt.Printf("%-14s", a)
			for _, e := range epss {
				for _, r := range sub {
					if r.Algorithm == a && r.Eps == e {
						fmt.Printf("%12s", cell(r))
					}
				}
			}
			fmt.Println()
		}
	}
}

func fig12(s harness.Scale) error {
	header("Figure 12: breakdown of RP-DBSCAN elapsed time")
	rows, err := harness.Breakdown(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-14s", r.Dataset)
		for _, ph := range r.Order {
			fmt.Printf("  %s=%.2f", ph, r.Phases[ph])
		}
		fmt.Printf("  (total %v)\n", r.Total.Round(time.Millisecond))
	}
	return nil
}

func fig15(s harness.Scale) error {
	header("Figure 15: speed-up vs number of cores (SimCosmo)")
	rows, err := harness.SpeedUp(s)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s", "cores:")
	for _, w := range rows[0].Workers {
		fmt.Printf("%8d", w)
	}
	fmt.Println()
	var lines []string
	for _, r := range rows {
		fmt.Printf("%-14s", r.Algorithm)
		for _, su := range r.SpeedUp {
			fmt.Printf("%8.2f", su)
		}
		fmt.Println()
		for i, w := range r.Workers {
			lines = append(lines, fmt.Sprintf("%s,%d,%.4f", r.Algorithm, w, r.SpeedUp[i]))
		}
	}
	if err := writeCSV("speedup.csv", "algorithm,workers,speedup", lines); err != nil {
		return err
	}
	return nil
}

func table4(s harness.Scale) error {
	header("Table 4: accuracy of RP-DBSCAN (Rand index vs exact DBSCAN)")
	rows, err := harness.Accuracy(s)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %8s %8s\n", "Data Set", "0.10", "0.05", "0.01")
	byDS := map[string]map[float64]float64{}
	var order []string
	for _, r := range rows {
		if _, ok := byDS[r.Dataset]; !ok {
			byDS[r.Dataset] = map[float64]float64{}
			order = append(order, r.Dataset)
		}
		byDS[r.Dataset][r.Rho] = r.RandIndex
	}
	for _, ds := range order {
		fmt.Printf("%-12s %8.3f %8.3f %8.3f\n", ds, byDS[ds][0.10], byDS[ds][0.05], byDS[ds][0.01])
	}
	// Section 2.2.1 motivation: naive random point splits lose accuracy
	// where RP-DBSCAN's broadcast dictionary does not.
	nrows, err := harness.NaiveComparison(s)
	if err != nil {
		return err
	}
	fmt.Println("-- naive random split (Sec. 2.2.1) vs RP-DBSCAN --")
	for _, r := range nrows {
		fmt.Printf("%-12s naive=%.3f  rp=%.3f\n", r.Dataset, r.RINaive, r.RIRP)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%s,%g,%.6f", r.Dataset, r.Rho, r.RandIndex))
	}
	if err := writeCSV("accuracy.csv", "dataset,rho,rand_index", lines); err != nil {
		return err
	}
	return nil
}

func table5(s harness.Scale) error {
	header("Table 5: size of the two-level cell dictionary (% of data)")
	rows, err := harness.DictionarySize(s)
	if err != nil {
		return err
	}
	cur := ""
	for _, r := range rows {
		if r.Dataset != cur {
			cur = r.Dataset
			fmt.Printf("-- %s --\n", cur)
		}
		fmt.Printf("  eps=%-10.4g ratio=%6.2f%%  cells=%-8d subs=%-8d encoded=%dB\n",
			r.Eps, 100*r.Ratio, r.Cells, r.Subs, r.Bytes)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%s,%g,%.6f,%d,%d,%d,%d",
			r.Dataset, r.Eps, r.Ratio, r.Bits, r.Bytes, r.Cells, r.Subs))
	}
	if err := writeCSV("dictsize.csv", "dataset,eps,ratio,bits,bytes,cells,subcells", lines); err != nil {
		return err
	}
	return nil
}

func table7(s harness.Scale) error {
	header("Table 7: edges remaining after each merge round")
	rows, err := harness.EdgeReduction(s)
	if err != nil {
		return err
	}
	var lines []string
	for _, r := range rows {
		fmt.Printf("%-14s eps=%-10.4g", r.Dataset, r.Eps)
		for i, e := range r.Edges {
			fmt.Printf(" r%d=%d", i, e)
			lines = append(lines, fmt.Sprintf("%s,%g,%d,%d", r.Dataset, r.Eps, i, e))
		}
		fmt.Println()
	}
	if err := writeCSV("edges.csv", "dataset,eps,round,edges", lines); err != nil {
		return err
	}
	return nil
}

func fig18(s harness.Scale) error {
	header("Figure 18: synthetic skewness data sets (densest-cell share)")
	for _, r := range harness.SkewStats(s) {
		fmt.Printf("  alpha=%-6.3f top-cell share=%.3f\n", r.Alpha, r.TopCellShare)
	}
	if svgDir != "" {
		for i, alpha := range harness.SkewAlphas() {
			pts := datagen.Mixture(datagen.MixtureConfig{
				N: s.N, Dim: 2, Components: 10, Span: 100, Alpha: alpha,
			}, s.Seed)
			name := filepath.Join(svgDir, fmt.Sprintf("fig18_alpha_%d.svg", i))
			svg := plot.ScatterSVG(pts, nil, plot.Options{Title: fmt.Sprintf("alpha = %.3f", alpha)})
			if err := os.WriteFile(name, svg, 0o644); err != nil {
				return err
			}
			fmt.Printf("  wrote %s\n", name)
		}
	}
	return nil
}

// svgDir is where fig16/fig18 render SVG scatter plots (empty = skip).
var svgDir string

// fig16 renders RP-DBSCAN's clustering of the synthetic accuracy sets.
func fig16(s harness.Scale) error {
	header("Figure 16: clustering results of RP-DBSCAN")
	imgs, err := harness.Figure16(s)
	if err != nil {
		return err
	}
	for _, img := range imgs {
		clusters := map[int]bool{}
		noise := 0
		for _, l := range img.Labels {
			if l < 0 {
				noise++
			} else {
				clusters[l] = true
			}
		}
		fmt.Printf("  %-12s %d clusters, %d noise of %d points\n",
			img.Name, len(clusters), noise, len(img.Labels))
		if svgDir != "" {
			name := filepath.Join(svgDir, fmt.Sprintf("fig16_%s.svg", strings.ToLower(img.Name)))
			svg := plot.ScatterSVG(img.Points, img.Labels, plot.Options{Title: img.Name})
			if err := os.WriteFile(name, svg, 0o644); err != nil {
				return err
			}
			fmt.Printf("  wrote %s\n", name)
		}
	}
	return nil
}

func table8(s harness.Scale) error {
	header("Table 8: dictionary size for synthetic data sets")
	rows, err := harness.SkewDictionarySize(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  dim=%d alpha=%-6.3f encoded=%-10d bits(Lemma4.3)=%d\n", r.Dim, r.Alpha, r.Bytes, r.Bits)
	}
	return nil
}

func fig19(s harness.Scale) error {
	header("Figure 19: impact of data skewness on RP-DBSCAN")
	rows, err := harness.SkewImpact(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  dim=%d alpha=%-6.3f imbalance=%-6.2f elapsed=%v\n",
			r.Dim, r.Alpha, r.Imbalance, r.Elapsed.Round(time.Millisecond))
	}
	return nil
}

func fig20(s harness.Scale) error {
	header("Figure 20: scalability of RP-DBSCAN to data size")
	rows, err := harness.SizeScaling(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  x%-3d n=%-9d elapsed=%v\n", r.Multiplier, r.N, r.Elapsed.Round(time.Millisecond))
	}
	return nil
}

// phase2Out is where the phase2 experiment writes its JSON report (empty =
// skip).
var phase2Out string

// phase2: Phase II hot-path benchmark — the blocked SoA kernels vs the
// per-point oracle, swept over dim and size.
func phase2(s harness.Scale) error {
	header("Phase II: blocked vs per-point region queries (skewed mixture)")
	rows, err := harness.Phase2(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		speedup := "" // groups without a per-point row have none
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("  speedup=%.2fx", r.Speedup)
		}
		fmt.Printf("  n=%-6d dim=%d %-10s stage=%9.1fms  %10.0f ns/op  %8.3f allocs/op  %12.0f points/sec  RI=%.4f%s\n",
			r.N, r.Dim, r.Mode, r.StageMillis, r.NsPerOp, r.AllocsPerOp, r.PointsPerSec, r.RandIndex, speedup)
		if r.RandIndex != 1 {
			return fmt.Errorf("phase2: mode %s (n=%d dim=%d) diverged from blocked labels (Rand index %v)", r.Mode, r.N, r.Dim, r.RandIndex)
		}
	}
	if phase2Out != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(phase2Out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", phase2Out)
	}
	return nil
}

// phase3Out is where the phase3 experiment writes its JSON report (empty =
// skip).
var phase3Out string

// phase3: Phase III merge benchmark — the flat lock-free merge against the
// serial pairwise tournament on generated partition subgraphs.
func phase3(s harness.Scale) error {
	header("Phase III: flat lock-free merge vs serial tournament")
	rows, err := harness.Phase3(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-10s workers=%d cells=%-7d subgraphs=%-3d edges=%-8d %9.3fms  speedup=%.2fx  identical=%v\n",
			r.Mode, r.Workers, r.Cells, r.Subgraphs, r.Edges, r.Millis, r.Speedup, r.Identical)
		if !r.Identical {
			return fmt.Errorf("phase3: mode %s workers=%d diverged from the tournament components", r.Mode, r.Workers)
		}
	}
	if phase3Out != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(phase3Out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", phase3Out)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%s,%d,%d,%d,%d,%.3f,%.4f,%v",
			r.Mode, r.Workers, r.Cells, r.Subgraphs, r.Edges, r.Millis, r.Speedup, r.Identical))
	}
	return writeCSV("phase3.csv", "mode,workers,cells,subgraphs,edges,millis,speedup,identical", lines)
}

// chaosOut is where the chaos experiment writes its JSON report (empty =
// skip).
var chaosOut string

// chaosExp: fault-injection sweep — clustering equivalence and bounded
// makespan degradation under deterministic chaos.
func chaosExp(s harness.Scale) error {
	header("Chaos: clustering under deterministic fault injection")
	rows, err := harness.Chaos(s, harness.DefaultChaosConfig())
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  rate=%.2f seed=%d w=%-3d identical=%-5v accounted=%-5v inj=%-4d cksum=%-4d spec=%d/%d sim=%9.1fms base=%9.1fms bound=%9.1fms\n",
			r.Rate, r.Seed, r.Workers, r.Identical, r.Accounted,
			r.InjectedFailures, r.ChecksumRejects, r.SpeculativeLaunches, r.SpeculativeWins,
			r.SimulatedMillis, r.BaselineMillis, r.BoundMillis)
		if !r.Identical {
			return fmt.Errorf("chaos: rate=%.2f seed=%d workers=%d diverged from fault-free clustering",
				r.Rate, r.Seed, r.Workers)
		}
		if !r.Accounted {
			return fmt.Errorf("chaos: rate=%.2f seed=%d workers=%d fault ledger does not reconcile",
				r.Rate, r.Seed, r.Workers)
		}
	}
	if chaosOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(chaosOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", chaosOut)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%.2f,%d,%d,%v,%v,%d,%d,%d,%d,%.3f,%.3f,%.3f",
			r.Rate, r.Seed, r.Workers, r.Identical, r.Accounted, r.InjectedFailures,
			r.ChecksumRejects, r.SpeculativeLaunches, r.SpeculativeWins,
			r.SimulatedMillis, r.BaselineMillis, r.BoundMillis))
	}
	return writeCSV("chaos.csv",
		"rate,seed,workers,identical,accounted,injected_failures,checksum_rejects,spec_launches,spec_wins,simulated_ms,baseline_ms,bound_ms", lines)
}

// serveOut is where the serve experiment writes its JSON report (empty =
// skip).
var serveOut string

// serveExp: serving benchmark — fit a model on a deterministic data set,
// then replay the seeded load-generator stream against the in-process
// prediction server and report the latency histogram and throughput. The
// run must sustain the whole stream with zero errors and zero sheds.
func serveExp(s harness.Scale) error {
	header("Serve: prediction-server latency under the seeded load stream")
	pts := datagen.Moons(s.N, 0.05, s.Seed)
	res, err := rpdbscan.ClusterFlat(pts.Coords, pts.Dim, rpdbscan.Options{
		Eps: 0.1, MinPts: 10, Workers: s.Workers, Seed: s.Seed,
	})
	if err != nil {
		return err
	}
	model, err := serve.New(pts.Coords, pts.Dim, res.Labels, res.Core, 0.1, 10, 0.01, res.NumClusters)
	if err != nil {
		return err
	}
	srv := serve.NewServer(model, serve.ServerConfig{})
	cfg := loadgen.Config{
		Seed: s.Seed, Clients: 16, RequestsPerClient: 400,
		BatchEvery: 5, BatchSize: 16, InfoEvery: 37,
	}
	rep, err := loadgen.Run(srv.Handler(), model, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  model: %d points (%d core, %d clusters)\n",
		model.Len(), model.Info().CorePoints, model.Info().Clusters)
	fmt.Printf("  %d requests from %d clients in %.1fms  (%.0f req/s, %d points classified, %.1f%% noise)\n",
		rep.Requests, rep.Clients, rep.ElapsedMS, rep.Throughput, rep.Points, 100*rep.NoiseRate)
	fmt.Printf("  latency: p50=%.0fus  p99=%.0fus  p999=%.0fus  max=%.0fus   ok=%d rejected=%d errors=%d\n",
		rep.P50MicroS, rep.P99MicroS, rep.P999MicroS, rep.MaxMicroS, rep.OK, rep.Rejected, rep.Errors)
	if rep.Errors > 0 || rep.Rejected > 0 {
		return fmt.Errorf("serve: %d errors and %d sheds on the seeded stream (want 0/0)", rep.Errors, rep.Rejected)
	}
	if serveOut != "" {
		out := struct {
			Model serve.Info      `json:"model"`
			Load  *loadgen.Report `json:"load"`
		}{model.Info(), rep}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(serveOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", serveOut)
	}
	var lines []string
	lines = append(lines, fmt.Sprintf("%d,%d,%d,%d,%d,%.1f,%.0f,%.0f,%.0f,%.0f,%.0f",
		rep.Requests, rep.Clients, rep.OK, rep.Rejected, rep.Errors,
		rep.ElapsedMS, rep.Throughput, rep.P50MicroS, rep.P99MicroS, rep.P999MicroS, rep.MaxMicroS))
	return writeCSV("serve.csv",
		"requests,clients,ok,rejected,errors,elapsed_ms,throughput_rps,p50_us,p99_us,p999_us,max_us", lines)
}

// refitOut is where the refit experiment writes its JSON report (empty =
// skip).
var refitOut string

// durQuantile reads quantile q from a sorted slice of durations.
func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// refitExp: the online loop end to end — ingest a moons stream through a
// live server, refit at watermarks, hot-swap generations — measuring swap
// latency (persist + validate + pointer flip), refit throughput, and the
// serving tail during refits against the same load replayed when the
// refitter is idle.
func refitExp(s harness.Scale) error {
	header("Refit: online ingest, micro-batch refit, atomic hot swap")
	pts := datagen.Moons(s.N, 0.05, s.Seed)
	versions := 8
	watermark := int64(s.N / versions)
	if watermark < 64 {
		watermark = 64
		versions = s.N / int(watermark)
	}
	modelDir, err := os.MkdirTemp("", "rpbench-refit-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(modelDir)

	var mu sync.Mutex
	var events []serve.SwapEvent
	r, err := serve.NewRefitter(serve.RefitConfig{
		Watermark: watermark,
		ModelDir:  modelDir,
		Eps:       0.1, MinPts: 10, Rho: s.Rho,
		Workers: s.Workers, Seed: s.Seed,
		OnSwap: func(ev serve.SwapEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	h := serve.NewServer(nil, serve.ServerConfig{Refitter: r}).Handler()

	// First watermark up front so the load stream always has a model.
	batch := int(watermark) / 10
	if batch < 1 {
		batch = 1
	}
	ingest := func(from, to int) error {
		for i := from; i < to; i += batch {
			end := i + batch
			if end > to {
				end = to
			}
			if _, _, err := r.Ingest(pts.Coords[i*pts.Dim:end*pts.Dim], pts.Dim); err != nil {
				return err
			}
		}
		return nil
	}
	total := versions * int(watermark)
	if err := ingest(0, int(watermark)); err != nil {
		return err
	}
	for r.Current() == nil {
		time.Sleep(time.Millisecond)
	}
	boot := r.Current().Model

	// Serve under refit: one goroutine streams the remaining points (the
	// refit loop chews through the crossed watermarks) while the seeded
	// load replays against the live handler.
	loadCfg := loadgen.Config{
		Seed: s.Seed, Clients: 16, RequestsPerClient: 400,
		BatchEvery: 5, BatchSize: 16, InfoEvery: 37,
	}
	ingestErr := make(chan error, 1)
	go func() { ingestErr <- ingest(int(watermark), total) }()
	during, err := loadgen.Run(h, boot, loadCfg)
	if err != nil {
		return err
	}
	if err := <-ingestErr; err != nil {
		return err
	}
	if err := r.Close(); err != nil { // drains the remaining watermarks
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != versions {
		return fmt.Errorf("refit: %d swap events, want %d", len(events), versions)
	}
	var swaps, fits []time.Duration
	var refitPoints int64
	var fitTotal time.Duration
	for _, ev := range events {
		if ev.Err != nil {
			return fmt.Errorf("refit: version %d failed: %w", ev.Version, ev.Err)
		}
		swaps = append(swaps, ev.SwapDuration)
		fits = append(fits, ev.FitDuration)
		refitPoints += ev.Watermark
		fitTotal += ev.FitDuration
	}
	sort.Slice(swaps, func(i, j int) bool { return swaps[i] < swaps[j] })
	sort.Slice(fits, func(i, j int) bool { return fits[i] < fits[j] })
	refitThroughput := float64(refitPoints) / fitTotal.Seconds()

	// The same load against the final generation with the refitter closed:
	// the idle baseline the during-refit tail is compared to.
	idle, err := loadgen.Run(h, boot, loadCfg)
	if err != nil {
		return err
	}
	if during.Errors > 0 || idle.Errors > 0 {
		return fmt.Errorf("refit: %d during-refit and %d idle serve errors (want 0/0)",
			during.Errors, idle.Errors)
	}

	swapP50 := float64(durQuantile(swaps, 0.50).Microseconds())
	swapP99 := float64(durQuantile(swaps, 0.99).Microseconds())
	fmt.Printf("  %d versions over %d points (watermark %d), final model %d points\n",
		versions, total, watermark, int(events[len(events)-1].Watermark))
	fmt.Printf("  swap latency: p50=%.0fus p99=%.0fus   fit: p50=%.1fms p99=%.1fms   refit throughput %.0f pts/s\n",
		swapP50, swapP99,
		float64(durQuantile(fits, 0.50).Microseconds())/1e3,
		float64(durQuantile(fits, 0.99).Microseconds())/1e3,
		refitThroughput)
	fmt.Printf("  serve p99: %.0fus during refit vs %.0fus idle  (p50 %.0fus vs %.0fus, %.0f vs %.0f req/s)\n",
		during.P99MicroS, idle.P99MicroS, during.P50MicroS, idle.P50MicroS,
		during.Throughput, idle.Throughput)

	if refitOut != "" {
		out := struct {
			Watermark       int64           `json:"watermark"`
			Versions        int             `json:"versions"`
			Points          int             `json:"points"`
			SwapP50MicroS   float64         `json:"swap_p50_us"`
			SwapP99MicroS   float64         `json:"swap_p99_us"`
			FitP50MS        float64         `json:"fit_p50_ms"`
			FitP99MS        float64         `json:"fit_p99_ms"`
			RefitPointsPerS float64         `json:"refit_points_per_sec"`
			ServeDuring     *loadgen.Report `json:"serve_during_refit"`
			ServeIdle       *loadgen.Report `json:"serve_idle"`
		}{
			watermark, versions, total, swapP50, swapP99,
			float64(durQuantile(fits, 0.50).Microseconds()) / 1e3,
			float64(durQuantile(fits, 0.99).Microseconds()) / 1e3,
			refitThroughput, during, idle,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(refitOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", refitOut)
	}
	lines := []string{fmt.Sprintf("%d,%d,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f",
		watermark, versions, total, swapP50, swapP99, refitThroughput,
		during.P50MicroS, during.P99MicroS, idle.P50MicroS, idle.P99MicroS)}
	return writeCSV("refit.csv",
		"watermark,versions,points,swap_p50_us,swap_p99_us,refit_points_per_sec,during_p50_us,during_p99_us,idle_p50_us,idle_p99_us", lines)
}

// streamOut is where the stream experiment writes its JSON report (empty =
// skip).
var streamOut string

// streamExp: out-of-core ingestion benchmark — the same data set clustered
// in memory and by RunStream reading it back from disk, at growing size
// multipliers over a fixed chunk budget. Labels must be identical and the
// streamed Phase I peak heap must stay under an N-independent ceiling.
func streamExp(s harness.Scale) error {
	header("Stream: out-of-core ingestion (memory-bounded Phase I)")
	rows, err := harness.Stream(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  x%-3d n=%-9d chunk=%-7d identical=%-5v chunks=%-5d spill=%8.1fKiB reloads=%-3d peakI=%8.1fKiB ceiling=%8.1fKiB sim=%9.1fms (mem %9.1fms) wall=%7.1fms (mem %7.1fms)\n",
			r.Multiplier, r.N, r.ChunkSize, r.Identical, r.Chunks,
			float64(r.SpillBytes)/1024, r.SpillReloads,
			float64(r.PeakPhase1HeapBytes)/1024, float64(r.HeapCeilingBytes)/1024,
			r.StreamMillis, r.RunMillis, r.StreamWallMillis, r.RunWallMillis)
		if !r.Identical {
			return fmt.Errorf("stream: x%d (n=%d) diverged from the in-memory clustering", r.Multiplier, r.N)
		}
		if !r.WithinCeiling {
			return fmt.Errorf("stream: x%d (n=%d) peak Phase I heap %d exceeds ceiling %d",
				r.Multiplier, r.N, r.PeakPhase1HeapBytes, r.HeapCeilingBytes)
		}
	}
	if streamOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(streamOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", streamOut)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%d,%d,%d,%v,%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.3f",
			r.Multiplier, r.N, r.ChunkSize, r.Identical, r.Chunks, r.SpillBytes, r.SpillReloads,
			r.PeakPhase1HeapBytes, r.HeapCeilingBytes,
			r.StreamMillis, r.RunMillis, r.StreamWallMillis, r.RunWallMillis))
	}
	return writeCSV("stream.csv",
		"multiplier,n,chunk_size,identical,chunks,spill_bytes,spill_reloads,peak_phase1_heap_bytes,heap_ceiling_bytes,stream_ms,run_ms,stream_wall_ms,run_wall_ms", lines)
}

// transportOut is where the transport experiment writes its JSON report
// (empty = skip).
var transportOut string

// transportExp: multi-process backend sweep — worker subprocesses over
// local sockets, differenced against the in-process simulator, with
// measured-vs-simulated makespan reconciliation per stage.
func transportExp(s harness.Scale) error {
	header("Transport: multi-process backend vs in-process simulator")
	rows, err := harness.Transport(s, harness.TransportConfig{})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  seed=%d w=%-2d chaos=%-5v identical=%-5v accounted=%-5v inj=%-3d cksum=%-3d kills=%-3d measured=%9.1fms simulated=%9.1fms bound-ok=%v\n",
			r.Seed, r.Workers, r.ChaosOn, r.Identical, r.Accounted,
			r.InjectedFailures, r.ChecksumRejects, r.WorkerKills,
			r.MeasuredMillis, r.SimulatedMillis, r.WithinBound)
		if !r.Identical {
			return fmt.Errorf("transport: seed=%d workers=%d chaos=%v diverged from the in-process run",
				r.Seed, r.Workers, r.ChaosOn)
		}
		if !r.Accounted {
			return fmt.Errorf("transport: seed=%d workers=%d chaos=%v fault ledger does not reconcile",
				r.Seed, r.Workers, r.ChaosOn)
		}
		if !r.WithinBound {
			return fmt.Errorf("transport: seed=%d workers=%d chaos=%v measured makespan %0.1fms diverged from simulated %0.1fms beyond the stated bound",
				r.Seed, r.Workers, r.ChaosOn, r.MeasuredMillis, r.SimulatedMillis)
		}
	}
	if transportOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(transportOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", transportOut)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%d,%d,%v,%v,%v,%d,%d,%d,%.3f,%.3f,%v",
			r.Seed, r.Workers, r.ChaosOn, r.Identical, r.Accounted,
			r.InjectedFailures, r.ChecksumRejects, r.WorkerKills,
			r.MeasuredMillis, r.SimulatedMillis, r.WithinBound))
	}
	return writeCSV("transport.csv",
		"seed,workers,chaos,identical,accounted,injected_failures,checksum_rejects,worker_kills,measured_ms,simulated_ms,within_bound", lines)
}

// registryOut is where the registry experiment writes its JSON report
// (empty = skip).
var registryOut string

// registryExp: the model registry's hot paths — durable manifest appends
// (frame + fsync + HEAD seal per publish), a full verify (chain walk plus
// re-hashing every blob), and head/version index lookups.
func registryExp(s harness.Scale) error {
	header("Registry: durable publish, full verify, index lookups")
	dir, err := os.MkdirTemp("", "rpbench-registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg, err := registry.Open(dir)
	if err != nil {
		return err
	}
	defer reg.Close()

	// Distinct tiny artifacts: content-addressing makes every publish hit
	// both the blob path and the manifest path.
	publishes := 200
	if s.N < 5000 { // -quick
		publishes = 50
	}
	artifact := func(i int) ([]byte, error) {
		coords := []float64{float64(i), 0, float64(i) + 0.25, 0.1}
		m, err := serve.New(coords, 2, []int{0, 0}, []bool{true, true}, 0.5, 1, 0.01, 1)
		if err != nil {
			return nil, err
		}
		return m.Encode(), nil
	}
	var appends []time.Duration
	var parent uint64
	for i := 1; i <= publishes; i++ {
		art, err := artifact(i)
		if err != nil {
			return err
		}
		sum := registry.ArtifactHash(art)
		rec := registry.Record{
			Version: int64(i), ModelHash: sum, Parent: parent,
			Watermark: int64(i) * 64, ConfigSum: 0xbe9c4, Points: 2,
			Clusters: 1, Bytes: int64(len(art)),
		}
		// Publish + Sync per record: one frame, one fsync, one HEAD seal —
		// the per-generation durability cost an online server pays.
		start := time.Now()
		if _, err := reg.Publish(art, rec); err != nil {
			return err
		}
		if err := reg.Sync(); err != nil {
			return err
		}
		appends = append(appends, time.Since(start))
		parent = sum
	}
	sort.Slice(appends, func(i, j int) bool { return appends[i] < appends[j] })
	appendP50 := float64(durQuantile(appends, 0.50).Microseconds())
	appendP99 := float64(durQuantile(appends, 0.99).Microseconds())

	verifyStart := time.Now()
	rep, err := reg.Verify()
	if err != nil {
		return err
	}
	verifyDur := time.Since(verifyStart)
	verifyMBs := float64(rep.BlobBytes) / (1 << 20) / verifyDur.Seconds()
	verifyRecs := float64(rep.Records) / verifyDur.Seconds()

	lookups := 200_000
	lookupStart := time.Now()
	for i := 0; i < lookups; i++ {
		if _, ok := reg.Head(); !ok {
			return fmt.Errorf("registry: head vanished")
		}
		if _, ok := reg.ByVersion(int64(i%publishes) + 1); !ok {
			return fmt.Errorf("registry: version %d vanished", i%publishes+1)
		}
	}
	lookupNs := float64(time.Since(lookupStart).Nanoseconds()) / float64(lookups)

	fmt.Printf("  %d durable publishes: append p50=%.0fus p99=%.0fus\n",
		publishes, appendP50, appendP99)
	fmt.Printf("  verify: %d records, %d blobs (%d bytes) in %v  (%.1f MB/s, %.0f rec/s)\n",
		rep.Records, rep.Blobs, rep.BlobBytes, verifyDur.Round(time.Microsecond), verifyMBs, verifyRecs)
	fmt.Printf("  head+version lookup: %.0fns per pair\n", lookupNs)

	if registryOut != "" {
		out := struct {
			Publishes       int     `json:"publishes"`
			AppendP50MicroS float64 `json:"append_p50_us"`
			AppendP99MicroS float64 `json:"append_p99_us"`
			VerifyRecords   int     `json:"verify_records"`
			VerifyBlobs     int     `json:"verify_blobs"`
			VerifyBytes     int64   `json:"verify_bytes"`
			VerifyMS        float64 `json:"verify_ms"`
			VerifyMBPerSec  float64 `json:"verify_mb_per_sec"`
			VerifyRecPerSec float64 `json:"verify_records_per_sec"`
			HeadLookupNs    float64 `json:"head_lookup_ns"`
		}{
			publishes, appendP50, appendP99,
			rep.Records, rep.Blobs, rep.BlobBytes,
			float64(verifyDur.Microseconds()) / 1e3, verifyMBs, verifyRecs, lookupNs,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(registryOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", registryOut)
	}
	lines := []string{fmt.Sprintf("%d,%.0f,%.0f,%d,%d,%.3f,%.1f,%.0f",
		publishes, appendP50, appendP99, rep.Records, rep.Blobs,
		float64(verifyDur.Microseconds())/1e3, verifyMBs, lookupNs)}
	return writeCSV("registry.csv",
		"publishes,append_p50_us,append_p99_us,verify_records,verify_blobs,verify_ms,verify_mb_per_sec,head_lookup_ns", lines)
}

func fig21(s harness.Scale) error {
	header("Figure 21: elapsed-time breakdown for different data sizes")
	rows, err := harness.SizeScaling(s)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  x%-3d", r.Multiplier)
		for _, ph := range r.Order {
			fmt.Printf("  %s=%.2f", ph, r.Phases[ph])
		}
		fmt.Println()
	}
	return nil
}
