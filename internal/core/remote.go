package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/spill"
)

// runProc is Run on the multi-process backend: every Phase I/II stage
// executes as a registered handler on the cluster's Transport (worker
// subprocesses over local sockets), while Phase III — the driver-side
// merge and labeling in the paper's architecture — runs through the exact
// code path the simulator uses. Stage-for-stage the structure mirrors Run;
// what travels differs: the input points and configuration are pushed once
// per worker up front, Phase I shuffle partitions cross the wire as RPS1
// spill frames, and the dictionary goes out through BroadcastChecked plus
// a per-chunk-verified push. The outputs are byte-identical to Run's —
// every remote handler is deterministic, shuffle merge order is fixed by
// ascending chunk then key order, and the differential battery
// (TestTransportEquivalence) pins labels, core flags, and edges against
// the in-process run.
func runProc(pts *geom.Points, cfg Config, cl *engine.Cluster) (*Result, error) {
	tr := cl.Transport
	if tr == nil {
		return nil, fmt.Errorf("rpdbscan: backend %q needs a Transport on the cluster", BackendProc)
	}
	n := pts.N()
	k := cfg.NumPartitions
	if k == 0 {
		k = cl.Workers
	}
	if k < 1 {
		k = 1
	}
	res := &Result{
		Labels:          make([]int, n),
		CorePoint:       make([]bool, n),
		PointsProcessed: int64(n),
	}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if n == 0 {
		res.Report = cl.Report()
		return res, nil
	}

	dim := pts.Dim
	params := dict.Params{Eps: cfg.Eps, Rho: cfg.Rho, Dim: dim}

	// ---- Phase I-0: ship the run configuration and the input points to
	// every worker process (the executor-side input split plus broadcast
	// variables of the Spark deployment). Each push is one engine stage
	// with one task per worker, so transfer cost, retries, and checksum
	// rejections are ledgered like any other stage's.
	confBytes, err := json.Marshal(wireConf{
		Eps: cfg.Eps, MinPts: cfg.MinPts, Rho: cfg.Rho,
		K: k, Seed: cfg.Seed, MaxCellsPerSubDict: cfg.MaxCellsPerSubDict,
		DisableBatching: cfg.DisableBatching,
	})
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: encode conf: %w", err)
	}
	cl.PushStage("I-0", "config-push", BlobConf,
		engine.NewPayload("I-0", "config-push", confBytes))
	cl.PushStage("I-0", "points-push", BlobPoints,
		engine.NewPayload("I-0", "points-push", EncodePoints(pts)))

	// ---- Phase I-1: pseudo random partitioning (Algorithm 2, part 1).
	// Map: each chunk task returns k RPS1 frames, one per destination
	// partition.
	asgOuts, _ := cl.RunStageRemote("I-1", "cell-assignment", HandlerCellAssign,
		make([][]byte, k))
	// Carve each chunk's output into its k destination frames and
	// concatenate per destination in ascending chunk order — the shuffle's
	// column read, moved to the driver because the workers share no disk.
	cols := make([][]byte, k)
	for t := 0; t < k; t++ {
		buf := asgOuts[t]
		for d := 0; d < k; d++ {
			sz, err := spill.FrameSize(buf)
			if err != nil {
				return nil, fmt.Errorf("rpdbscan: cell-assignment chunk %d frame %d: %w", t, d, err)
			}
			cols[d] = append(cols[d], buf[:sz]...)
			buf = buf[sz:]
		}
		if len(buf) != 0 {
			return nil, fmt.Errorf("rpdbscan: cell-assignment chunk %d has %d trailing bytes", t, len(buf))
		}
	}
	// Reduce: each partition merges its column into one sorted frame.
	partOuts, shuffle := cl.RunStageRemote("I-1", "cell-partitioning", HandlerCellPart, cols)
	parts := make([]*partState, k)
	for t := 0; t < k; t++ {
		cells, err := partitionCells(partOuts[t])
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: partition %d: %w", t, err)
		}
		parts[t] = &partState{cells: cells}
	}
	// Account the shuffle payload exactly as the in-process path does:
	// every point id crosses once, plus one key per cell.
	for _, st := range parts {
		for _, c := range st.cells {
			shuffle.Bytes += int64(8*len(c.Points) + len(c.Key))
		}
	}

	// ---- Phase I-2: cell dictionary building (Algorithm 2, part 2).
	dictOuts, _ := cl.RunStageRemote("I-2", "dictionary-build", HandlerDictBuild, partOuts)
	entriesPer := make([][]dict.CellEntry, k)
	for t, out := range dictOuts {
		entries, _, err := dict.DecodeEntries(out)
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: dictionary shard %d: %w", t, err)
		}
		entriesPer[t] = entries
	}
	var stats dict.Stats
	payload := cl.BroadcastChecked("I-2", "dictionary-broadcast", func() []byte {
		var all []dict.CellEntry
		for _, e := range entriesPer {
			all = append(all, e...)
		}
		stats = dict.StatsOf(all, params)
		return dict.EncodeEntries(all, params)
	})
	res.DictSizeBits = stats.SizeBits
	res.DictBytes = payload.Len()
	res.NumCells = stats.NumCells
	res.NumSubCells = stats.NumSubCells
	// Every worker process is an executor: the dictionary is pushed once
	// per worker through the per-chunk-checksummed channel, then loaded
	// (decoded and indexed) once per worker.
	cl.PushStage("I-2", "dictionary-push", BlobDict, payload)
	loadAcks, _ := cl.RunStageRemote("I-2", "dictionary-load", HandlerDictLoad,
		make([][]byte, tr.Workers()))
	for w, ack := range loadAcks {
		if len(ack) != 8 {
			return nil, fmt.Errorf("rpdbscan: worker %d dictionary-load ack is %d bytes", w, len(ack))
		}
		if got := int64(binary.BigEndian.Uint64(ack)); got != int64(stats.NumCells) {
			return nil, fmt.Errorf("rpdbscan: worker %d loaded %d cells, broadcast holds %d",
				w, got, stats.NumCells)
		}
	}

	// ---- Phase II: core marking and subgraph building (Algorithm 3).
	numCells := stats.NumCells
	in2 := make([][]byte, k)
	for t := range in2 {
		in2[t] = make([]byte, 4, 4+len(partOuts[t]))
		binary.BigEndian.PutUint32(in2[t], uint32(numCells))
		in2[t] = append(in2[t], partOuts[t]...)
	}
	p2Outs, _ := cl.RunStageRemote("II", "cell-graph-construction", HandlerPhase2, in2)
	subgraphs := make([]*graph.Graph, k)
	for t := 0; t < k; t++ {
		if err := decodePhase2Result(p2Outs[t], parts[t], n, res.CorePoint); err != nil {
			return nil, fmt.Errorf("rpdbscan: phase-2 result %d: %w", t, err)
		}
		subgraphs[t] = parts[t].subgraph
	}

	// ---- Phase III: graph merging and point labeling run driver-side
	// through the same code as the in-process path.
	finalize := mergePhase(cl, cfg, numCells, subgraphs, res)
	labelPhase(cl, cfg, pts, parts, numCells, finalize, res)

	res.Report = cl.Report()
	return res, nil
}
