// Package core implements the RP-DBSCAN algorithm of Algorithm 1: Phase I
// pseudo random partitioning and two-level cell dictionary building
// (Section 4), Phase II core marking and cell-subgraph building
// (Section 5), and Phase III progressive graph merging and point labeling
// (Section 6). All parallel stages run on an engine.Cluster, which records
// per-task costs for the experiment harness.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/grid"
)

// phase2Scratch bundles the blocked path's reusable buffers: the SoA gather
// of one cell's points, their region counts, and the core-point selection
// mask. Pooling them across Phase II tasks keeps the per-task allocation
// cost (and the GC assist it draws mid-stage) off the hot path; each task
// holds one scratch at a time, so the pool high-water mark is the number of
// concurrently running tasks, not the partition count.
type phase2Scratch struct {
	blk    geom.Block
	counts []int64
	sel    []bool
}

var phase2Pool = sync.Pool{New: func() any { return new(phase2Scratch) }}

// ensure sizes the scratch for cells of up to maxn points of dim
// dimensions.
func (s *phase2Scratch) ensure(dim, maxn int) {
	s.blk.Grow(dim, maxn)
	if cap(s.counts) < maxn {
		s.counts = make([]int64, maxn)
	}
	if cap(s.sel) < maxn {
		s.sel = make([]bool, maxn)
	}
}

// partitionOf deals a cell to one of k pseudo random partitions: a seeded
// FNV-1a hash of the cell key, so every mapper computes the same
// assignment with no coordination (the "random key" of Algorithm 2 line
// 7). The mix is inlined: hash/fnv costs a hasher plus an 8-byte seed
// buffer allocation per call, and this runs once per cell per mapper. A
// test pins the inlined hash to hash/fnv's output.
func partitionOf(key grid.Key, seed int64, k int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * prime64
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return int(h % uint64(k))
}

// Noise is the label assigned to points in no cluster.
const Noise = -1

// Config holds the RP-DBSCAN parameters.
type Config struct {
	// Eps is the neighborhood radius of DBSCAN.
	Eps float64
	// MinPts is the core-point threshold of DBSCAN.
	MinPts int
	// Rho is the approximation rate of the two-level cell dictionary
	// (Definition 4.1). The paper's default is 0.01.
	Rho float64
	// NumPartitions is k, the number of pseudo random partitions. Zero
	// defaults to the cluster's virtual worker count.
	NumPartitions int
	// MaxCellsPerSubDict bounds sub-dictionary size for defragmentation
	// (Section 4.2.2); <= 0 keeps a single sub-dictionary.
	MaxCellsPerSubDict int
	// Seed drives the pseudo random cell-to-partition assignment.
	Seed int64

	// DisableBatching answers Phase II region queries per point with
	// dict.Querier.Query, the oracle the blocked kernels are tested
	// against, instead of per cell. Results are identical; only cost
	// changes. Testing knob.
	DisableBatching bool
	// SerialMerge merges Phase III subgraphs with the pairwise tournament
	// of Figure 9a instead of the flat lock-free merge, restoring the
	// per-round edge telemetry of Table 7. Results are identical; only
	// cost and EdgesPerRound granularity change.
	SerialMerge bool

	// Backend selects where stages execute: "" or "sim" runs every stage
	// in-process on the virtual-cluster simulator (the default), "proc"
	// runs Phase I/II stages on the cluster's multi-process Transport
	// (worker subprocesses over local sockets; see internal/transport).
	// Results are byte-identical; only the execution substrate changes.
	Backend string
}

// Backend values for Config.Backend.
const (
	BackendSim  = "sim"
	BackendProc = "proc"
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Eps <= 0 {
		return fmt.Errorf("rpdbscan: Eps must be positive, got %g", c.Eps)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("rpdbscan: MinPts must be >= 1, got %d", c.MinPts)
	}
	if c.Rho <= 0 {
		return fmt.Errorf("rpdbscan: Rho must be positive, got %g", c.Rho)
	}
	if c.NumPartitions < 0 {
		return fmt.Errorf("rpdbscan: NumPartitions must be >= 0, got %d", c.NumPartitions)
	}
	switch c.Backend {
	case "", BackendSim, BackendProc:
	default:
		return fmt.Errorf("rpdbscan: unknown backend %q (want %q or %q)",
			c.Backend, BackendSim, BackendProc)
	}
	return nil
}

// Result is the output of one RP-DBSCAN run plus the instrumentation the
// experiment harness consumes.
type Result struct {
	// Labels holds a cluster id per point, or Noise.
	Labels []int
	// CorePoint marks the points judged core by the (eps,rho)-region
	// queries.
	CorePoint []bool
	// NumClusters is the number of clusters found.
	NumClusters int

	// Report carries per-stage task costs from the engine.
	Report *engine.Report

	// DictSizeBits is the two-level cell dictionary size per Lemma 4.3.
	DictSizeBits int64
	// DictBytes is the size of the encoded broadcast payload.
	DictBytes int
	// NumCells and NumSubCells are dictionary totals.
	NumCells    int
	NumSubCells int
	// EdgesPerRound records the total cell-graph edges remaining after
	// each merge round; index 0 is the pre-merge total (Table 7).
	EdgesPerRound []int64
	// PointsProcessed is the summed number of points handled across all
	// splits. Pseudo random partitioning makes this exactly N
	// (Section 7.3.2).
	PointsProcessed int64

	// Stream holds out-of-core pipeline statistics; nil for in-memory Run.
	Stream *StreamStats
}

// partState carries one partition's data between phases.
type partState struct {
	cells []*grid.Cell
	// ids holds each owned cell's dense dictionary id, parallel to cells.
	ids      []int32
	cellCore []bool
	// corePts lists, per cell, the indices of its core points.
	corePts  [][]int
	subgraph *graph.Graph
}

// Run executes RP-DBSCAN over pts on the given cluster. The cluster's
// report accumulates the stage costs; callers wanting a clean report should
// pass a fresh cluster.
func Run(pts *geom.Points, cfg Config, cl *engine.Cluster) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == BackendProc {
		return runProc(pts, cfg, cl)
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
	side := grid.Side(cfg.Eps, dim)
	params := dict.Params{Eps: cfg.Eps, Rho: cfg.Rho, Dim: dim}

	// ---- Phase I-1: pseudo random partitioning (Algorithm 2, part 1).
	// Map: chunk the input, assign points to cells, and bucket each cell
	// by its destination partition. Bucketing on the map side lets each
	// reducer read only its own column of the [chunk][dest] matrix; the
	// previous shuffle had all k reducers scan all k chunk maps and
	// filter, touching every cell k times (O(k^2) in cells).
	type keyedCell struct {
		key    grid.Key
		points []int
	}
	buckets := make([][][]keyedCell, k)
	cl.RunStage("I-1", "cell-assignment", k, func(t int) {
		lo, hi := t*n/k, (t+1)*n/k
		m := make(map[grid.Key][]int)
		for i := lo; i < hi; i++ {
			key := grid.KeyFor(pts.At(i), side)
			m[key] = append(m[key], i)
		}
		dest := make([][]keyedCell, k)
		for key, idx := range m {
			d := partitionOf(key, cfg.Seed, k)
			dest[d] = append(dest[d], keyedCell{key: key, points: idx})
		}
		buckets[t] = dest
	})
	// Reduce (shuffle): each partition concatenates its column — the
	// cells whose random key, a seeded hash needing no coordination,
	// lands on it (Algorithm 2 lines 5-11).
	parts := make([]*partState, k)
	shuffle := cl.RunStage("I-1", "cell-partitioning", k, func(t int) {
		mine := make(map[grid.Key][]int)
		for _, dest := range buckets {
			for _, kc := range dest[t] {
				mine[kc.key] = append(mine[kc.key], kc.points...)
			}
		}
		keys := make([]grid.Key, 0, len(mine))
		for key := range mine {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		st := &partState{cells: make([]*grid.Cell, 0, len(keys))}
		for _, key := range keys {
			st.cells = append(st.cells, &grid.Cell{Key: key, Points: mine[key]})
		}
		parts[t] = st
	})
	// Account the shuffle payload: every point id crosses the shuffle to
	// its cell's partition exactly once (8 bytes per id), plus one cell
	// key per cell.
	for _, st := range parts {
		for _, c := range st.cells {
			shuffle.Bytes += int64(8*len(c.Points) + len(c.Key))
		}
	}

	// ---- Phase I-2: cell dictionary building (Algorithm 2, part 2).
	entriesPer := make([][]dict.CellEntry, k)
	cl.RunStage("I-2", "dictionary-build", k, func(t int) {
		entries := make([]dict.CellEntry, 0, len(parts[t].cells))
		for _, c := range parts[t].cells {
			entries = append(entries, dict.BuildEntry(c, pts, params))
		}
		entriesPer[t] = entries
	})
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
	// Each executor (worker machine) loads — decodes and indexes — the
	// broadcast once; its tasks share the read-only copy, as on Spark.
	numExec := cl.ExecutorCount()
	if numExec > k {
		numExec = k
	}
	dicts := make([]*dict.Dictionary, numExec)
	loadErrs := make([]error, numExec)
	cl.RunStage("I-2", "dictionary-load", numExec, func(t int) {
		// Fetch transfers the broadcast through the engine's checksummed
		// channel: under chaos, corrupted chunks are detected and
		// re-transferred before the bytes ever reach the decoder.
		buf, err := cl.Fetch(payload, t)
		if err == nil {
			dicts[t], err = dict.Decode(buf, cfg.MaxCellsPerSubDict)
		}
		loadErrs[t] = err
	})
	for _, err := range loadErrs {
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: dictionary load: %w", err)
		}
	}

	// ---- Phase II: core marking and subgraph building (Algorithm 3).
	numCells := stats.NumCells
	cl.RunStage("II", "cell-graph-construction", k, func(t int) {
		// Tasks on one executor share its dictionary copy.
		st := parts[t]
		phase2Task(pts, cfg, st, dicts[t%numExec], numCells)
		for _, ids := range st.corePts {
			for _, pi := range ids {
				res.CorePoint[pi] = true
			}
		}
	})
	for i := range dicts {
		dicts[i] = nil // release the executors' dictionary copies
	}

	// ---- Phase III-1: graph merging (Algorithm 4, part 1) — the flat
	// lock-free merge by default, the pairwise tournament under
	// cfg.SerialMerge; see merge.go.
	subgraphs := make([]*graph.Graph, k)
	for i, st := range parts {
		subgraphs[i] = st.subgraph
	}
	finalize := mergePhase(cl, cfg, numCells, subgraphs, res)

	// ---- Phase III-2: point labeling (Algorithm 4, part 2).
	labelPhase(cl, cfg, pts, parts, numCells, finalize, res)

	res.Report = cl.Report()
	return res, nil
}

// labelPhase runs Phase III-2 — label preparation and point labeling
// (Algorithm 4, part 2) — over the merged graph. It is driver-side code
// shared verbatim by the in-process and multi-process Run paths: both
// arrive here with identical parts and an identical merged graph, so the
// labels they produce are identical by construction.
func labelPhase(cl *engine.Cluster, cfg Config, pts *geom.Points, parts []*partState,
	numCells int, finalize func() mergeOutcome, res *Result) {
	var comp []int32
	var preds map[int32][]int32
	coreByCell := make([][]int, numCells)
	cl.Serial("III-2", "label-preparation", func() {
		out := finalize()
		comp, preds = out.comp, out.preds
		// Shuffle: gather core points of cells that precede partial
		// edges so workers can run the exact distance checks of
		// Lemma 3.5.
		needed := make(map[int32]bool)
		for _, ps := range preds {
			for _, p := range ps {
				needed[p] = true
			}
		}
		for _, st := range parts {
			for ci := range st.cells {
				if needed[st.ids[ci]] {
					coreByCell[st.ids[ci]] = st.corePts[ci]
				}
			}
		}
	})
	cl.RunStage("III-2", "point-labeling", len(parts), func(t int) {
		st := parts[t]
		for ci, cell := range st.cells {
			if st.cellCore[ci] {
				// All points of a core cell share its component's
				// cluster (Figure 3a, maximality).
				cid := int(comp[st.ids[ci]])
				for _, pi := range cell.Points {
					res.Labels[pi] = cid
				}
				continue
			}
			pcs := preds[st.ids[ci]]
			if len(pcs) == 0 {
				continue // noise cell
			}
			for _, qi := range cell.Points {
				qp := pts.At(qi)
				for _, pk := range pcs {
					if comp[pk] < 0 {
						continue
					}
					found := false
					for _, pi := range coreByCell[pk] {
						if geom.Dist2(qp, pts.At(pi)) <= cfg.Eps*cfg.Eps {
							res.Labels[qi] = int(comp[pk])
							found = true
							break
						}
					}
					if found {
						break
					}
				}
			}
		}
	})
}

// phase2Task runs one partition's share of Phase II — core marking and
// cell-subgraph building (Algorithm 3) — over the owned cells of st,
// filling st.ids/cellCore/corePts/subgraph; st.corePts is the partition's
// only record of its core points. The production path batches region
// queries at cell granularity (dict.Querier.QueryCell) and evaluates the
// per-point residual checks through the blocked SoA kernels: each cell's
// points are gathered once into per-dimension lanes (geom.Block),
// CountPoints answers every point's core decision candidate-by-candidate
// with the MinPts early exit, and AppendNeighborsBlock computes the core
// points' neighbor-cell union directly. cfg.DisableBatching selects the
// per-point oracle (dict.Querier.Query) instead; both produce identical
// output.
func phase2Task(pts *geom.Points, cfg Config, st *partState, d *dict.Dictionary, numCells int) {
	q := d.AcquireQuerier()
	defer d.ReleaseQuerier(q)
	g := graph.New(numCells)
	st.ids = make([]int32, len(st.cells))
	st.cellCore = make([]bool, len(st.cells))
	st.corePts = make([][]int, len(st.cells))
	// Scratch, pooled across tasks and pre-sized to the partition's largest
	// cell so the cell loop never reallocates. The arena backs every cell's
	// core-point list (total core points never exceed total points): one
	// allocation per task instead of one per core cell, and it cannot be
	// pooled because the windows are retained in st.corePts.
	maxn, total := 0, 0
	for _, cell := range st.cells {
		maxn = max(maxn, len(cell.Points))
		total += len(cell.Points)
	}
	scratch := phase2Pool.Get().(*phase2Scratch)
	defer phase2Pool.Put(scratch)
	scratch.ensure(pts.Dim, maxn)
	blk := &scratch.blk
	arena := make([]int, 0, total)
	nc := cellSet{in: make([]bool, numCells), ids: make([]int32, 0, 64)}
	var neighborCells []int32
	minPts := int64(cfg.MinPts)
	for ci, cell := range st.cells {
		id, ok := d.IDOf(cell.Key)
		if !ok {
			// Every owned cell is non-empty, so it must be in the
			// dictionary; reaching here means a broadcast bug.
			panic("rpdbscan: owned cell missing from dictionary")
		}
		st.ids[ci] = id
		nc.reset()
		// The arena's capacity covers every point of the partition, so
		// appends never reallocate and each cell's window stays valid.
		start := len(arena)
		if cfg.DisableBatching {
			for _, pi := range cell.Points {
				var count int64
				count, neighborCells = q.Query(pts.At(pi), true, neighborCells[:0])
				if count >= minPts {
					arena = append(arena, pi)
					nc.add(neighborCells)
				}
			}
		} else {
			blk.Gather(pts, cell.Points)
			b := q.QueryCell(cell.Key, blk)
			np := len(cell.Points)
			counts, sel := scratch.counts[:np], scratch.sel[:np]
			b.CountPoints(minPts, counts)
			for i, pi := range cell.Points {
				sel[i] = counts[i] >= minPts
				if sel[i] {
					arena = append(arena, pi)
				}
			}
			if len(arena) > start {
				// Per-point neighbor sets are only ever unioned into NC, so
				// the blocked kernel answers the union over the cell's core
				// points directly; fully-inside candidates neighbor every
				// point and join once.
				neighborCells = b.AppendNeighborsBlock(sel, neighborCells[:0])
				nc.add(neighborCells)
				nc.add(b.InsideCells())
			}
		}
		if len(arena) > start {
			st.cellCore[ci] = true
			st.corePts[ci] = arena[start:len(arena):len(arena)]
			g.SetVertex(id, graph.Core)
			slices.Sort(nc.ids) // deterministic edge insertion order
			for _, nid := range nc.ids {
				g.AddEdge(id, nid)
			}
		} else {
			g.SetVertex(id, graph.NonCore)
		}
	}
	st.subgraph = g
}

// cellSet is a sparse set of dense cell ids, the neighbor cells NC of one
// owned cell: in flags membership, ids lists members for an O(|NC|) reset.
// It is not a map because hashing and clearing a map dominated cells with
// many core points.
type cellSet struct {
	in  []bool
	ids []int32
}

func (s *cellSet) add(ids []int32) {
	for _, id := range ids {
		if !s.in[id] {
			s.in[id] = true
			s.ids = append(s.ids, id)
		}
	}
}

func (s *cellSet) reset() {
	for _, id := range s.ids {
		s.in[id] = false
	}
	s.ids = s.ids[:0]
}
