package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/grid"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/spill"
)

// DefaultChunkSize is the streamed chunk size, in points, when
// StreamConfig.ChunkSize is unset.
const DefaultChunkSize = 1 << 16

// StreamConfig configures the out-of-core pipeline. The embedded Config
// carries the algorithm parameters; streaming adds only memory knobs, so a
// streamed run and an in-memory run of the same Config are comparable.
type StreamConfig struct {
	Config
	// ChunkSize is the number of points ingested per chunk; <= 0 selects
	// DefaultChunkSize. Peak Phase I memory is proportional to
	// ChunkSize * parallelism, independent of N.
	ChunkSize int
	// SpillDir is the parent directory for the run's temporary spill
	// directory; empty means the OS default. The spill directory is
	// removed when RunStream returns.
	SpillDir string
	// Probe, when set, is called at memory-relevant moments with a label
	// ("chunk" per ingested chunk, then "spill-closed", "dict-built",
	// "dict-loaded", "phase2", "done"). The bench harness samples the live
	// heap here to certify the Phase I memory bound.
	Probe func(label string)
}

// StreamStats instruments one RunStream execution.
type StreamStats struct {
	// Chunks is the number of input chunks ingested.
	Chunks int
	// SpillBytes is the total run-record payload written across all
	// partition spill files.
	SpillBytes int64
	// SpillReloads counts spill-file scans after the initial write: the
	// dictionary build, the Phase II rematerialisation, and the core-point
	// gather each re-read partitions from disk instead of holding them in
	// memory.
	SpillReloads int64
}

// RunStream executes RP-DBSCAN over a single-pass point stream, producing
// output byte-identical to Run on the same points — the differential test
// battery asserts exactly that. The pipeline differs only in where data
// lives:
//
//   - Phase I-1 ingests bounded chunks and shuffles them map-side to k
//     checksummed spill files (one per partition), so peak memory during
//     ingestion is proportional to ChunkSize * parallelism, never N.
//   - Phase I-2 builds each partition's dictionary entries by scanning its
//     spill file one run at a time through dict.StreamBuilder.
//   - Phase II rematerialises one partition at a time from its spill file,
//     runs the unchanged phase2Task on partition-local points, then keeps
//     only what Phase III needs (cell membership, core-point ids, non-core
//     cell coordinates) and releases the rest.
//   - Phase III-2 re-reads core-point coordinates of predecessor cells from
//     the spill files instead of holding all coordinates resident.
//
// Determinism: chunk indices are assigned by the serial reader, each spill
// writer deduplicates appends by chunk (engine retries and speculative
// copies are no-ops), and loads sort runs by chunk index — so every
// per-cell point list comes back in ascending global order no matter how
// chaotic the execution was.
func RunStream(src pointio.Source, cfg StreamConfig, cl *engine.Cluster) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dim := src.Dim()
	if dim < 1 {
		return nil, fmt.Errorf("rpdbscan: source dimension must be >= 1, got %d", dim)
	}
	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	probe := cfg.Probe
	if probe == nil {
		probe = func(string) {}
	}
	k := cfg.NumPartitions
	if k == 0 {
		k = cl.Workers
	}
	if k < 1 {
		k = 1
	}
	side := grid.Side(cfg.Eps, dim)
	params := dict.Params{Eps: cfg.Eps, Rho: cfg.Rho, Dim: dim}

	spillDir, err := os.MkdirTemp(cfg.SpillDir, "rpdbscan-spill-*")
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: spill dir: %w", err)
	}
	defer os.RemoveAll(spillDir)
	writers := make([]*spill.Writer, k)
	paths := make([]string, k)
	for t := range writers {
		paths[t] = filepath.Join(spillDir, fmt.Sprintf("part-%03d.spill", t))
		if writers[t], err = spill.NewWriter(paths[t]); err != nil {
			return nil, fmt.Errorf("rpdbscan: spill writer: %w", err)
		}
	}
	defer func() {
		for _, w := range writers {
			if w != nil {
				w.Close()
			}
		}
	}()

	// ---- Phase I-1: streamed pseudo random partitioning. The serial pull
	// reads one chunk into a fresh buffer (retries and speculative copies
	// may re-run a body after later chunks started, so buffers are never
	// shared) and assigns the chunk's contiguous global index range; the
	// concurrent body maps points to cells, deals cells to partitions, and
	// appends one run per touched partition. AppendRun deduplicates by
	// chunk, making the body idempotent as the engine requires.
	var nPoints int64 // owned by the serial pull
	streamStage, serr := cl.StreamStage("I-1", "stream-spill", func(task int) (func(), error) {
		buf := make([]float64, chunkSize*dim)
		m, err := src.Next(buf)
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: stream chunk %d: %w", task, err)
		}
		base := nPoints
		nPoints += int64(m)
		obs.Histograms.StreamChunkPoints.Record(int64(m))
		probe("chunk")
		return func() {
			cells := make(map[grid.Key][]int)
			for i := 0; i < m; i++ {
				key := grid.KeyFor(buf[i*dim:(i+1)*dim], side)
				cells[key] = append(cells[key], i)
			}
			dest := make([][]spill.RunCell, k)
			for key, idx := range cells {
				rc := spill.RunCell{
					Key:    key,
					IDs:    make([]int64, len(idx)),
					Coords: make([]float64, 0, len(idx)*dim),
				}
				for j, li := range idx {
					rc.IDs[j] = base + int64(li)
					rc.Coords = append(rc.Coords, buf[li*dim:(li+1)*dim]...)
				}
				d := partitionOf(key, cfg.Seed, k)
				dest[d] = append(dest[d], rc)
			}
			for d, cs := range dest {
				if len(cs) == 0 {
					continue
				}
				// Deterministic record bytes regardless of map order.
				sort.Slice(cs, func(i, j int) bool { return cs[i].Key < cs[j].Key })
				if _, err := writers[d].AppendRun(task, dim, cs); err != nil {
					// Surfaces through the engine retry budget as an error.
					panic(err)
				}
			}
		}, nil
	})
	if serr != nil {
		return nil, serr
	}
	n := int(nPoints)
	var spillBytes int64
	for t, w := range writers {
		spillBytes += w.Bytes()
		writers[t] = nil
		if cerr := w.Close(); cerr != nil {
			return nil, fmt.Errorf("rpdbscan: close spill %d: %w", t, cerr)
		}
	}
	streamStage.Bytes = spillBytes
	probe("spill-closed")

	res := &Result{
		Labels:          make([]int, n),
		CorePoint:       make([]bool, n),
		PointsProcessed: nPoints,
		Stream: &StreamStats{
			Chunks:     len(streamStage.Costs),
			SpillBytes: spillBytes,
		},
	}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if n == 0 {
		res.Report = cl.Report()
		return res, nil
	}
	var reloads atomic.Int64

	// ---- Phase I-2: dictionary building from the spill files. Each task
	// streams its partition's runs one record at a time into the
	// order-independent StreamBuilder; only the cell summaries — never the
	// partition's points — are resident.
	entriesPer := make([][]dict.CellEntry, k)
	buildErrs := make([]error, k)
	cl.RunStage("I-2", "dictionary-build", k, func(t int) {
		b := dict.NewStreamBuilder(params)
		err := spill.ScanRuns(paths[t], func(r *spill.Run) error {
			if r.Dim != dim {
				return fmt.Errorf("rpdbscan: spill run dim %d, want %d", r.Dim, dim)
			}
			for _, c := range r.Cells {
				b.Add(c.Key, c.Coords)
			}
			return nil
		})
		if err != nil {
			buildErrs[t] = err
			return
		}
		reloads.Add(1)
		entriesPer[t] = b.Entries()
	})
	for _, err := range buildErrs {
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: dictionary build: %w", err)
		}
	}
	probe("dict-built")
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
	numExec := cl.ExecutorCount()
	if numExec > k {
		numExec = k
	}
	dicts := make([]*dict.Dictionary, numExec)
	loadErrs := make([]error, numExec)
	cl.RunStage("I-2", "dictionary-load", numExec, func(t int) {
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
	probe("dict-loaded")

	// ---- Phase II: core marking and subgraph building, one rematerialised
	// partition at a time. Each task reloads its spill file, rebuilds the
	// partition's cells over partition-local point indices (runs arrive
	// chunk-sorted, so per-cell lists are in ascending global order exactly
	// as Run builds them), and hands the unchanged phase2Task a local point
	// set. Afterwards it keeps only what Phase III needs — global cell
	// membership, core-point ids, and the coordinates of non-core cells —
	// and lets the partition's point set go.
	numCells := stats.NumCells
	parts := make([]*partState, k)
	noncoreCoords := make([][][]float64, k)
	phase2Errs := make([]error, k)
	cl.RunStage("II", "cell-graph-construction", k, func(t int) {
		runs, err := spill.LoadFile(paths[t])
		if err != nil {
			phase2Errs[t] = err
			return
		}
		reloads.Add(1)
		frags := make(map[grid.Key][]*spill.RunCell)
		var keys []grid.Key
		total := 0
		for _, r := range runs {
			for i := range r.Cells {
				c := &r.Cells[i]
				if _, ok := frags[c.Key]; !ok {
					keys = append(keys, c.Key)
				}
				frags[c.Key] = append(frags[c.Key], c)
				total += len(c.IDs)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		pts := &geom.Points{Dim: dim, Coords: make([]float64, 0, total*dim)}
		gids := make([]int, 0, total)
		st := &partState{cells: make([]*grid.Cell, 0, len(keys))}
		for _, key := range keys {
			cell := &grid.Cell{Key: key}
			for _, f := range frags[key] {
				for _, id := range f.IDs {
					cell.Points = append(cell.Points, len(gids))
					gids = append(gids, int(id))
				}
				pts.Coords = append(pts.Coords, f.Coords...)
			}
			st.cells = append(st.cells, cell)
		}
		phase2Task(pts, cfg.Config, st, dicts[t%numExec], numCells)
		nc := make([][]float64, len(st.cells))
		for ci, cell := range st.cells {
			if st.cellCore[ci] {
				continue
			}
			flat := make([]float64, 0, len(cell.Points)*dim)
			for _, li := range cell.Points {
				flat = append(flat, pts.At(li)...)
			}
			nc[ci] = flat
		}
		noncoreCoords[t] = nc
		for _, cell := range st.cells {
			for j, li := range cell.Points {
				cell.Points[j] = gids[li]
			}
		}
		for _, ids := range st.corePts {
			for j, li := range ids {
				ids[j] = gids[li]
				res.CorePoint[ids[j]] = true
			}
		}
		parts[t] = st
	})
	for _, err := range phase2Errs {
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: phase II reload: %w", err)
		}
	}
	for i := range dicts {
		dicts[i] = nil // release the executors' dictionary copies
	}
	probe("phase2")

	// ---- Phase III-1: graph merging, identical to Run (flat lock-free by
	// default, tournament under cfg.SerialMerge; see merge.go).
	subgraphs := make([]*graph.Graph, k)
	for i, st := range parts {
		subgraphs[i] = st.subgraph
	}
	finalize := mergePhase(cl, cfg.Config, numCells, subgraphs, res)

	// ---- Phase III-2: point labeling. Coordinates of predecessor cells'
	// core points were released with the partition point sets, so a gather
	// stage re-reads them from the spill files first — only partitions
	// owning a needed cell pay a reload.
	var comp []int32
	var preds map[int32][]int32
	needed := make(map[int32]bool)
	cl.Serial("III-2", "label-preparation", func() {
		out := finalize()
		comp, preds = out.comp, out.preds
		for _, ps := range preds {
			for _, p := range ps {
				needed[p] = true
			}
		}
	})
	coreCoords := make([][]float64, numCells)
	gatherErrs := make([]error, k)
	cl.RunStage("III-2", "core-point-gather", k, func(t int) {
		st := parts[t]
		type target struct {
			slot int32
			core []int // ascending global ids of the cell's core points
		}
		want := make(map[grid.Key]target)
		for ci, cell := range st.cells {
			if id := st.ids[ci]; needed[id] && st.cellCore[ci] {
				want[cell.Key] = target{slot: id, core: st.corePts[ci]}
			}
		}
		if len(want) == 0 {
			return // no reload: this partition owns no predecessor cell
		}
		for _, tg := range want {
			coreCoords[tg.slot] = make([]float64, 0, len(tg.core)*dim)
		}
		err := spill.ScanRuns(paths[t], func(r *spill.Run) error {
			for i := range r.Cells {
				c := &r.Cells[i]
				tg, ok := want[c.Key]
				if !ok {
					continue
				}
				for j, id := range c.IDs {
					if _, found := slices.BinarySearch(tg.core, int(id)); found {
						coreCoords[tg.slot] = append(coreCoords[tg.slot], c.Coords[j*dim:(j+1)*dim]...)
					}
				}
			}
			return nil
		})
		if err != nil {
			gatherErrs[t] = err
			return
		}
		reloads.Add(1)
	})
	for _, err := range gatherErrs {
		if err != nil {
			return nil, fmt.Errorf("rpdbscan: core-point gather: %w", err)
		}
	}
	cl.RunStage("III-2", "point-labeling", k, func(t int) {
		st := parts[t]
		eps2 := cfg.Eps * cfg.Eps
		for ci, cell := range st.cells {
			if st.cellCore[ci] {
				cid := int(comp[st.ids[ci]])
				for _, gi := range cell.Points {
					res.Labels[gi] = cid
				}
				continue
			}
			pcs := preds[st.ids[ci]]
			if len(pcs) == 0 {
				continue // noise cell
			}
			flat := noncoreCoords[t][ci]
			for j, gi := range cell.Points {
				qp := flat[j*dim : (j+1)*dim]
				for _, pk := range pcs {
					if comp[pk] < 0 {
						continue
					}
					found := false
					cc := coreCoords[pk]
					for off := 0; off+dim <= len(cc); off += dim {
						if geom.Dist2(qp, cc[off:off+dim]) <= eps2 {
							res.Labels[gi] = int(comp[pk])
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

	res.Stream.SpillReloads = reloads.Load()
	res.Report = cl.Report()
	probe("done")
	return res, nil
}
