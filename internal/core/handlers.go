package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"rpdbscan/internal/dict"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/graph"
	"rpdbscan/internal/grid"
	"rpdbscan/internal/spill"
)

// Worker-side task handlers for the multi-process backend. Each remote
// stage of the proc Run path (see remote.go) executes as one of these
// registered handlers on a worker process: the driver ships the stage
// input over the transport, the handler computes against the worker's
// pushed blobs (input points, run configuration, encoded dictionary), and
// the output bytes travel back. Every handler is a deterministic pure
// function of (blobs, task, input) — local map iteration never reaches the
// output (cells are sorted by key before encoding) — which is what lets
// the differential battery pin proc labels byte-identical to in-process
// Run.

// Blob names the driver pushes to every worker before remote stages run.
const (
	// BlobPoints is the full input point set (every worker holds a copy,
	// as Spark executors hold their cached input split — with k random
	// partitions over w workers, every worker ends up needing most cells).
	BlobPoints = "points"
	// BlobConf is the JSON-encoded run configuration.
	BlobConf = "conf"
	// BlobDict is the RPD2-encoded cell dictionary broadcast after
	// Phase I-2.
	BlobDict = "dict"
)

// Remote stage handler names (registered in init).
const (
	HandlerCellAssign = "cell-assignment"
	HandlerCellPart   = "cell-partitioning"
	HandlerDictBuild  = "dictionary-build"
	HandlerDictLoad   = "dictionary-load"
	HandlerPhase2     = "cell-graph-construction"
)

func init() {
	engine.RegisterHandler(HandlerCellAssign, handleCellAssignment)
	engine.RegisterHandler(HandlerCellPart, handleCellPartitioning)
	engine.RegisterHandler(HandlerDictBuild, handleDictionaryBuild)
	engine.RegisterHandler(HandlerDictLoad, handleDictionaryLoad)
	engine.RegisterHandler(HandlerPhase2, handlePhase2)
}

// wireConf is the configuration blob's schema: the Config fields remote
// handlers need, frozen at push time.
type wireConf struct {
	Eps                float64 `json:"eps"`
	MinPts             int     `json:"min_pts"`
	Rho                float64 `json:"rho"`
	K                  int     `json:"k"`
	Seed               int64   `json:"seed"`
	MaxCellsPerSubDict int     `json:"max_cells_per_sub_dict"`
	DisableBatching    bool    `json:"disable_batching,omitempty"`
}

// EncodePoints serialises a point set for the points blob: dim uint32,
// n uint32, then n*dim big-endian float64 coordinates.
func EncodePoints(pts *geom.Points) []byte {
	buf := make([]byte, 8+8*len(pts.Coords))
	binary.BigEndian.PutUint32(buf, uint32(pts.Dim))
	binary.BigEndian.PutUint32(buf[4:], uint32(pts.N()))
	off := 8
	for _, v := range pts.Coords {
		binary.BigEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf
}

// DecodePoints is the inverse of EncodePoints.
func DecodePoints(buf []byte) (*geom.Points, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("core: truncated points blob (%d bytes)", len(buf))
	}
	dim := int(binary.BigEndian.Uint32(buf))
	n := int(binary.BigEndian.Uint32(buf[4:]))
	if dim < 1 || n < 0 || len(buf) != 8+8*n*dim {
		return nil, fmt.Errorf("core: points blob dim=%d n=%d inconsistent with %d bytes",
			dim, n, len(buf))
	}
	coords := make([]float64, n*dim)
	off := 8
	for i := range coords {
		coords[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
	}
	return &geom.Points{Dim: dim, Coords: coords}, nil
}

// workerPoints returns the worker's decoded copy of the points blob.
func workerPoints(ws *engine.WorkerState) (*geom.Points, error) {
	v, err := ws.Cached(BlobPoints, func(data []byte) (any, error) {
		return DecodePoints(data)
	})
	if err != nil {
		return nil, err
	}
	return v.(*geom.Points), nil
}

// workerConf returns the worker's decoded copy of the configuration blob.
func workerConf(ws *engine.WorkerState) (*wireConf, error) {
	v, err := ws.Cached(BlobConf, func(data []byte) (any, error) {
		var c wireConf
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("core: conf blob: %w", err)
		}
		if c.K < 1 {
			return nil, fmt.Errorf("core: conf blob has k=%d", c.K)
		}
		return &c, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*wireConf), nil
}

// workerDict returns the worker's decoded-and-indexed dictionary, built at
// most once per pushed dict blob (the executor-side broadcast load of
// Algorithm 2).
func workerDict(ws *engine.WorkerState) (*dict.Dictionary, error) {
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	v, err := ws.Cached(BlobDict, func(data []byte) (any, error) {
		return dict.Decode(data, conf.MaxCellsPerSubDict)
	})
	if err != nil {
		return nil, err
	}
	return v.(*dict.Dictionary), nil
}

// sortRunCells orders cells by key, removing any trace of map iteration
// order before encoding.
func sortRunCells(cells []spill.RunCell) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
}

// runCellOf builds one shuffle cell record: the cell's point ids (already
// ascending — they come from an ascending index scan) plus their raw
// coordinates, the actual payload the paper's Phase I shuffle ships.
func runCellOf(key grid.Key, idx []int, pts *geom.Points) spill.RunCell {
	c := spill.RunCell{Key: key, IDs: make([]int64, len(idx)), Coords: make([]float64, 0, len(idx)*pts.Dim)}
	for i, pi := range idx {
		c.IDs[i] = int64(pi)
		c.Coords = append(c.Coords, pts.At(pi)...)
	}
	return c
}

// handleCellAssignment is the remote map side of Phase I-1 (Algorithm 2,
// part 1): assign the task's chunk of points to cells and deal each cell
// to its pseudo random destination partition. The output is k RPS1 frames
// concatenated in destination order, frame d holding this chunk's cells
// for partition d, sorted by key.
func handleCellAssignment(ws *engine.WorkerState, task int, _ []byte) ([]byte, error) {
	pts, err := workerPoints(ws)
	if err != nil {
		return nil, err
	}
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	k := conf.K
	if task < 0 || task >= k {
		return nil, fmt.Errorf("core: cell-assignment task %d out of range [0,%d)", task, k)
	}
	n := pts.N()
	lo, hi := task*n/k, (task+1)*n/k
	side := grid.Side(conf.Eps, pts.Dim)
	m := make(map[grid.Key][]int)
	for i := lo; i < hi; i++ {
		key := grid.KeyFor(pts.At(i), side)
		m[key] = append(m[key], i)
	}
	dest := make([][]spill.RunCell, k)
	for key, idx := range m {
		d := partitionOf(key, conf.Seed, k)
		dest[d] = append(dest[d], runCellOf(key, idx, pts))
	}
	var out []byte
	for d := 0; d < k; d++ {
		sortRunCells(dest[d])
		out = append(out, spill.EncodeRun(task, pts.Dim, dest[d])...)
	}
	return out, nil
}

// handleCellPartitioning is the remote reduce side of Phase I-1: the input
// is the concatenation, in ascending chunk order, of every chunk's frame
// for this partition; the output is one merged frame, cells sorted by key,
// each cell's ids the concatenation of the chunks' ascending runs (chunk
// index ranges are disjoint and ascending, so the merged ids are globally
// ascending — the exact order the in-process path produces).
func handleCellPartitioning(ws *engine.WorkerState, task int, input []byte) ([]byte, error) {
	pts, err := workerPoints(ws)
	if err != nil {
		return nil, err
	}
	runs, err := spill.DecodeRuns(input)
	if err != nil {
		return nil, err
	}
	merged := make(map[grid.Key]*spill.RunCell)
	var keys []grid.Key
	for _, r := range runs {
		for _, c := range r.Cells {
			mc, ok := merged[c.Key]
			if !ok {
				mc = &spill.RunCell{Key: c.Key}
				merged[c.Key] = mc
				keys = append(keys, c.Key)
			}
			mc.IDs = append(mc.IDs, c.IDs...)
			mc.Coords = append(mc.Coords, c.Coords...)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cells := make([]spill.RunCell, 0, len(keys))
	for _, key := range keys {
		cells = append(cells, *merged[key])
	}
	return spill.EncodeRun(task, pts.Dim, cells), nil
}

// partitionCells decodes one partition's merged frame into grid cells.
func partitionCells(input []byte) ([]*grid.Cell, error) {
	runs, err := spill.DecodeRuns(input)
	if err != nil {
		return nil, err
	}
	if len(runs) != 1 {
		return nil, fmt.Errorf("core: partition frame holds %d runs, want 1", len(runs))
	}
	cells := make([]*grid.Cell, 0, len(runs[0].Cells))
	for _, c := range runs[0].Cells {
		idx := make([]int, len(c.IDs))
		for i, id := range c.IDs {
			idx[i] = int(id)
		}
		cells = append(cells, &grid.Cell{Key: c.Key, Points: idx})
	}
	return cells, nil
}

// handleDictionaryBuild is remote Phase I-2 (Algorithm 2, part 2): build
// the partition's cell entries and return them RPD2-encoded; the driver
// decodes and concatenates every partition's shard into the global
// broadcast.
func handleDictionaryBuild(ws *engine.WorkerState, _ int, input []byte) ([]byte, error) {
	pts, err := workerPoints(ws)
	if err != nil {
		return nil, err
	}
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	cells, err := partitionCells(input)
	if err != nil {
		return nil, err
	}
	params := dict.Params{Eps: conf.Eps, Rho: conf.Rho, Dim: pts.Dim}
	entries := make([]dict.CellEntry, 0, len(cells))
	for _, c := range cells {
		entries = append(entries, dict.BuildEntry(c, pts, params))
	}
	return dict.EncodeEntries(entries, params), nil
}

// handleDictionaryLoad decodes and indexes the pushed dictionary blob on
// the worker (the per-executor broadcast load the simulator runs as its
// own stage), returning the cell count as an 8-byte ack the driver can
// cross-check.
func handleDictionaryLoad(ws *engine.WorkerState, _ int, _ []byte) ([]byte, error) {
	d, err := workerDict(ws)
	if err != nil {
		return nil, err
	}
	var numCells int64
	for _, sd := range d.Subs {
		numCells += int64(len(sd.Entries))
	}
	ack := make([]byte, 8)
	binary.BigEndian.PutUint64(ack, uint64(numCells))
	return ack, nil
}

// handlePhase2 is remote Phase II (Algorithm 3): run phase2Task over the
// partition's cells against the worker's dictionary copy. Input is a
// uint32 global cell count followed by the partition's merged frame;
// output is the phase-2 result record (ids, core flags, core-point lists,
// encoded subgraph) of encodePhase2Result.
func handlePhase2(ws *engine.WorkerState, _ int, input []byte) ([]byte, error) {
	if len(input) < 4 {
		return nil, fmt.Errorf("core: phase-2 input truncated (%d bytes)", len(input))
	}
	numCells := int(binary.BigEndian.Uint32(input))
	pts, err := workerPoints(ws)
	if err != nil {
		return nil, err
	}
	conf, err := workerConf(ws)
	if err != nil {
		return nil, err
	}
	d, err := workerDict(ws)
	if err != nil {
		return nil, err
	}
	cells, err := partitionCells(input[4:])
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Eps: conf.Eps, MinPts: conf.MinPts, Rho: conf.Rho,
		DisableBatching: conf.DisableBatching,
	}
	st := &partState{cells: cells}
	phase2Task(pts, cfg, st, d, numCells)
	return encodePhase2Result(st), nil
}

// encodePhase2Result serialises one partition's Phase II output: per owned
// cell its dense dictionary id, core flag, and core-point indices, then
// the length-prefixed encoded subgraph. The core-point lists double as the
// global core flags: a point is core iff it appears in its owning cell's
// list.
func encodePhase2Result(st *partState) []byte {
	size := 4
	for ci := range st.cells {
		size += 4 + 1 + 4 + 4*len(st.corePts[ci])
	}
	g := st.subgraph.Encode()
	size += 4 + len(g)
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.cells)))
	for ci := range st.cells {
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.ids[ci]))
		if st.cellCore[ci] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.corePts[ci])))
		for _, pi := range st.corePts[ci] {
			buf = binary.BigEndian.AppendUint32(buf, uint32(pi))
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g)))
	buf = append(buf, g...)
	return buf
}

// decodePhase2Result fills st (whose cells are already decoded) from a
// phase-2 result record, marking core points in corePoint.
func decodePhase2Result(buf []byte, st *partState, n int, corePoint []bool) error {
	off := 0
	need := func(want int) error {
		if len(buf)-off < want {
			return fmt.Errorf("core: phase-2 result truncated at offset %d", off)
		}
		return nil
	}
	if err := need(4); err != nil {
		return err
	}
	numOwned := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if numOwned != len(st.cells) {
		return fmt.Errorf("core: phase-2 result covers %d cells, partition owns %d",
			numOwned, len(st.cells))
	}
	st.ids = make([]int32, numOwned)
	st.cellCore = make([]bool, numOwned)
	st.corePts = make([][]int, numOwned)
	for ci := 0; ci < numOwned; ci++ {
		if err := need(9); err != nil {
			return err
		}
		st.ids[ci] = int32(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		switch buf[off] {
		case 0:
		case 1:
			st.cellCore[ci] = true
		default:
			return fmt.Errorf("core: phase-2 result cell %d has core flag %d", ci, buf[off])
		}
		off++
		npts := int(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if err := need(4 * npts); err != nil {
			return err
		}
		if npts > 0 {
			ids := make([]int, npts)
			for i := range ids {
				pi := int(binary.BigEndian.Uint32(buf[off:]))
				off += 4
				if pi < 0 || pi >= n {
					return fmt.Errorf("core: phase-2 result core point %d out of range [0,%d)", pi, n)
				}
				ids[i] = pi
				corePoint[pi] = true
			}
			st.corePts[ci] = ids
		}
	}
	if err := need(4); err != nil {
		return err
	}
	glen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if err := need(glen); err != nil {
		return err
	}
	g, err := graph.Decode(buf[off : off+glen])
	if err != nil {
		return err
	}
	off += glen
	if off != len(buf) {
		return fmt.Errorf("core: phase-2 result has %d trailing bytes", len(buf)-off)
	}
	st.subgraph = g
	return nil
}
