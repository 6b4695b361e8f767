package dict

import (
	"slices"
	"sort"

	"rpdbscan/internal/grid"
)

// StreamBuilder accumulates one partition's cell entries incrementally
// from streamed fragments — the out-of-core replacement for BuildEntry,
// which needs a cell's complete point list at once. Feeding the same
// points in any fragmentation produces entries byte-identical (under
// EncodeEntries) to the in-memory path: per-cell sub-cell counts are
// order-independent sums, and Entries applies the same deterministic
// sorts. Peak memory is O(cells + sub-cells), never O(points).
type StreamBuilder struct {
	p       Params
	side    float64
	subSide float64
	shift   uint
	cells   map[grid.Key]*streamCell
	origin  []float64 // scratch for the current cell's minimum corner
}

// streamCell is one cell's running summary.
type streamCell struct {
	count int32
	subs  map[grid.SubIdx]int32
}

// NewStreamBuilder returns an empty accumulator for the given geometry.
func NewStreamBuilder(p Params) *StreamBuilder {
	return &StreamBuilder{
		p:       p,
		side:    p.side(),
		subSide: p.subSide(),
		shift:   p.shift(),
		cells:   make(map[grid.Key]*streamCell),
		origin:  make([]float64, p.Dim),
	}
}

// Add folds one fragment of a cell into the summary: n = len(coords)/Dim
// points known to lie in the cell with the given key, point-major.
func (b *StreamBuilder) Add(key grid.Key, coords []float64) {
	c := b.cells[key]
	if c == nil {
		c = &streamCell{subs: make(map[grid.SubIdx]int32)}
		b.cells[key] = c
	}
	key.Origin(b.side, b.origin)
	dim := b.p.Dim
	n := len(coords) / dim
	c.count += int32(n)
	for i := 0; i < n; i++ {
		c.subs[grid.SubIdxFor(coords[i*dim:(i+1)*dim], b.origin, b.subSide, b.shift)]++
	}
}

// NumCells returns the number of distinct cells accumulated so far.
func (b *StreamBuilder) NumCells() int { return len(b.cells) }

// Entries returns the accumulated cells as dictionary entries in
// ascending key order, each cell's sub-cells sorted exactly as BuildEntry
// sorts them. IDs are left unassigned (Build assigns them globally).
func (b *StreamBuilder) Entries() []CellEntry {
	keys := make([]grid.Key, 0, len(b.cells))
	for key := range b.cells {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	entries := make([]CellEntry, 0, len(keys))
	for _, key := range keys {
		c := b.cells[key]
		e := CellEntry{Key: key, Count: c.count, Subs: make([]SubCell, 0, len(c.subs))}
		for idx, cnt := range c.subs {
			e.Subs = append(e.Subs, SubCell{Idx: idx, Count: cnt})
		}
		slices.SortFunc(e.Subs, cmpSub)
		entries = append(entries, e)
	}
	return entries
}
