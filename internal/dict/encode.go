package dict

import (
	"encoding/binary"
	"fmt"
	"math"

	"rpdbscan/internal/frame"
	"rpdbscan/internal/grid"
)

// Binary wire format used when the dictionary is broadcast to workers.
// Header:
//
//	magic "RPD2" | checksum uint64 | dim uint16 | shift uint16
//	eps float64 | rho float64 | numCells uint32
//
// The checksum is FNV-1a over everything after the checksum field itself;
// Decode verifies it before parsing, so a payload corrupted in transit is
// rejected at the wire boundary even when the transfer layer's own
// per-chunk checks are disabled. Then per cell: key coords (dim x int32),
// count uint32, numSubs uint32, and per sub-cell a packed position of
// ceil(dim*shift/8) bytes followed by a uint32 count. Sub-dictionary
// boundaries are not encoded; the receiver re-defragments locally, which
// is what the paper's workers do when memory bounds differ from the
// builder's.
const magic = "RPD2"

// checksumStart is the offset where checksummed content begins (after the
// magic and the checksum field).
const checksumStart = 4 + 8

// Reseal recomputes and patches the wire checksum in place, returning buf.
// It exists for tests and fuzzers that mutate encoded bytes and want the
// mutation to reach the parser instead of being swallowed by the checksum
// gate; production encoders never need it.
func Reseal(buf []byte) []byte {
	if len(buf) >= checksumStart && string(buf[:4]) == magic {
		binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[checksumStart:]))
	}
	return buf
}

// subBytes returns the number of bytes needed for one packed sub-cell
// position: ceil(dim*shift/8), the d*(h-1) bits of Lemma 4.3 rounded up to
// whole bytes.
func subBytes(dim int, shift uint) int {
	return (dim*int(shift) + 7) / 8
}

// Encode serialises the dictionary. The result length is the broadcast
// payload size tracked by the engine.
func (d *Dictionary) Encode() []byte {
	var entries []CellEntry
	for _, sd := range d.Subs {
		entries = append(entries, sd.Entries...)
	}
	return EncodeEntries(entries, Params{Eps: d.Eps, Rho: d.Rho, Dim: d.Dim})
}

// EncodeEntries serialises raw cell entries without building the query
// structures of a full Dictionary — the driver-side broadcast path of
// Algorithm 2: workers build their own indexes when they Decode.
func EncodeEntries(entries []CellEntry, p Params) []byte {
	shift := p.shift()
	sb := subBytes(p.Dim, shift)
	size := checksumStart + 2 + 2 + 8 + 8 + 4
	for i := range entries {
		size += 4*p.Dim + 4 + 4 + len(entries[i].Subs)*(sb+4)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint64(buf, 0) // checksum, patched below
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.Dim))
	buf = binary.BigEndian.AppendUint16(buf, uint16(shift))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Eps))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Rho))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		buf = append(buf, string(e.Key)...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Count))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Subs)))
		for _, sc := range e.Subs {
			buf = appendPacked(buf, sc.Idx, sb)
			buf = binary.BigEndian.AppendUint32(buf, uint32(sc.Count))
		}
	}
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[checksumStart:]))
	return buf
}

// Stats summarises entries by the Lemma 4.3 accounting without building a
// Dictionary.
type Stats struct {
	NumCells    int
	NumSubCells int
	SizeBits    int64
}

// StatsOf computes dictionary statistics for a set of entries.
func StatsOf(entries []CellEntry, p Params) Stats {
	var s Stats
	for i := range entries {
		s.NumCells++
		s.NumSubCells += len(entries[i].Subs)
	}
	dd := int64(p.Dim)
	h1 := int64(p.shift())
	s.SizeBits = 32*int64(s.NumCells+s.NumSubCells) + 32*dd*int64(s.NumCells) + dd*h1*int64(s.NumSubCells)
	return s
}

// appendPacked writes the low n bytes of the 128-bit index, big-endian.
func appendPacked(buf []byte, idx grid.SubIdx, n int) []byte {
	var tmp [16]byte
	binary.BigEndian.PutUint64(tmp[:8], idx.Hi)
	binary.BigEndian.PutUint64(tmp[8:], idx.Lo)
	return append(buf, tmp[16-n:]...)
}

func unpack(b []byte) grid.SubIdx {
	var tmp [16]byte
	copy(tmp[16-len(b):], b)
	return grid.SubIdx{
		Hi: binary.BigEndian.Uint64(tmp[:8]),
		Lo: binary.BigEndian.Uint64(tmp[8:]),
	}
}

// Decode reconstructs a dictionary from its wire form, re-defragmenting
// with the given sub-dictionary bound (<= 0 keeps one sub-dictionary).
func Decode(buf []byte, maxCellsPerSub int) (*Dictionary, error) {
	entries, p, err := DecodeEntries(buf)
	if err != nil {
		return nil, err
	}
	return Build(entries, p, maxCellsPerSub), nil
}

// DecodeEntries parses the wire form back into raw cell entries plus the
// encoding parameters, without building a Dictionary's query structures —
// the inverse of EncodeEntries. The multi-process driver uses it to
// concatenate per-partition dictionary shards returned by remote workers
// before one global EncodeEntries broadcast, exactly as the in-process
// path concatenates the per-task entry slices. Besides the framing it
// checks the entry invariants the query paths rely on: every cell has at
// least one sub-cell, every sub-cell a positive count and an index within
// its dim*shift bits, and a cell's Count equals the sum of its sub-cell
// counts.
func DecodeEntries(buf []byte) ([]CellEntry, Params, error) {
	if len(buf) < checksumStart+2+2+8+8+4 || string(buf[:4]) != magic {
		return nil, Params{}, fmt.Errorf("dict: bad header")
	}
	if got := binary.BigEndian.Uint64(buf[4:]); got != frame.Sum64(buf[checksumStart:]) {
		return nil, Params{}, fmt.Errorf("dict: checksum mismatch")
	}
	off := checksumStart
	dim := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	shift := uint(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	eps := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	rho := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	numCells := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	// Validate geometry before using it for offsets: a packed sub-cell
	// position must fit the 128-bit SubIdx (Definition 4.1's d*(h-1)
	// bits), and eps/rho must be usable.
	if dim < 1 || dim > 128 || int(shift)*dim > 128 {
		return nil, Params{}, fmt.Errorf("dict: implausible geometry dim=%d shift=%d", dim, shift)
	}
	if !(eps > 0) || !(rho > 0) || math.IsInf(eps, 0) || math.IsInf(rho, 0) {
		return nil, Params{}, fmt.Errorf("dict: implausible parameters eps=%g rho=%g", eps, rho)
	}
	sb := subBytes(dim, shift)
	// A packed position uses the low dim*shift bits; anything above them
	// would reorder the sub-cells without moving a centre.
	bitsUsed := dim * int(shift)
	hiMask, loMask := ^uint64(0), ^uint64(0)
	if bitsUsed < 64 {
		hiMask, loMask = 0, uint64(1)<<bitsUsed-1
	} else if bitsUsed < 128 {
		hiMask = uint64(1)<<(bitsUsed-64) - 1
	}
	// Bound allocations by the actual payload size, not the header's
	// claimed cell count, so corrupt input cannot balloon memory.
	remaining := len(buf) - off
	perSub := sb + 4
	capHint := numCells
	if maxCells := remaining / (4*dim + 8); capHint > maxCells {
		capHint = maxCells
	}
	entries := make([]CellEntry, 0, capHint)
	// All sub-cells share one arena to avoid a slice allocation per cell.
	arena := make([]SubCell, 0, remaining/perSub)
	for c := 0; c < numCells; c++ {
		need := 4*dim + 8
		if off+need > len(buf) {
			return nil, Params{}, fmt.Errorf("dict: truncated cell %d", c)
		}
		key := grid.Key(buf[off : off+4*dim])
		off += 4 * dim
		count := int32(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		nsubs := int(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if nsubs == 0 {
			return nil, Params{}, fmt.Errorf("dict: cell %d has no sub-cells", c)
		}
		start := len(arena)
		var sum int64
		for s := 0; s < nsubs; s++ {
			if off+sb+4 > len(buf) {
				return nil, Params{}, fmt.Errorf("dict: truncated sub-cell in cell %d", c)
			}
			idx := unpack(buf[off : off+sb])
			off += sb
			if idx.Hi&^hiMask != 0 || idx.Lo&^loMask != 0 {
				return nil, Params{}, fmt.Errorf("dict: cell %d sub-cell %d index exceeds %d bits", c, s, bitsUsed)
			}
			sc := int32(binary.BigEndian.Uint32(buf[off:]))
			off += 4
			if sc <= 0 {
				return nil, Params{}, fmt.Errorf("dict: cell %d sub-cell %d has count %d", c, s, sc)
			}
			sum += int64(sc)
			arena = append(arena, SubCell{Idx: idx, Count: sc})
		}
		// Count is the sum of the sub-cell counts: Phase II reads a
		// candidate cell's total from it instead of re-summing.
		if int64(count) != sum {
			return nil, Params{}, fmt.Errorf("dict: cell %d count %d != sub-cell sum %d", c, count, sum)
		}
		entries = append(entries, CellEntry{
			Key: key, Count: count,
			Subs: arena[start:len(arena):len(arena)],
		})
	}
	if off != len(buf) {
		return nil, Params{}, fmt.Errorf("dict: %d trailing bytes", len(buf)-off)
	}
	p := Params{Eps: eps, Rho: rho, Dim: dim}
	if p.shift() != shift {
		// The shift is derived from rho; a mismatch means corruption.
		return nil, Params{}, fmt.Errorf("dict: shift %d inconsistent with rho %g", shift, rho)
	}
	return entries, p, nil
}
