// Package spill implements the checksummed temp files the out-of-core
// pipeline (core.RunStream) shuffles through: the stand-in for a
// distributed cluster's disk-backed shuffle. Each of the k partitions owns
// one spill file; every streamed input chunk appends one "run" per
// partition it touches, holding the chunk's cells dealt to that partition
// (cell key, global point ids, raw coordinates).
//
// The wire conventions follow the RPD2 dictionary format: a magic tag, an
// FNV-1a checksum verified before any parsing, and bounded allocation on
// load so a corrupt length field cannot balloon memory. The checksum spans
// the body-length field and the body; within the checksummed span FNV-1a's
// per-byte mixing is a bijection of the accumulator, so any single-byte
// substitution inside one run record is guaranteed to be detected.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"rpdbscan/internal/frame"
	"rpdbscan/internal/grid"
)

const (
	runMagic = "RPS1"
	// trailerMagic closes a spill file: without it, a file truncated at a
	// record boundary would load cleanly minus its tail runs.
	trailerMagic = "RPSE"
	// headerSize is magic(4) + checksum(8) + bodyLen(4).
	headerSize = 4 + 8 + 4
	// maxBodyLen bounds one run record. A run holds at most one chunk of
	// points plus per-cell framing; 1 GiB is far beyond any sane chunk and
	// exists only to reject absurd length fields before reading.
	maxBodyLen = 1 << 30
)

// RunCell is one cell's share of one streamed chunk: the points of the
// chunk that fall in the cell, as global ids plus raw coordinates.
type RunCell struct {
	Key    grid.Key
	IDs    []int64   // ascending global point indices
	Coords []float64 // len(IDs)*dim, point-major
}

// Run is one decoded spill record: the cells one chunk dealt to one
// partition.
type Run struct {
	Chunk int
	Dim   int
	Cells []RunCell
}

// EncodeRun serialises one run record, framing included.
func EncodeRun(chunk, dim int, cells []RunCell) []byte {
	bodyLen := 4 + 2 + 4 // chunk + dim + numCells
	for _, c := range cells {
		bodyLen += len(c.Key) + 4 + len(c.IDs)*8 + len(c.Coords)*8
	}
	buf := make([]byte, headerSize+bodyLen)
	copy(buf, runMagic)
	binary.BigEndian.PutUint32(buf[12:], uint32(bodyLen))
	off := headerSize
	binary.BigEndian.PutUint32(buf[off:], uint32(chunk))
	off += 4
	binary.BigEndian.PutUint16(buf[off:], uint16(dim))
	off += 2
	binary.BigEndian.PutUint32(buf[off:], uint32(len(cells)))
	off += 4
	for _, c := range cells {
		off += copy(buf[off:], c.Key)
		binary.BigEndian.PutUint32(buf[off:], uint32(len(c.IDs)))
		off += 4
		for _, id := range c.IDs {
			binary.BigEndian.PutUint64(buf[off:], uint64(id))
			off += 8
		}
		for _, v := range c.Coords {
			binary.BigEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[12:]))
	return buf
}

// trailer is the decoded end-of-file record: the run count and payload
// byte total the file promises.
type trailer struct {
	numRuns      int
	payloadBytes int64
}

// EncodeTrailer serialises the end-of-file record.
func EncodeTrailer(numRuns int, payloadBytes int64) []byte {
	const bodyLen = 4 + 8
	buf := make([]byte, headerSize+bodyLen)
	copy(buf, trailerMagic)
	binary.BigEndian.PutUint32(buf[12:], bodyLen)
	binary.BigEndian.PutUint32(buf[16:], uint32(numRuns))
	binary.BigEndian.PutUint64(buf[20:], uint64(payloadBytes))
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[12:]))
	return buf
}

// readRun reads and verifies the next record from br: a run, or the file
// trailer (returned with a nil Run), or io.EOF at the clean end of the
// stream. The body is read in bounded steps so a corrupt length field
// cannot force a giant allocation before the checksum gate.
func readRun(br *bufio.Reader) (*Run, *trailer, error) {
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("spill: truncated run header: %w", err)
	}
	isTrailer := string(head[:4]) == trailerMagic
	if !isTrailer && string(head[:4]) != runMagic {
		return nil, nil, fmt.Errorf("spill: bad magic %q", head[:4])
	}
	want := binary.BigEndian.Uint64(head[4:12])
	bodyLen := int(binary.BigEndian.Uint32(head[12:16]))
	if bodyLen < 10 || bodyLen > maxBodyLen {
		return nil, nil, fmt.Errorf("spill: implausible body length %d", bodyLen)
	}
	body := make([]byte, 0, min(bodyLen, 1<<16))
	step := make([]byte, 1<<16)
	for len(body) < bodyLen {
		n := bodyLen - len(body)
		if n > len(step) {
			n = len(step)
		}
		if _, err := io.ReadFull(br, step[:n]); err != nil {
			return nil, nil, fmt.Errorf("spill: truncated run body: %w", err)
		}
		body = append(body, step[:n]...)
	}
	if frame.Add(frame.Sum64(head[12:16]), body) != want {
		return nil, nil, fmt.Errorf("spill: run checksum mismatch")
	}
	if isTrailer {
		if len(body) != 12 {
			return nil, nil, fmt.Errorf("spill: trailer body is %d bytes, want 12", len(body))
		}
		return nil, &trailer{
			numRuns:      int(binary.BigEndian.Uint32(body[:4])),
			payloadBytes: int64(binary.BigEndian.Uint64(body[4:12])),
		}, nil
	}
	r, err := parseBody(body)
	return r, nil, err
}

// parseBody decodes a checksum-verified body. Per-cell allocations are
// still bounded by the remaining bytes: the checksum gate catches
// corruption, this catches encoder bugs.
func parseBody(body []byte) (*Run, error) {
	off := 0
	need := func(n int) error {
		if len(body)-off < n {
			return fmt.Errorf("spill: run body truncated at offset %d", off)
		}
		return nil
	}
	if err := need(10); err != nil {
		return nil, err
	}
	r := &Run{Chunk: int(binary.BigEndian.Uint32(body[off:]))}
	off += 4
	r.Dim = int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if r.Dim < 1 {
		return nil, fmt.Errorf("spill: implausible dimension %d", r.Dim)
	}
	numCells := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	keyLen := 4 * r.Dim
	// Every cell needs at least a key and a count.
	if minTotal := numCells * (keyLen + 4); minTotal > len(body)-off {
		return nil, fmt.Errorf("spill: %d cells cannot fit in %d remaining bytes", numCells, len(body)-off)
	}
	r.Cells = make([]RunCell, 0, numCells)
	for ci := 0; ci < numCells; ci++ {
		if err := need(keyLen + 4); err != nil {
			return nil, err
		}
		key := grid.Key(body[off : off+keyLen])
		off += keyLen
		npts := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		recLen := npts * 8 * (1 + r.Dim)
		if npts < 0 || recLen < 0 {
			return nil, fmt.Errorf("spill: implausible point count %d", npts)
		}
		if err := need(recLen); err != nil {
			return nil, err
		}
		c := RunCell{Key: key, IDs: make([]int64, npts), Coords: make([]float64, npts*r.Dim)}
		for i := range c.IDs {
			c.IDs[i] = int64(binary.BigEndian.Uint64(body[off:]))
			off += 8
		}
		for i := range c.Coords {
			c.Coords[i] = math.Float64frombits(binary.BigEndian.Uint64(body[off:]))
			off += 8
		}
		r.Cells = append(r.Cells, c)
	}
	if off != len(body) {
		return nil, fmt.Errorf("spill: %d trailing bytes after %d cells", len(body)-off, numCells)
	}
	return r, nil
}

// DecodeRun decodes one framed run record from the front of buf and
// returns it with the number of bytes consumed. It is the in-memory
// counterpart of readRun, used by the multi-process transport where RPS1
// frames travel over sockets instead of spill files; verification is
// identical (magic, checksum gate before parsing, bounded lengths).
func DecodeRun(buf []byte) (*Run, int, error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("spill: truncated run header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != runMagic {
		return nil, 0, fmt.Errorf("spill: bad magic %q", buf[:4])
	}
	want := binary.BigEndian.Uint64(buf[4:12])
	bodyLen := int(binary.BigEndian.Uint32(buf[12:16]))
	if bodyLen < 10 || bodyLen > maxBodyLen {
		return nil, 0, fmt.Errorf("spill: implausible body length %d", bodyLen)
	}
	if len(buf) < headerSize+bodyLen {
		return nil, 0, fmt.Errorf("spill: truncated run body (%d of %d bytes)",
			len(buf)-headerSize, bodyLen)
	}
	if frame.Sum64(buf[12:headerSize+bodyLen]) != want {
		return nil, 0, fmt.Errorf("spill: run checksum mismatch")
	}
	r, err := parseBody(buf[headerSize : headerSize+bodyLen])
	if err != nil {
		return nil, 0, err
	}
	return r, headerSize + bodyLen, nil
}

// FrameSize returns the total byte length of the framed run record at the
// front of buf (header included) without verifying or parsing it — the
// cheap split used to carve a concatenation of frames into columns.
func FrameSize(buf []byte) (int, error) {
	if len(buf) < headerSize {
		return 0, fmt.Errorf("spill: truncated run header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != runMagic {
		return 0, fmt.Errorf("spill: bad magic %q", buf[:4])
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[12:16]))
	if bodyLen < 10 || bodyLen > maxBodyLen {
		return 0, fmt.Errorf("spill: implausible body length %d", bodyLen)
	}
	if len(buf) < headerSize+bodyLen {
		return 0, fmt.Errorf("spill: truncated run body (%d of %d bytes)",
			len(buf)-headerSize, bodyLen)
	}
	return headerSize + bodyLen, nil
}

// DecodeRuns decodes a concatenation of framed run records, in order.
// Trailing garbage (including a truncated final frame) is an error.
func DecodeRuns(buf []byte) ([]*Run, error) {
	var runs []*Run
	for len(buf) > 0 {
		r, n, err := DecodeRun(buf)
		if err != nil {
			return nil, fmt.Errorf("spill: frame %d: %w", len(runs), err)
		}
		runs = append(runs, r)
		buf = buf[n:]
	}
	return runs, nil
}

// Writer appends run records to one partition's spill file. It is safe for
// concurrent use by the streaming stage's tasks, and appends are
// idempotent per chunk: the engine re-executes and speculatively
// re-runs task bodies, so a chunk that already reached the file is
// silently skipped on re-append.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	written map[int]bool // chunks fully appended
	bytes   int64
	err     error // sticky: a failed write poisons the file
}

// NewWriter creates (truncating) the spill file at path.
func NewWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), written: make(map[int]bool)}, nil
}

// AppendRun encodes and appends one run record, deduplicating by chunk
// index. It returns the bytes appended (0 for a deduplicated re-append).
func (w *Writer) AppendRun(chunk, dim int, cells []RunCell) (int64, error) {
	buf := EncodeRun(chunk, dim, cells)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.written[chunk] {
		return 0, nil
	}
	if _, err := w.bw.Write(buf); err != nil {
		// A partial append leaves the file unframed; poison it so every
		// later append and the final Close fail loudly rather than ship a
		// corrupt shuffle.
		w.err = fmt.Errorf("spill: append chunk %d: %w", chunk, err)
		return 0, w.err
	}
	w.written[chunk] = true
	w.bytes += int64(len(buf))
	return int64(len(buf)), nil
}

// Bytes returns the total bytes appended so far.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Close appends the trailer, flushes, and closes the file, keeping it on
// disk for readers. Without the trailer a reader cannot tell a complete
// file from one truncated at a record boundary.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if _, err := w.bw.Write(EncodeTrailer(len(w.written), w.bytes)); err != nil {
		w.f.Close()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ScanRuns streams the verified run records of a spill file to fn in file
// order, one at a time — the bounded-memory read path (only one run is
// resident). fn errors abort the scan. The file must end with a trailer
// whose run count and payload byte total match what was read.
func ScanRuns(path string, fn func(*Run) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	seen := 0
	var payload int64
	for {
		r, tr, err := readRun(br)
		if err == io.EOF {
			return fmt.Errorf("spill: %s: truncated: no trailer after %d runs", path, seen)
		}
		if err != nil {
			return fmt.Errorf("spill: %s: %w", path, err)
		}
		if tr != nil {
			if tr.numRuns != seen || tr.payloadBytes != payload {
				return fmt.Errorf("spill: %s: trailer promises %d runs / %d bytes, read %d / %d",
					path, tr.numRuns, tr.payloadBytes, seen, payload)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return fmt.Errorf("spill: %s: data after trailer", path)
			}
			return nil
		}
		seen++
		payload += int64(headerSize + 10)
		for _, c := range r.Cells {
			payload += int64(len(c.Key) + 4 + len(c.IDs)*8 + len(c.Coords)*8)
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}

// LoadFile reads every run of a spill file and returns them sorted by
// chunk index: concurrent chunk tasks append in nondeterministic order,
// and the sort restores the deterministic global point order the
// differential battery asserts.
func LoadFile(path string) ([]*Run, error) {
	var runs []*Run
	if err := ScanRuns(path, func(r *Run) error {
		runs = append(runs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Chunk < runs[j].Chunk })
	return runs, nil
}
