package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rpdbscan/internal/frame"
)

// Binary model-artifact format, following the RPD2 wire conventions of
// internal/dict: a 4-byte magic that doubles as the format version, then a
// whole-payload FNV-1a checksum, then fixed-width big-endian fields.
// Header:
//
//	magic "RPM1" | checksum uint64 | dim uint16 | minPts uint32
//	numClusters uint32 | numPoints uint32 | eps float64 | rho float64
//
// Body: labels (numPoints x int32), core flags (bitset of
// ceil(numPoints/8) bytes), coordinates (numPoints x dim x float64).
//
// The checksum covers everything after the checksum field itself; Decode
// verifies it before parsing, so any single-byte corruption of a saved
// artifact is rejected at the load boundary (FNV-1a's per-byte XOR-then-
// multiply steps are bijective in the running hash, so a lone byte change
// always lands on a different sum). The encoding is canonical — a decoded
// model re-encodes to the identical bytes — which is what the
// save → load → save round-trip test pins.
const modelMagic = "RPM1"

// checksumStart is the offset where checksummed content begins (after the
// magic and the checksum field).
const checksumStart = 4 + 8

// modelHeaderLen is the full fixed header size.
const modelHeaderLen = checksumStart + 2 + 4 + 4 + 4 + 8 + 8

// Reseal recomputes and patches the artifact checksum in place, returning
// buf. Like dict.Reseal it exists so fuzzers can mutate encoded bytes and
// still reach the parser behind the checksum gate; production encoders
// never need it.
func Reseal(buf []byte) []byte {
	if len(buf) >= checksumStart && string(buf[:4]) == modelMagic {
		binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[checksumStart:]))
	}
	return buf
}

// Encode serialises the model into its canonical artifact bytes.
func (m *Model) Encode() []byte {
	n := len(m.labels)
	size := modelHeaderLen + 4*n + (n+7)/8 + 8*len(m.coords)
	buf := make([]byte, 0, size)
	buf = append(buf, modelMagic...)
	buf = binary.BigEndian.AppendUint64(buf, 0) // checksum, patched below
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.dim))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.minPts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.numClusters))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.eps))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.rho))
	for _, l := range m.labels {
		buf = binary.BigEndian.AppendUint32(buf, uint32(l))
	}
	bits := make([]byte, (n+7)/8)
	for i, c := range m.core {
		if c {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, bits...)
	for _, v := range m.coords {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[checksumStart:]))
	return buf
}

// Save writes the artifact to w.
func (m *Model) Save(w io.Writer) error {
	_, err := w.Write(m.Encode())
	return err
}

// Decode reconstructs a model from its artifact bytes, verifying the
// checksum and every structural invariant before building the core-point
// index. Allocation is bounded by the actual payload size — the header's
// claimed point count is validated against len(buf) before anything is
// allocated, so corrupt input cannot balloon memory.
func Decode(buf []byte) (*Model, error) {
	if len(buf) < modelHeaderLen || string(buf[:4]) != modelMagic {
		return nil, fmt.Errorf("serve: bad model header")
	}
	if got := binary.BigEndian.Uint64(buf[4:]); got != frame.Sum64(buf[checksumStart:]) {
		return nil, fmt.Errorf("serve: model checksum mismatch")
	}
	off := checksumStart
	dim := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	minPts := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	numClusters := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	n := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	eps := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	rho := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	if dim < 1 || dim > 1024 {
		return nil, fmt.Errorf("serve: implausible model dimension %d", dim)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("serve: implausible minPts %d", minPts)
	}
	if !(eps > 0) || !(rho > 0) || math.IsInf(eps, 0) || math.IsInf(rho, 0) {
		return nil, fmt.Errorf("serve: implausible parameters eps=%g rho=%g", eps, rho)
	}
	if numClusters > n {
		return nil, fmt.Errorf("serve: %d clusters for %d points", numClusters, n)
	}
	// The body size is an exact function of (n, dim); require it before
	// allocating n-sized slices.
	need := 4*n + (n+7)/8 + 8*n*dim
	if len(buf)-off != need {
		return nil, fmt.Errorf("serve: model body is %d bytes, want %d for %d points of dim %d",
			len(buf)-off, need, n, dim)
	}
	m := &Model{
		dim:         dim,
		coords:      make([]float64, n*dim),
		labels:      make([]int32, n),
		core:        make([]bool, n),
		eps:         eps,
		rho:         rho,
		minPts:      minPts,
		numClusters: numClusters,
	}
	for i := 0; i < n; i++ {
		m.labels[i] = int32(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if m.labels[i] < Noise || int(m.labels[i]) >= numClusters {
			return nil, fmt.Errorf("serve: label %d of point %d outside [-1, %d)", m.labels[i], i, numClusters)
		}
	}
	bits := buf[off : off+(n+7)/8]
	off += (n + 7) / 8
	for i := 0; i < n; i++ {
		m.core[i] = bits[i/8]&(1<<(i%8)) != 0
		if m.core[i] && m.labels[i] == Noise {
			return nil, fmt.Errorf("serve: core point %d labeled noise", i)
		}
	}
	// Trailing bits of the final bitset byte must be zero — otherwise two
	// distinct byte streams would decode to the same model and break the
	// canonical round-trip.
	if n%8 != 0 && bits[len(bits)-1]>>(n%8) != 0 {
		return nil, fmt.Errorf("serve: nonzero padding in core bitset")
	}
	for i := range m.coords {
		v := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("serve: non-finite coordinate at index %d", i)
		}
		m.coords[i] = v
	}
	m.finish(buf)
	return m, nil
}

// Load reads a whole artifact from r and decodes it.
func Load(r io.Reader) (*Model, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("serve: read model: %w", err)
	}
	return Decode(buf)
}
