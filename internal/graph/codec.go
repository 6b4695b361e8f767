package graph

import (
	"encoding/binary"
	"fmt"

	"rpdbscan/internal/frame"
)

// Wire format for a cell subgraph ("RPG1"), used when Phase II runs on the
// multi-process transport and each worker ships its partition's subgraph
// back to the driver. The conventions follow RPD2/RPS1: a magic tag, a
// whole-payload FNV-1a checksum verified before any parsing (spanning the
// body-length field and the body, so any single-byte substitution is
// detected), and bounded allocation on load. The encoding is canonical —
// sets are compacted, so edges appear sorted and deduplicated — which
// makes encode(decode(x)) byte-identical and lets differential tests
// compare subgraphs as bytes.
const (
	graphMagic = "RPG1"
	// graphHeaderSize is magic(4) + checksum(8) + bodyLen(4).
	graphHeaderSize = 4 + 8 + 4
	// maxGraphBody bounds one encoded subgraph; same defensive ceiling as
	// the spill format.
	maxGraphBody = 1 << 30
)

// Encode serialises the graph canonically. The graph is compacted as a
// side effect (pending edge appends are folded in).
func (g *Graph) Encode() []byte {
	g.full.compact()
	g.partial.compact()
	g.undet.compact()
	bodyLen := 4 + len(g.Type) + 3*4 +
		8*(len(g.full.sorted)+len(g.partial.sorted)+len(g.undet.sorted))
	buf := make([]byte, graphHeaderSize+bodyLen)
	copy(buf, graphMagic)
	binary.BigEndian.PutUint32(buf[12:], uint32(bodyLen))
	off := graphHeaderSize
	binary.BigEndian.PutUint32(buf[off:], uint32(len(g.Type)))
	off += 4
	for _, t := range g.Type {
		buf[off] = byte(t)
		off++
	}
	for _, set := range []*edgeSet{&g.full, &g.partial, &g.undet} {
		binary.BigEndian.PutUint32(buf[off:], uint32(len(set.sorted)))
		off += 4
		for _, e := range set.sorted {
			binary.BigEndian.PutUint32(buf[off:], uint32(e.From))
			binary.BigEndian.PutUint32(buf[off+4:], uint32(e.To))
			off += 8
		}
	}
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[12:]))
	return buf
}

// Decode parses an encoded subgraph, verifying the checksum before any
// allocation driven by length fields.
func Decode(buf []byte) (*Graph, error) {
	if len(buf) < graphHeaderSize {
		return nil, fmt.Errorf("graph: truncated header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != graphMagic {
		return nil, fmt.Errorf("graph: bad magic %q", buf[:4])
	}
	want := binary.BigEndian.Uint64(buf[4:12])
	bodyLen := int(binary.BigEndian.Uint32(buf[12:16]))
	if bodyLen < 4+3*4 || bodyLen > maxGraphBody {
		return nil, fmt.Errorf("graph: implausible body length %d", bodyLen)
	}
	if len(buf) != graphHeaderSize+bodyLen {
		return nil, fmt.Errorf("graph: body is %d bytes, header promises %d",
			len(buf)-graphHeaderSize, bodyLen)
	}
	if frame.Sum64(buf[12:]) != want {
		return nil, fmt.Errorf("graph: checksum mismatch")
	}
	body := buf[graphHeaderSize:]
	off := 0
	numCells := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	if numCells < 0 || numCells > len(body)-off {
		return nil, fmt.Errorf("graph: %d cells cannot fit in %d remaining bytes",
			numCells, len(body)-off)
	}
	g := New(numCells)
	for i := range g.Type {
		t := VertexType(body[off])
		off++
		if t > NonCore {
			return nil, fmt.Errorf("graph: cell %d has invalid type %d", i, t)
		}
		g.Type[i] = t
	}
	for si, set := range []*edgeSet{&g.full, &g.partial, &g.undet} {
		if len(body)-off < 4 {
			return nil, fmt.Errorf("graph: truncated edge-set %d header", si)
		}
		n := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if n < 0 || n*8 > len(body)-off {
			return nil, fmt.Errorf("graph: %d edges cannot fit in %d remaining bytes",
				n, len(body)-off)
		}
		set.sorted = make([]EdgeKey, n)
		for i := range set.sorted {
			from := int32(binary.BigEndian.Uint32(body[off:]))
			to := int32(binary.BigEndian.Uint32(body[off+4:]))
			off += 8
			if from < 0 || int(from) >= numCells || to < 0 || int(to) >= numCells {
				return nil, fmt.Errorf("graph: edge-set %d edge %d (%d->%d) out of range [0,%d)",
					si, i, from, to, numCells)
			}
			set.sorted[i] = EdgeKey{from, to}
			if i > 0 && !edgeLess(set.sorted[i-1], set.sorted[i]) {
				return nil, fmt.Errorf("graph: edge-set %d not strictly sorted at %d", si, i)
			}
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("graph: %d trailing bytes", len(body)-off)
	}
	return g, nil
}
