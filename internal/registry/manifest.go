package registry

import (
	"encoding/binary"
	"fmt"

	"rpdbscan/internal/frame"
)

// Manifest wire format, following the RPD2/RPM1/RPS1 conventions: a magic
// tag, FNV-1a integrity sums verified before any parsing, fixed-width
// big-endian fields, and bounded allocation on load.
//
// The manifest file is the registry's append-only ledger:
//
//	magic "RPL1" | frame | frame | ...
//
// Each frame holds one fit record plus the hash chain that makes the
// ledger tamper-evident:
//
//	bodyLen uint32 | chain uint64 | body
//
// where chain_i = FNV-1a( BE8(chain_{i-1}) ‖ BE4(bodyLen_i) ‖ body_i ) and
// chain_0's predecessor value is FNV-1a("RPL1"). Because FNV-1a's per-byte
// XOR-then-multiply step is a bijection of the running accumulator, any
// single-byte change to any record body, any length field, or any stored
// chain value — and any reordering of frames, since each chain value binds
// its predecessor — breaks verification at that frame or the next.
//
// Truncation cannot be caught by a forward chain alone, so the sealed tip
// lives in a separate HEAD file (written temp → fsync → rename, so it is
// never torn):
//
//	magic "RPLH" | sum uint64 | count uint64 | tip uint64
//
// with sum = FNV-1a(count ‖ tip). A manifest shorter than HEAD's count, or
// whose chain value at count differs from tip, is rejected at Open. Frames
// beyond HEAD are the crash window: a batch fsynced to the manifest before
// the process died mid-HEAD-update is adopted on reopen, and a torn
// trailing frame is discarded — never anything at or before HEAD.
const (
	manifestMagic = "RPL1"
	headMagic     = "RPLH"

	// frameHeaderLen is bodyLen(4) + chain(8).
	frameHeaderLen = 4 + 8
	// recordFixedLen is the body size before the variable-length tag:
	// version, modelHash, parent, watermark, configSum, points, clusters,
	// bytes, fitNs (8 bytes each) + tagLen (2).
	recordFixedLen = 9*8 + 2
	// maxTagLen bounds the only variable-length record field.
	maxTagLen = 256
	// headLen is the fixed HEAD file size.
	headLen = 4 + 8 + 8 + 8
)

// chainSeed is the chain value "before the first record": a constant
// derived from the magic so an empty ledger still has a well-defined tip.
func chainSeed() uint64 { return frame.Sum64([]byte(manifestMagic)) }

// chainNext folds one frame into the chain: the predecessor's chain value,
// then the frame's length field, then its body.
func chainNext(prev uint64, bodyLen uint32, body []byte) uint64 {
	var pre [12]byte
	binary.BigEndian.PutUint64(pre[0:], prev)
	binary.BigEndian.PutUint32(pre[8:], bodyLen)
	return frame.Add(frame.Sum64(pre[:]), body)
}

// Record is one manifest entry: the provenance of one published model
// generation. Every field is part of the tamper-evident chain.
type Record struct {
	// Version is the generation number the fit swapped in as (watermark /
	// cadence for online refits). The ledger may hold the same version more
	// than once — a rollback followed by re-ingestion honestly re-publishes
	// it — and index lookups resolve to the latest entry.
	Version int64
	// ModelHash is the RPM1 content checksum of the artifact, which is also
	// its blob address (blobs/<hash>.rpm1).
	ModelHash uint64
	// Parent is the ModelHash of the generation serving when this one
	// swapped in; 0 for a root (nothing served before it, or a boot model
	// that never passed through this registry).
	Parent uint64
	// Watermark is the exact ingested-point count the model was fitted on
	// (0 when unknown, e.g. artifacts imported from a pre-registry layout).
	Watermark int64
	// ConfigSum fingerprints the fit configuration (FNV-1a over the
	// canonical encoding of eps, minPts, rho, partitions, seed, chunk size,
	// and backend), so "same data, same config" is checkable from the
	// ledger alone.
	ConfigSum uint64
	// Points, Clusters, and Bytes are the artifact's stage stats: training
	// points, fitted clusters, and encoded size.
	Points   int64
	Clusters int64
	Bytes    int64
	// FitNs is the fit wall time in nanoseconds (0 when unknown).
	FitNs int64
	// Tag is an optional operator label ("" for none); lookups by tag
	// resolve to the latest record carrying it.
	Tag string
}

// encodeBody serialises the record body canonically (fixed-width BE fields,
// length-prefixed tag). The encoding round-trips byte-identically.
// It enforces the same invariants decodeBody checks: a record that cannot
// be read back must never be writable, or a single bad Publish would seal
// an undecodable frame into the manifest and brick the next Open.
func (rec Record) encodeBody() ([]byte, error) {
	if len(rec.Tag) > maxTagLen {
		return nil, fmt.Errorf("registry: tag of %d bytes exceeds limit %d", len(rec.Tag), maxTagLen)
	}
	if rec.Version < 0 || rec.Watermark < 0 || rec.Points < 0 ||
		rec.Clusters < 0 || rec.Bytes < 0 || rec.FitNs < 0 {
		return nil, fmt.Errorf("registry: negative field in record version %d", rec.Version)
	}
	buf := make([]byte, 0, recordFixedLen+len(rec.Tag))
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Version))
	buf = binary.BigEndian.AppendUint64(buf, rec.ModelHash)
	buf = binary.BigEndian.AppendUint64(buf, rec.Parent)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Watermark))
	buf = binary.BigEndian.AppendUint64(buf, rec.ConfigSum)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Points))
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Clusters))
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Bytes))
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.FitNs))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rec.Tag)))
	buf = append(buf, rec.Tag...)
	return buf, nil
}

// decodeBody parses one record body, enforcing the exact canonical size.
func decodeBody(body []byte) (Record, error) {
	if len(body) < recordFixedLen {
		return Record{}, fmt.Errorf("registry: record body of %d bytes, want >= %d", len(body), recordFixedLen)
	}
	var rec Record
	rec.Version = int64(binary.BigEndian.Uint64(body[0:]))
	rec.ModelHash = binary.BigEndian.Uint64(body[8:])
	rec.Parent = binary.BigEndian.Uint64(body[16:])
	rec.Watermark = int64(binary.BigEndian.Uint64(body[24:]))
	rec.ConfigSum = binary.BigEndian.Uint64(body[32:])
	rec.Points = int64(binary.BigEndian.Uint64(body[40:]))
	rec.Clusters = int64(binary.BigEndian.Uint64(body[48:]))
	rec.Bytes = int64(binary.BigEndian.Uint64(body[56:]))
	rec.FitNs = int64(binary.BigEndian.Uint64(body[64:]))
	tagLen := int(binary.BigEndian.Uint16(body[72:]))
	if tagLen > maxTagLen {
		return Record{}, fmt.Errorf("registry: tag length %d exceeds limit %d", tagLen, maxTagLen)
	}
	if len(body) != recordFixedLen+tagLen {
		return Record{}, fmt.Errorf("registry: record body of %d bytes, want %d for tag length %d",
			len(body), recordFixedLen+tagLen, tagLen)
	}
	rec.Tag = string(body[recordFixedLen:])
	if rec.Version < 0 || rec.Watermark < 0 || rec.Points < 0 ||
		rec.Clusters < 0 || rec.Bytes < 0 || rec.FitNs < 0 {
		return Record{}, fmt.Errorf("registry: negative field in record version %d", rec.Version)
	}
	return rec, nil
}

// encodeFrame serialises one chained frame and returns it with the new
// chain tip.
func encodeFrame(prevChain uint64, rec Record) (frame []byte, chain uint64, err error) {
	body, err := rec.encodeBody()
	if err != nil {
		return nil, 0, err
	}
	chain = chainNext(prevChain, uint32(len(body)), body)
	frame = make([]byte, 0, frameHeaderLen+len(body))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
	frame = binary.BigEndian.AppendUint64(frame, chain)
	frame = append(frame, body...)
	return frame, chain, nil
}

// manifestScan is the result of walking a manifest image: the complete,
// chain-verified prefix plus what (if anything) stopped the walk.
type manifestScan struct {
	recs []Record
	// chains[i] is the chain tip after record i; the tip of an empty
	// manifest is chainSeed().
	chains []uint64
	// end is the byte offset just past the last complete verified frame.
	end int64
	// damaged reports trailing bytes past end that failed to parse; derr
	// says why (nil when the image ends exactly at a frame boundary).
	damaged bool
	derr    error
}

// tip returns the chain value after the last verified record.
func (s *manifestScan) tip() uint64 {
	if len(s.chains) == 0 {
		return chainSeed()
	}
	return s.chains[len(s.chains)-1]
}

// tipAt returns the chain value after the first count records.
func (s *manifestScan) tipAt(count int) uint64 {
	if count == 0 {
		return chainSeed()
	}
	return s.chains[count-1]
}

// scanManifest walks a manifest image (magic already verified by the
// caller), verifying every frame's chain value, and stops at the first
// torn or tampered frame. Allocation is bounded by the actual image size:
// a frame is only decoded once its full extent is in range.
func scanManifest(buf []byte) manifestScan {
	s := manifestScan{end: int64(len(manifestMagic))}
	chain := chainSeed()
	off := len(manifestMagic)
	for off < len(buf) {
		if len(buf)-off < frameHeaderLen {
			s.damaged, s.derr = true, fmt.Errorf("registry: torn frame header at offset %d", off)
			return s
		}
		bodyLen := int(binary.BigEndian.Uint32(buf[off:]))
		stored := binary.BigEndian.Uint64(buf[off+4:])
		if bodyLen < recordFixedLen || bodyLen > recordFixedLen+maxTagLen {
			s.damaged, s.derr = true, fmt.Errorf("registry: implausible frame body length %d at offset %d", bodyLen, off)
			return s
		}
		if len(buf)-off-frameHeaderLen < bodyLen {
			s.damaged, s.derr = true, fmt.Errorf("registry: torn frame body at offset %d", off)
			return s
		}
		body := buf[off+frameHeaderLen : off+frameHeaderLen+bodyLen]
		want := chainNext(chain, uint32(bodyLen), body)
		if stored != want {
			s.damaged, s.derr = true, fmt.Errorf("registry: chain mismatch at record %d (offset %d)", len(s.recs), off)
			return s
		}
		rec, err := decodeBody(body)
		if err != nil {
			s.damaged, s.derr = true, fmt.Errorf("registry: record %d (offset %d): %w", len(s.recs), off, err)
			return s
		}
		chain = want
		s.recs = append(s.recs, rec)
		s.chains = append(s.chains, chain)
		off += frameHeaderLen + bodyLen
		s.end = int64(off)
	}
	return s
}

// encodeHead serialises the HEAD file: the sealed record count and chain
// tip under their own checksum.
func encodeHead(count int64, tip uint64) []byte {
	buf := make([]byte, headLen)
	copy(buf, headMagic)
	binary.BigEndian.PutUint64(buf[12:], uint64(count))
	binary.BigEndian.PutUint64(buf[20:], tip)
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[12:]))
	return buf
}

// decodeHead parses and verifies a HEAD image.
func decodeHead(buf []byte) (count int64, tip uint64, err error) {
	if len(buf) != headLen || string(buf[:4]) != headMagic {
		return 0, 0, fmt.Errorf("registry: bad HEAD file (%d bytes)", len(buf))
	}
	if got := binary.BigEndian.Uint64(buf[4:]); got != frame.Sum64(buf[12:]) {
		return 0, 0, fmt.Errorf("registry: HEAD checksum mismatch")
	}
	count = int64(binary.BigEndian.Uint64(buf[12:]))
	tip = binary.BigEndian.Uint64(buf[20:])
	if count < 0 {
		return 0, 0, fmt.Errorf("registry: negative HEAD count")
	}
	return count, tip, nil
}
