// Package frame holds what the module's checksummed wire and file formats
// share: the 64-bit FNV-1a checksum that seals RPD2 dictionaries, RPM1
// model artifacts, RPS1 spill runs, RPL1 manifest records, RPG1 cell
// subgraphs, engine payload chunks and transport bodies.
//
// FNV-1a's per-byte step (XOR, then multiply by an odd prime) is a
// bijection of the running hash, so changing any single byte of a sealed
// span always changes its sum: every format detects any single-byte
// substitution inside its checksummed span.
package frame

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Sum64 returns the FNV-1a hash of b.
func Sum64(b []byte) uint64 { return Add(offset64, b) }

// Add continues the FNV-1a hash h over b, so that
// Add(Sum64(a), b) == Sum64(a ‖ b): a checksum can span several buffers
// without concatenating them.
func Add(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}
