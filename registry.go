package rpdbscan

import (
	"fmt"

	"rpdbscan/internal/registry"
	"rpdbscan/internal/serve"
)

// ModelRegistry is read access to a content-addressed model registry —
// the directory rpserve's online loop publishes into: verified artifacts
// under blobs/<hash>.rpm1 plus an append-only, tamper-evident manifest of
// fit records. Open it to audit lineage, fetch any historical generation
// by hash or version, or verify the whole store; the rpmodel command is
// the CLI face of the same API.
//
// A directory holding only legacy model-<version>-<hash>.rpm1 artifacts
// (written before the registry existed) is imported on first open, and
// Head then resolves the newest valid one.
type ModelRegistry struct {
	reg *registry.Registry
}

// FitRecord is one manifest entry: the identity and provenance of a
// published model generation. Hashes are rendered "fnv1a:%016x", matching
// Model checksums everywhere else in the API; Parent is "" for a
// generation with no recorded predecessor.
type FitRecord struct {
	Version   int64
	Hash      string
	Parent    string
	Watermark int64
	Points    int64
	Clusters  int64
	Bytes     int64
	FitNs     int64
	Tag       string
}

func publicRecord(rec registry.Record) FitRecord {
	parent := ""
	if rec.Parent != 0 {
		parent = registry.FormatHash(rec.Parent)
	}
	return FitRecord{
		Version:   rec.Version,
		Hash:      registry.FormatHash(rec.ModelHash),
		Parent:    parent,
		Watermark: rec.Watermark,
		Points:    rec.Points,
		Clusters:  rec.Clusters,
		Bytes:     rec.Bytes,
		FitNs:     rec.FitNs,
		Tag:       rec.Tag,
	}
}

// RegistryAudit is Verify's report: what a full re-verification covered.
type RegistryAudit struct {
	// Records is the number of manifest records whose chain verified.
	Records int
	// Blobs and BlobBytes count the distinct artifacts re-hashed.
	Blobs     int
	BlobBytes int64
	// ExternalParents counts lineage links to generations fitted outside
	// this registry (for example a -model boot artifact).
	ExternalParents int
}

// OpenModelRegistry opens the registry rooted at dir, rebuilding the
// lookup index from the manifest and rejecting any tampered or truncated
// ledger. A missing directory is created empty.
func OpenModelRegistry(dir string) (*ModelRegistry, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	return &ModelRegistry{reg: reg}, nil
}

// Head returns the most recently published generation's record, if any.
func (r *ModelRegistry) Head() (FitRecord, bool) {
	rec, ok := r.reg.Head()
	if !ok {
		return FitRecord{}, false
	}
	return publicRecord(rec), true
}

// Records returns every manifest record in fit order, head last.
func (r *ModelRegistry) Records() []FitRecord {
	recs := r.reg.Records()
	out := make([]FitRecord, len(recs))
	for i, rec := range recs {
		out[i] = publicRecord(rec)
	}
	return out
}

// Model fetches a generation by content hash ("fnv1a:HEX" or bare hex),
// verifying the artifact against both its embedded checksum and its
// address before decoding.
func (r *ModelRegistry) Model(hash string) (*Model, error) {
	sum, err := registry.ParseHash(hash)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	blob, err := r.reg.Blob(sum)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	sm, err := serve.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("rpdbscan: %w", err)
	}
	return &Model{m: sm}, nil
}

// ModelAt fetches the generation recorded at version (the latest record
// when the ledger holds several, e.g. after a rollback republish).
func (r *ModelRegistry) ModelAt(version int64) (*Model, error) {
	rec, ok := r.reg.ByVersion(version)
	if !ok {
		return nil, fmt.Errorf("rpdbscan: no registry record for version %d", version)
	}
	return r.Model(registry.FormatHash(rec.ModelHash))
}

// Verify re-reads the manifest and HEAD seal from disk, walks the full
// hash chain, and re-hashes every referenced artifact. Any flipped byte,
// truncation, or reorder anywhere in the store fails it.
func (r *ModelRegistry) Verify() (RegistryAudit, error) {
	rep, err := r.reg.Verify()
	if err != nil {
		return RegistryAudit{}, fmt.Errorf("rpdbscan: %w", err)
	}
	return RegistryAudit{
		Records:         rep.Records,
		Blobs:           rep.Blobs,
		BlobBytes:       rep.BlobBytes,
		ExternalParents: rep.ExternalParents,
	}, nil
}

// Close seals and releases the registry.
func (r *ModelRegistry) Close() error { return r.reg.Close() }
