// Package registry is the content-addressed model registry with
// tamper-evident lineage: the production answer to "which model is
// serving, where did it come from, and can I trust the bytes".
//
// It is the audit-log triangle: a content-addressed blob store
// (blobs/<fnv-hash>.rpm1, written temp → fsync → rename), an append-only
// hash-chained manifest of fit records (manifest.rpl, sealed by a HEAD
// file), and an in-memory index rebuilt from the manifest at Open serving
// lookup by version, hash, or tag. Manifest appends are batched through a
// background appender so refit-time ledger writes stay off the hot-swap
// path; Sync is the durability barrier.
package registry

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"rpdbscan/internal/frame"
	"rpdbscan/internal/obs"
)

// Artifact framing constants mirrored from the RPM1 codec (internal/serve
// owns the full decoder; the registry only needs the integrity envelope,
// and serve imports registry, so the two cannot share the symbols).
const (
	artifactMagic = "RPM1"
	// artifactChecksumStart is where checksummed artifact content begins
	// (after magic and the checksum field).
	artifactChecksumStart = 4 + 8
	// artifactMinLen is the RPM1 fixed header size; anything shorter
	// cannot be a model.
	artifactMinLen = artifactChecksumStart + 2 + 4 + 4 + 4 + 8 + 8
)

const (
	manifestName = "manifest.rpl"
	headName     = "HEAD"
	blobDirName  = "blobs"
	// maxManifestBytes bounds the manifest read at Open. A registry with
	// a billion models would still be two orders of magnitude under this;
	// anything larger is corruption, not history.
	maxManifestBytes = 1 << 30
)

// gcGrace is the minimum age a file in blobs/ must reach before GC will
// treat it as garbage. A blob or temp file younger than this may belong
// to a publish in flight in ANOTHER process (the rename into blobs/
// happens before the manifest record is appended, and cross-process
// there is no lock to serialize against), so GC leaves it for a later
// sweep. A var so tests can age files instead of sleeping.
var gcGrace = 10 * time.Minute

// readFile is the blob read-back seam; tests override it to simulate
// storage that corrupts bytes between write and verification.
var readFile = os.ReadFile

// legacyArtifactRe matches the pre-registry artifact layout
// (model-<version>-<hash>.rpm1 in the model dir root) for import and GC.
var legacyArtifactRe = regexp.MustCompile(`^model-(\d+)-([0-9a-f]{16})\.rpm1$`)

// ArtifactHash returns the content address of an RPM1 artifact: the
// FNV-1a sum of everything after the checksum field, which is also the
// value stored in the artifact's own header.
func ArtifactHash(buf []byte) uint64 {
	return frame.Sum64(buf[artifactChecksumStart:])
}

// checkArtifact verifies the RPM1 integrity envelope and, when want is
// nonzero, the content address. The two checks are distinct failure
// detectors: a flip inside the stored checksum field trips the embedded
// comparison, a flip in the body trips both the embedded comparison and
// the address.
func checkArtifact(buf []byte, want uint64) (uint64, error) {
	if len(buf) < artifactMinLen || string(buf[:4]) != artifactMagic {
		return 0, fmt.Errorf("registry: not an RPM1 artifact (%d bytes)", len(buf))
	}
	embedded := binary.BigEndian.Uint64(buf[4:])
	sum := ArtifactHash(buf)
	if embedded != sum {
		return 0, fmt.Errorf("registry: artifact checksum mismatch (header %016x, body %016x)", embedded, sum)
	}
	if want != 0 && sum != want {
		return 0, fmt.Errorf("registry: artifact hash %016x does not match address %016x", sum, want)
	}
	return sum, nil
}

// FormatHash renders a model hash the way the serving stack does
// ("fnv1a:%016x"); ParseHash accepts that form or bare 16-digit hex.
func FormatHash(h uint64) string { return fmt.Sprintf("fnv1a:%016x", h) }

// ParseHash parses "fnv1a:<16 hex>" or bare "<16 hex>".
func ParseHash(s string) (uint64, error) {
	if len(s) > 6 && s[:6] == "fnv1a:" {
		s = s[6:]
	}
	if len(s) != 16 {
		return 0, fmt.Errorf("registry: hash %q is not 16 hex digits", s)
	}
	h, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("registry: bad hash %q: %v", s, err)
	}
	return h, nil
}

// appendReq is one queued manifest frame; flush, when non-nil, is closed
// with the batch outcome so Sync can act as a barrier.
type appendReq struct {
	frame []byte
	chain uint64
	flush chan error
}

// Registry is an open model registry. All methods are safe for concurrent
// use; Publish and the lookup methods never block on manifest fsync.
type Registry struct {
	dir string

	// pubMu serializes GC against the publish pipeline: Publish holds the
	// read side from blob write through record enqueue, GC holds the write
	// side across its referenced-set snapshot and deletion sweep. Without
	// it, GC could observe a blob already renamed into blobs/ whose
	// manifest record has not yet been indexed and delete it — stranding
	// the record with a missing artifact — or remove the temp file of a
	// writeBlob still in flight. Always acquired before mu.
	pubMu sync.RWMutex

	mu        sync.Mutex
	recs      []Record
	byVersion map[int64]int // latest record index per version
	byHash    map[uint64]int
	byTag     map[string]int
	chain     uint64 // tip including queued-but-not-yet-durable frames
	sealed    int64  // records proven durable (HEAD count)
	err       error  // sticky appender failure; poisons further publishes
	closed    bool
	// pending is the ordered append queue. Frames are appended under mu in
	// the same critical section that advances chain, so queue order IS
	// chain order — the appender drains it in one batch per wakeup and can
	// never write frames to the manifest out of chain order.
	pending []appendReq

	f      *os.File      // manifest, opened O_APPEND
	notify chan struct{} // buffered(1) wakeup for the appender
	quit   chan struct{} // closed by Close; appender drains and exits
	done   chan struct{}
}

// Open opens (or initialises) the registry rooted at dir, verifying the
// full manifest chain against HEAD and rebuilding the index. A manifest
// whose sealed prefix is damaged — any byte flipped, any record removed,
// the file truncated below HEAD's count — is rejected outright. Complete
// frames past HEAD (a crash between manifest fsync and HEAD update) are
// adopted; a torn trailing frame is discarded. If the manifest is empty
// and the directory holds pre-registry model-<v>-<hash>.rpm1 artifacts,
// they are imported in version order so old model dirs upgrade in place.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}

	headCount, headTip := int64(0), chainSeed()
	headBuf, err := os.ReadFile(filepath.Join(dir, headName))
	switch {
	case err == nil:
		if headCount, headTip, err = decodeHead(headBuf); err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		// Fresh registry, or a crash before the first seal.
	default:
		return nil, fmt.Errorf("registry: %w", err)
	}

	mpath := filepath.Join(dir, manifestName)
	mbuf, err := os.ReadFile(mpath)
	if os.IsNotExist(err) {
		mbuf = nil
	} else if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if len(mbuf) > maxManifestBytes {
		return nil, fmt.Errorf("registry: manifest of %d bytes exceeds limit", len(mbuf))
	}

	var scan manifestScan
	switch {
	case len(mbuf) == 0:
		if headCount > 0 {
			return nil, fmt.Errorf("registry: manifest missing but HEAD seals %d records", headCount)
		}
		if err := os.WriteFile(mpath, []byte(manifestMagic), 0o644); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		scan = manifestScan{end: int64(len(manifestMagic))}
	case len(mbuf) < len(manifestMagic) || string(mbuf[:len(manifestMagic)]) != manifestMagic:
		return nil, fmt.Errorf("registry: bad manifest magic")
	default:
		scan = scanManifest(mbuf)
	}

	// The sealed prefix is non-negotiable: HEAD promises headCount records
	// with a specific chain tip, and anything less is tampering or storage
	// corruption, not a crash.
	if int64(len(scan.recs)) < headCount {
		if scan.damaged {
			return nil, fmt.Errorf("registry: sealed manifest prefix corrupt (%d of %d records verify): %w",
				len(scan.recs), headCount, scan.derr)
		}
		return nil, fmt.Errorf("registry: manifest truncated to %d records but HEAD seals %d",
			len(scan.recs), headCount)
	}
	if scan.tipAt(int(headCount)) != headTip {
		return nil, fmt.Errorf("registry: manifest chain diverges from HEAD tip at record %d", headCount)
	}

	// Unsealed tail: complete verified frames are adopted (fsynced batch,
	// crash before HEAD update); torn debris past them is truncated away.
	if scan.damaged {
		if err := os.Truncate(mpath, scan.end); err != nil {
			return nil, fmt.Errorf("registry: truncate torn tail: %w", err)
		}
	}

	r := &Registry{
		dir:       dir,
		recs:      scan.recs,
		byVersion: make(map[int64]int),
		byHash:    make(map[uint64]int),
		byTag:     make(map[string]int),
		chain:     scan.tip(),
		sealed:    headCount,
		notify:    make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i, rec := range r.recs {
		r.indexRecord(rec, i)
	}
	if int64(len(r.recs)) > headCount || scan.damaged {
		// Seal the adopted tail (and the truncation) right away so a
		// second crash cannot demote already-verified records.
		if err := r.writeHead(int64(len(r.recs)), r.chain); err != nil {
			return nil, err
		}
		r.sealed = int64(len(r.recs))
	}

	if r.f, err = os.OpenFile(mpath, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	go r.appender()

	if len(r.recs) == 0 {
		if err := r.importLegacy(); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// indexRecord updates the lookup maps; later records win, so the index
// always resolves to the most recent publish of a version or tag.
func (r *Registry) indexRecord(rec Record, i int) {
	r.byVersion[rec.Version] = i
	r.byHash[rec.ModelHash] = i
	if rec.Tag != "" {
		r.byTag[rec.Tag] = i
	}
}

// writeHead seals (count, tip) durably via temp → fsync → rename.
func (r *Registry) writeHead(count int64, tip uint64) error {
	tmp, err := os.CreateTemp(r.dir, headName+".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(encodeHead(count, tip)); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(r.dir, headName)); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// importLegacy publishes pre-registry model-<v>-<hash>.rpm1 artifacts
// from the registry root into the ledger, version-ascending, chaining
// parents in import order — so `registry.Open(dir).Head()` on a
// pre-registry model dir resolves its newest valid artifact.
func (r *Registry) importLegacy() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	type legacy struct {
		version int64
		name    string
	}
	var found []legacy
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := legacyArtifactRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			continue
		}
		found = append(found, legacy{version: v, name: e.Name()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].version != found[j].version {
			return found[i].version < found[j].version
		}
		return found[i].name < found[j].name
	})
	var parent uint64
	for _, l := range found {
		buf, err := os.ReadFile(filepath.Join(r.dir, l.name))
		if err != nil {
			continue
		}
		sum, err := checkArtifact(buf, 0)
		if err != nil {
			continue // invalid legacy artifacts are skipped
		}
		if _, err := r.Publish(buf, Record{
			Version:   l.version,
			ModelHash: sum,
			Parent:    parent,
			Points:    int64(pointCount(buf)),
			Bytes:     int64(len(buf)),
			Tag:       "imported",
		}); err != nil {
			return err
		}
		parent = sum
	}
	if len(found) > 0 {
		return r.syncLocked()
	}
	return nil
}

// pointCount reads the RPM1 point-count header field (for import stats).
func pointCount(buf []byte) uint32 {
	return binary.BigEndian.Uint32(buf[artifactChecksumStart+2+4+4:])
}

// appender is the batching goroutine: each wakeup steals the whole
// pending queue and drains it into one write + fsync + HEAD seal, so N
// rapid publishes cost one durable round-trip, and the publish path
// itself never waits on the disk. Because the queue is stolen intact and
// was appended to under mu in chain order, the batch hits the manifest in
// exactly chain order.
func (r *Registry) appender() {
	defer close(r.done)
	for {
		select {
		case <-r.notify:
			r.drainPending()
		case <-r.quit:
			// Close has barred new publishes; one final drain empties
			// whatever was queued before the bar.
			r.drainPending()
			return
		}
	}
}

// drainPending steals the pending queue under mu and writes it as one
// durable batch, then answers every flush barrier in the batch.
func (r *Registry) drainPending() {
	r.mu.Lock()
	reqs := r.pending
	r.pending = nil
	r.mu.Unlock()
	if len(reqs) == 0 {
		return
	}

	start := time.Now()
	var batch []byte
	var chain uint64
	var count int64
	var flushes []chan error
	for _, q := range reqs {
		if len(q.frame) > 0 {
			batch = append(batch, q.frame...)
			chain = q.chain
			count++
		}
		if q.flush != nil {
			flushes = append(flushes, q.flush)
		}
	}
	var err error
	if count > 0 {
		err = r.appendBatch(batch, chain, count)
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.mu.Unlock()
		}
		obs.Histograms.ManifestAppendNs.Record(time.Since(start).Nanoseconds())
	}
	for _, fl := range flushes {
		fl <- err
		close(fl)
	}
}

// wake nudges the appender; the buffered channel coalesces bursts.
func (r *Registry) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// appendBatch writes one durable batch: frames, manifest fsync, then the
// HEAD seal. Ordering matters — HEAD must never claim records the
// manifest hasn't fsynced.
func (r *Registry) appendBatch(batch []byte, chain uint64, count int64) error {
	if _, err := r.f.Write(batch); err != nil {
		return fmt.Errorf("registry: manifest append: %w", err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("registry: manifest fsync: %w", err)
	}
	r.mu.Lock()
	sealed := r.sealed + count
	r.mu.Unlock()
	if err := r.writeHead(sealed, chain); err != nil {
		return err
	}
	r.mu.Lock()
	r.sealed = sealed
	r.mu.Unlock()
	return nil
}

// BlobPath returns the content-addressed path for a model hash.
func (r *Registry) BlobPath(hash uint64) string {
	return filepath.Join(r.dir, blobDirName, fmt.Sprintf("%016x.rpm1", hash))
}

// Dir returns the registry root.
func (r *Registry) Dir() string { return r.dir }

// Publish stores an RPM1 artifact content-addressed and appends its fit
// record to the manifest. The blob is durable (fsynced, renamed into
// place, read back and verified against both the embedded checksum and
// the address) before Publish returns; the manifest record is queued for
// a batched append and becomes durable at the next batch or Sync. The
// index reflects the record immediately. Publishing bytes already in the
// store is idempotent at the blob layer and appends a fresh ledger record
// (a rollback re-publish is honest history, not an error).
func (r *Registry) Publish(artifact []byte, rec Record) (string, error) {
	sum, err := checkArtifact(artifact, rec.ModelHash)
	if err != nil {
		return "", err
	}
	rec.ModelHash = sum
	if rec.Bytes == 0 {
		rec.Bytes = int64(len(artifact))
	}

	// Hold the publish side of pubMu from blob write through record
	// enqueue: in the window after writeBlob renames the artifact into
	// blobs/ but before the record is indexed, a concurrent GC would see
	// the blob as unreferenced and delete it.
	r.pubMu.RLock()
	defer r.pubMu.RUnlock()

	path := r.BlobPath(sum)
	wrote := false
	if existing, err := readFile(path); err != nil || func() bool {
		_, verr := checkArtifact(existing, sum)
		return verr != nil
	}() {
		if err := r.writeBlob(path, artifact, sum); err != nil {
			return "", err
		}
		wrote = true
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: closed")
	}
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return "", fmt.Errorf("registry: manifest appender failed: %w", err)
	}
	frame, chain, err := encodeFrame(r.chain, rec)
	if err != nil {
		r.mu.Unlock()
		return "", err
	}
	// Advancing the chain and enqueueing the frame happen in the same
	// critical section: the pending queue is always in chain order, no
	// matter how publishes interleave.
	r.chain = chain
	r.recs = append(r.recs, rec)
	r.indexRecord(rec, len(r.recs)-1)
	r.pending = append(r.pending, appendReq{frame: frame, chain: chain})
	r.mu.Unlock()

	r.wake()
	obs.Counters.RegistryPublishes.Add(1)
	if wrote {
		obs.Counters.RegistryBlobBytes.Add(int64(len(artifact)))
	}
	return path, nil
}

// writeBlob lands artifact bytes at path via temp → fsync → rename, then
// reads the renamed file back and verifies both integrity checks. If the
// read-back fails — storage corrupted the bytes between write and rename,
// or the medium is lying — the renamed blob is removed before returning,
// so a failed publish cannot strand a plausibly-named-but-bad artifact
// for a later Open or operator to trip over. (The pre-registry Refitter
// had exactly this orphan bug: its deferred cleanup removed only the temp
// name, leaving the renamed model-<v>-<hash>.rpm1 behind on validation
// failure.)
func (r *Registry) writeBlob(path string, artifact []byte, sum uint64) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(artifact); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: write blob: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: sync blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: close blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry: rename blob: %w", err)
	}
	back, err := readFile(path)
	if err == nil {
		_, err = checkArtifact(back, sum)
	}
	if err != nil {
		os.Remove(path) // do not strand a bad blob under a valid name
		return fmt.Errorf("registry: blob read-back: %w", err)
	}
	return nil
}

// Blob returns the verified artifact bytes for a model hash: RPM1 magic,
// embedded checksum, and content address must all agree.
func (r *Registry) Blob(hash uint64) ([]byte, error) {
	buf, err := os.ReadFile(r.BlobPath(hash))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if _, err := checkArtifact(buf, hash); err != nil {
		return nil, err
	}
	return buf, nil
}

// Sync blocks until every record published before the call is durable
// (manifest fsynced, HEAD sealed), returning the first appender error.
func (r *Registry) Sync() error {
	r.mu.Lock()
	if r.closed {
		err := r.err
		r.mu.Unlock()
		return err
	}
	err := r.syncWithQueueLocked()
	r.mu.Unlock()
	return err
}

// syncLocked is Sync for callers not holding mu.
func (r *Registry) syncLocked() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syncWithQueueLocked()
}

// syncWithQueueLocked enqueues a flush barrier and waits for it outside
// the lock. Caller holds mu; it is released and re-acquired. The barrier
// rides the same ordered queue as the frames, so it is answered only
// after every frame enqueued before it is durable.
func (r *Registry) syncWithQueueLocked() error {
	if r.err != nil {
		return r.err
	}
	if int64(len(r.recs)) == r.sealed {
		return nil
	}
	fl := make(chan error, 1)
	r.pending = append(r.pending, appendReq{flush: fl})
	r.mu.Unlock()
	r.wake()
	err := <-fl
	r.mu.Lock()
	return err
}

// Close drains the append queue, seals HEAD, and closes the manifest.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return r.err
	}
	r.closed = true
	r.mu.Unlock()
	// closed bars new queue entries (Publish and Sync both check it under
	// mu), so the appender's final drain on quit empties the queue for
	// good.
	close(r.quit)
	<-r.done
	cerr := r.f.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return cerr
}

// Head returns the most recently published record, if any.
func (r *Registry) Head() (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) == 0 {
		return Record{}, false
	}
	return r.recs[len(r.recs)-1], true
}

// ByVersion resolves a version to its latest record.
func (r *Registry) ByVersion(v int64) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byVersion[v]
	if !ok {
		return Record{}, false
	}
	return r.recs[i], true
}

// ByHash resolves a model hash to its latest record.
func (r *Registry) ByHash(h uint64) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byHash[h]
	if !ok {
		return Record{}, false
	}
	return r.recs[i], true
}

// ByTag resolves a tag to its latest record.
func (r *Registry) ByTag(tag string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byTag[tag]
	if !ok {
		return Record{}, false
	}
	return r.recs[i], true
}

// Records returns a copy of the full ledger in append order.
func (r *Registry) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.recs...)
}

// VerifyReport summarises a full registry verification.
type VerifyReport struct {
	// Records is the number of chain-verified manifest records.
	Records int
	// Blobs is the number of distinct artifacts re-read and re-hashed.
	Blobs int
	// BlobBytes is the total verified artifact size.
	BlobBytes int64
	// ExternalParents counts records whose parent hash is nonzero but not
	// itself a ledger entry — a boot model that never passed through this
	// registry. Allowed; listed so operators see the lineage boundary.
	ExternalParents int
}

// Verify re-reads the manifest from disk, re-walks the whole hash chain,
// checks HEAD consistency, and re-hashes every referenced blob. It is the
// ground-truth check: any single flipped byte in any record or artifact
// fails it.
func (r *Registry) Verify() (VerifyReport, error) {
	if err := r.Sync(); err != nil {
		return VerifyReport{}, err
	}

	mbuf, err := os.ReadFile(filepath.Join(r.dir, manifestName))
	if err != nil {
		return VerifyReport{}, fmt.Errorf("registry: %w", err)
	}
	if len(mbuf) < len(manifestMagic) || string(mbuf[:len(manifestMagic)]) != manifestMagic {
		return VerifyReport{}, fmt.Errorf("registry: bad manifest magic")
	}
	scan := scanManifest(mbuf)
	if scan.damaged {
		return VerifyReport{}, fmt.Errorf("registry: manifest record %d unverifiable: %w", len(scan.recs), scan.derr)
	}

	headBuf, err := os.ReadFile(filepath.Join(r.dir, headName))
	if err != nil {
		return VerifyReport{}, fmt.Errorf("registry: %w", err)
	}
	headCount, headTip, err := decodeHead(headBuf)
	if err != nil {
		return VerifyReport{}, err
	}
	if int64(len(scan.recs)) < headCount {
		return VerifyReport{}, fmt.Errorf("registry: manifest holds %d records but HEAD seals %d", len(scan.recs), headCount)
	}
	if scan.tipAt(int(headCount)) != headTip {
		return VerifyReport{}, fmt.Errorf("registry: HEAD tip diverges from manifest chain at record %d", headCount)
	}

	rep := VerifyReport{Records: len(scan.recs)}
	ledger := make(map[uint64]bool, len(scan.recs))
	seen := make(map[uint64]bool, len(scan.recs))
	for i, rec := range scan.recs {
		if rec.Parent != 0 && !ledger[rec.Parent] {
			rep.ExternalParents++
		}
		ledger[rec.ModelHash] = true
		if seen[rec.ModelHash] {
			continue
		}
		seen[rec.ModelHash] = true
		buf, err := os.ReadFile(r.BlobPath(rec.ModelHash))
		if err != nil {
			return rep, fmt.Errorf("registry: record %d (version %d): %w", i, rec.Version, err)
		}
		if _, err := checkArtifact(buf, rec.ModelHash); err != nil {
			return rep, fmt.Errorf("registry: record %d (version %d): %w", i, rec.Version, err)
		}
		rep.Blobs++
		rep.BlobBytes += int64(len(buf))
	}
	return rep, nil
}

// GC removes files no manifest record references: unreferenced blobs
// (the crash window between blob rename and manifest append leaves
// these), abandoned temp files, and legacy model-<v>-<hash>.rpm1
// artifacts that are either invalid or already imported into the blob
// store. Valid legacy artifacts not yet in the ledger are kept — they
// may belong to a reader that has not upgraded. Returns removed paths
// relative to the registry root.
//
// GC is serialized against this handle's Publish calls (it cannot delete
// a blob whose record is still in flight), but nothing serializes it
// against OTHER processes: do not run `rpmodel gc` against a registry a
// live rpserve is publishing into. Files in blobs/ younger than gcGrace
// are skipped as a cross-process safety margin, not a guarantee.
func (r *Registry) GC() ([]string, error) {
	// Exclusive pubMu: no Publish is between blob rename and record
	// index while the sweep runs, so "unreferenced" is trustworthy.
	r.pubMu.Lock()
	defer r.pubMu.Unlock()

	if err := r.Sync(); err != nil {
		return nil, err
	}
	referenced := make(map[uint64]bool)
	r.mu.Lock()
	for _, rec := range r.recs {
		referenced[rec.ModelHash] = true
	}
	r.mu.Unlock()

	var removed []string
	rm := func(rel string) error {
		if err := os.Remove(filepath.Join(r.dir, rel)); err != nil {
			return fmt.Errorf("registry: gc: %w", err)
		}
		removed = append(removed, rel)
		return nil
	}

	blobDir := filepath.Join(r.dir, blobDirName)
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	blobRe := regexp.MustCompile(`^([0-9a-f]{16})\.rpm1$`)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		rel := filepath.Join(blobDirName, name)
		m := blobRe.FindStringSubmatch(name)
		if m != nil {
			h, _ := strconv.ParseUint(m[1], 16, 64)
			if referenced[h] {
				continue
			}
		}
		// Candidate garbage: an unreferenced blob or a stray (an abandoned
		// temp file from a crashed write, or debris). Skip anything young
		// enough to be an in-flight publish from another process — a blob
		// lands in blobs/ before its manifest record, and a temp file
		// exists before its rename.
		if info, err := e.Info(); err != nil || time.Since(info.ModTime()) < gcGrace {
			continue
		}
		if err := rm(rel); err != nil {
			return removed, err
		}
	}

	// Legacy artifacts in the registry root: remove the ones that are
	// invalid (import skips them forever) or already
	// content-addressed in the blob store.
	rootEntries, err := os.ReadDir(r.dir)
	if err != nil {
		return removed, fmt.Errorf("registry: %w", err)
	}
	for _, e := range rootEntries {
		if e.IsDir() || legacyArtifactRe.FindStringSubmatch(e.Name()) == nil {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(r.dir, e.Name()))
		if err != nil {
			continue
		}
		sum, verr := checkArtifact(buf, 0)
		if verr != nil || referenced[sum] {
			if err := rm(e.Name()); err != nil {
				return removed, err
			}
		}
	}
	sort.Strings(removed)
	obs.Counters.RegistryGCRemoved.Add(int64(len(removed)))
	return removed, nil
}
