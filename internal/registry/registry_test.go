package registry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rpdbscan/internal/frame"
)

// backdate ages a file past the GC grace window.
func backdate(t *testing.T, path string) {
	t.Helper()
	old := time.Now().Add(-2 * gcGrace)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// testArtifact builds a small, fully decodable RPM1 artifact whose bytes
// vary with seed (two 1-d points, one cluster). The registry only checks
// the integrity envelope, but keeping fixtures decodable means the same
// bytes satisfy serve.Decode in cross-package tests.
func testArtifact(seed int) []byte {
	const n, dim = 2, 1
	buf := make([]byte, 0, 64)
	buf = append(buf, artifactMagic...)
	buf = binary.BigEndian.AppendUint64(buf, 0) // checksum, patched below
	buf = binary.BigEndian.AppendUint16(buf, dim)
	buf = binary.BigEndian.AppendUint32(buf, 1) // minPts
	buf = binary.BigEndian.AppendUint32(buf, 1) // numClusters
	buf = binary.BigEndian.AppendUint32(buf, n)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(0.5))  // eps
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(0.01)) // rho
	buf = binary.BigEndian.AppendUint32(buf, 0)                      // labels
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = append(buf, 0b11) // both core
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(seed)))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(seed)+0.25))
	binary.BigEndian.PutUint64(buf[4:], frame.Sum64(buf[artifactChecksumStart:]))
	return buf
}

// publishN opens a fresh registry in dir and publishes n generations with
// chained parents and per-version tags, then syncs. Returns the open
// registry and the published artifacts by version.
func publishN(t *testing.T, dir string, n int) (*Registry, map[int64][]byte) {
	t.Helper()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	arts := make(map[int64][]byte, n)
	var parent uint64
	for v := int64(1); v <= int64(n); v++ {
		art := testArtifact(int(v))
		sum := ArtifactHash(art)
		if _, err := r.Publish(art, Record{
			Version:   v,
			ModelHash: sum,
			Parent:    parent,
			Watermark: 8 * v,
			ConfigSum: 0xc0ffee,
			Points:    2,
			Clusters:  1,
			FitNs:     1000 * v,
			Tag:       fmt.Sprintf("gen-%d", v),
		}); err != nil {
			t.Fatalf("Publish v%d: %v", v, err)
		}
		parent = sum
		arts[v] = art
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return r, arts
}

func TestPublishLookupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, arts := publishN(t, dir, 3)

	head, ok := r.Head()
	if !ok || head.Version != 3 {
		t.Fatalf("Head = %+v, %v; want version 3", head, ok)
	}
	byV, ok := r.ByVersion(2)
	if !ok || byV.Watermark != 16 || byV.Tag != "gen-2" {
		t.Fatalf("ByVersion(2) = %+v, %v", byV, ok)
	}
	wantHash := ArtifactHash(arts[2])
	byH, ok := r.ByHash(wantHash)
	if !ok || byH.Version != 2 {
		t.Fatalf("ByHash = %+v, %v", byH, ok)
	}
	byT, ok := r.ByTag("gen-1")
	if !ok || byT.Version != 1 {
		t.Fatalf("ByTag = %+v, %v", byT, ok)
	}
	if byV.Parent != ArtifactHash(arts[1]) {
		t.Fatalf("parent of v2 = %016x, want hash of v1", byV.Parent)
	}
	blob, err := r.Blob(wantHash)
	if err != nil || !bytes.Equal(blob, arts[2]) {
		t.Fatalf("Blob: err=%v, identical=%v", err, bytes.Equal(blob, arts[2]))
	}
	rep, err := r.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Records != 3 || rep.Blobs != 3 || rep.ExternalParents != 0 {
		t.Fatalf("Verify report = %+v", rep)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen rebuilds the identical index from the manifest alone.
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if got := r2.Records(); len(got) != 3 || got[2].Version != 3 || got[0].Tag != "gen-1" {
		t.Fatalf("reopened records = %+v", got)
	}
	blob, err = r2.Blob(ArtifactHash(arts[3]))
	if err != nil || !bytes.Equal(blob, arts[3]) {
		t.Fatalf("reopened Blob: err=%v", err)
	}
}

func TestRepublishIsIdempotentAtBlobLayer(t *testing.T) {
	dir := t.TempDir()
	r, arts := publishN(t, dir, 2)
	defer r.Close()

	// Rollback story: re-publish generation 1's bytes as a new record.
	sum := ArtifactHash(arts[1])
	if _, err := r.Publish(arts[1], Record{Version: 1, ModelHash: sum, Tag: "rollback"}); err != nil {
		t.Fatalf("republish: %v", err)
	}
	if recs := r.Records(); len(recs) != 3 {
		t.Fatalf("ledger has %d records, want 3 (honest history)", len(recs))
	}
	// Index resolves version 1 to the latest (rollback) record.
	rec, _ := r.ByVersion(1)
	if rec.Tag != "rollback" {
		t.Fatalf("ByVersion(1).Tag = %q, want rollback", rec.Tag)
	}
	rep, err := r.Verify()
	if err != nil || rep.Blobs != 2 {
		t.Fatalf("Verify = %+v, %v; want 2 distinct blobs", rep, err)
	}
}

// TestEveryManifestByteFlipDetected is the tamper property test: for
// EVERY byte of the manifest and of the HEAD file, flipping it must make
// Open fail. After Close the whole ledger is sealed, so a flip is
// tampering by definition — no crash-recovery path may accept it.
func TestEveryManifestByteFlipDetected(t *testing.T) {
	dir := t.TempDir()
	r, _ := publishN(t, dir, 3)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for _, name := range []string{manifestName, headName} {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for i := range orig {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			if reg, err := Open(dir); err == nil {
				reg.Close()
				t.Fatalf("flip of %s byte %d: Open accepted tampered registry", name, i)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	// Restored bytes open clean.
	reg, err := Open(dir)
	if err != nil {
		t.Fatalf("restored registry: %v", err)
	}
	reg.Close()
}

// TestEveryBlobByteFlipDetected: for every byte of every blob, a flip
// must fail both Blob() and Verify().
func TestEveryBlobByteFlipDetected(t *testing.T) {
	dir := t.TempDir()
	r, arts := publishN(t, dir, 2)
	defer r.Close()

	for v, art := range arts {
		hash := ArtifactHash(art)
		path := r.BlobPath(hash)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read blob v%d: %v", v, err)
		}
		for i := range orig {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := r.Blob(hash); err == nil {
				t.Fatalf("flip of blob v%d byte %d: Blob accepted tampered artifact", v, i)
			}
			if _, err := r.Verify(); err == nil {
				t.Fatalf("flip of blob v%d byte %d: Verify passed", v, i)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("restored registry fails Verify: %v", err)
	}
}

// TestEveryTruncationRejected: a sealed registry truncated to ANY shorter
// manifest length must be rejected at Open — truncation is
// indistinguishable from deliberate history rewriting once HEAD has
// sealed the records.
func TestEveryTruncationRejected(t *testing.T) {
	dir := t.TempDir()
	r, _ := publishN(t, dir, 3)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, manifestName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for l := 0; l < len(orig); l++ {
		if err := os.WriteFile(path, orig[:l], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", l, err)
		}
		if reg, err := Open(dir); err == nil {
			reg.Close()
			t.Fatalf("truncation to %d bytes: Open accepted", l)
		}
	}
	// Truncating HEAD itself must also fail.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatalf("restore: %v", err)
	}
	hpath := filepath.Join(dir, headName)
	horig, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatalf("read HEAD: %v", err)
	}
	for l := 0; l < len(horig); l++ {
		if err := os.WriteFile(hpath, horig[:l], 0o644); err != nil {
			t.Fatalf("truncate HEAD: %v", err)
		}
		if reg, err := Open(dir); err == nil {
			reg.Close()
			t.Fatalf("HEAD truncated to %d bytes: Open accepted", l)
		}
	}
}

// TestRecordReorderRejected: swapping two complete frames breaks the
// chain even when both frames are individually well-formed.
func TestRecordReorderRejected(t *testing.T) {
	dir := t.TempDir()
	r, _ := publishN(t, dir, 3) // tags gen-1..gen-3: all frames equal length
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, manifestName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	frameLen := (len(orig) - len(manifestMagic)) / 3
	if (len(orig)-len(manifestMagic))%3 != 0 {
		t.Fatalf("frames not equal length; fix the fixture")
	}
	mut := append([]byte(nil), orig...)
	a := mut[len(manifestMagic) : len(manifestMagic)+frameLen]
	b := mut[len(manifestMagic)+frameLen : len(manifestMagic)+2*frameLen]
	tmp := append([]byte(nil), a...)
	copy(a, b)
	copy(b, tmp)
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if reg, err := Open(dir); err == nil {
		reg.Close()
		t.Fatal("Open accepted reordered manifest")
	}
}

// TestCrashTornTailRecovered: garbage appended past the sealed region
// (a torn final write) is truncated at reopen; the sealed prefix and
// subsequent publishes are unaffected.
func TestCrashTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	r, _ := publishN(t, dir, 2)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open append: %v", err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()

	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if recs := r2.Records(); len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	// The debris is gone and the ledger accepts appends again.
	art := testArtifact(9)
	if _, err := r2.Publish(art, Record{Version: 3, ModelHash: ArtifactHash(art)}); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r3, err := Open(dir)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer r3.Close()
	if _, err := r3.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	if recs := r3.Records(); len(recs) != 3 {
		t.Fatalf("final ledger has %d records, want 3", len(recs))
	}
}

// TestCrashMidAppendSealedPrefixIntact kills the durability pipeline at
// every possible byte boundary: a fresh frame appended to the manifest
// without a HEAD update (the crash window between fsync and seal) is
// simulated at every prefix length. Complete frames are adopted; torn
// ones are discarded; the sealed prefix always survives. Same discipline
// as the ingest-buffer crash battery.
func TestCrashMidAppendSealedPrefixIntact(t *testing.T) {
	dir := t.TempDir()
	r, _ := publishN(t, dir, 2)
	tip := r.chain
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, manifestName)
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	headBytes, err := os.ReadFile(filepath.Join(dir, headName))
	if err != nil {
		t.Fatalf("read HEAD: %v", err)
	}

	// The frame generation 3 would have written.
	art := testArtifact(3)
	frame, _, err := encodeFrame(tip, Record{Version: 3, ModelHash: ArtifactHash(art), Watermark: 24})
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}

	for k := 0; k <= len(frame); k++ {
		if err := os.WriteFile(path, append(append([]byte(nil), sealed...), frame[:k]...), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, headName), headBytes, 0o644); err != nil {
			t.Fatalf("restore HEAD: %v", err)
		}
		r2, err := Open(dir)
		if err != nil {
			t.Fatalf("crash at tail byte %d: reopen failed: %v", k, err)
		}
		recs := r2.Records()
		want := 2
		if k == len(frame) {
			want = 3 // complete fsynced frame: adopted and sealed
		}
		if len(recs) != want {
			r2.Close()
			t.Fatalf("crash at tail byte %d: recovered %d records, want %d", k, len(recs), want)
		}
		if recs[0].Version != 1 || recs[1].Version != 2 {
			r2.Close()
			t.Fatalf("crash at tail byte %d: sealed prefix damaged: %+v", k, recs)
		}
		if err := r2.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Recovery must have resealed: a second open sees a stable ledger.
		r3, err := Open(dir)
		if err != nil {
			t.Fatalf("crash at tail byte %d: second reopen: %v", k, err)
		}
		if len(r3.Records()) != want {
			r3.Close()
			t.Fatalf("crash at tail byte %d: reseal lost records", k)
		}
		r3.Close()
	}
}

// TestOrphanBlobRemovedOnReadbackFailure pins the orphan fix: when the
// post-rename read-back sees corrupt bytes (simulated via the readFile
// seam), Publish must fail AND remove the renamed blob — the pre-registry
// Refitter left exactly this orphan behind.
func TestOrphanBlobRemovedOnReadbackFailure(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	art := testArtifact(1)
	sum := ArtifactHash(art)
	orig := readFile
	readFile = func(path string) ([]byte, error) {
		buf, err := orig(path)
		if err == nil && len(buf) > 0 {
			buf = append([]byte(nil), buf...)
			buf[len(buf)-1] ^= 0x01 // storage flips a byte after rename
		}
		return buf, err
	}
	_, perr := r.Publish(art, Record{Version: 1, ModelHash: sum})
	readFile = orig
	if perr == nil {
		t.Fatal("Publish succeeded despite corrupt read-back")
	}
	if _, err := os.Stat(r.BlobPath(sum)); !os.IsNotExist(err) {
		t.Fatalf("orphaned blob left behind at %s (stat err: %v)", r.BlobPath(sum), err)
	}
	if recs := r.Records(); len(recs) != 0 {
		t.Fatalf("failed publish appended %d manifest records", len(recs))
	}
	// The registry is still usable: the same publish succeeds cleanly.
	if _, err := r.Publish(art, Record{Version: 1, ModelHash: sum}); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestGCRemovesOrphansKeepsReferenced(t *testing.T) {
	dir := t.TempDir()
	r, arts := publishN(t, dir, 2)
	defer r.Close()

	// Plant the full garbage taxonomy: an unreferenced blob (crash window
	// between blob rename and manifest append), a temp stray, an invalid
	// legacy artifact, and a legacy artifact already imported by hash.
	orphan := testArtifact(77)
	orphanPath := r.BlobPath(ArtifactHash(orphan))
	if err := os.WriteFile(orphanPath, orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, orphanPath) // past the grace window: genuine garbage
	strayPath := filepath.Join(dir, blobDirName, "0000.rpm1.tmp-123")
	if err := os.WriteFile(strayPath, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, strayPath)
	invalidLegacy := filepath.Join(dir, "model-7-deadbeefdeadbeef.rpm1")
	if err := os.WriteFile(invalidLegacy, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	importedLegacy := filepath.Join(dir, fmt.Sprintf("model-1-%016x.rpm1", ArtifactHash(arts[1])))
	if err := os.WriteFile(importedLegacy, arts[1], 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid legacy artifact NOT in the ledger must survive GC.
	keeper := testArtifact(88)
	keeperPath := filepath.Join(dir, fmt.Sprintf("model-9-%016x.rpm1", ArtifactHash(keeper)))
	if err := os.WriteFile(keeperPath, keeper, 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := r.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if len(removed) != 4 {
		t.Fatalf("GC removed %v, want 4 entries", removed)
	}
	for _, p := range []string{orphanPath, strayPath, invalidLegacy, importedLegacy} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("GC left %s behind", p)
		}
	}
	if _, err := os.Stat(keeperPath); err != nil {
		t.Errorf("GC removed valid un-imported legacy artifact: %v", err)
	}
	// Referenced blobs untouched; registry still verifies.
	if rep, err := r.Verify(); err != nil || rep.Blobs != 2 {
		t.Fatalf("Verify after GC = %+v, %v", rep, err)
	}
}

// TestGCSkipsFreshBlobDirFiles pins the cross-process grace window: an
// unreferenced blob or temp file younger than gcGrace may be an
// in-flight publish from another process (blob rename precedes the
// manifest record; temp files precede their rename), so GC must leave
// both alone until they age out.
func TestGCSkipsFreshBlobDirFiles(t *testing.T) {
	dir := t.TempDir()
	r, _ := publishN(t, dir, 1)
	defer r.Close()

	fresh := testArtifact(55)
	freshBlob := r.BlobPath(ArtifactHash(fresh))
	if err := os.WriteFile(freshBlob, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	freshTmp := filepath.Join(dir, blobDirName, "1111.rpm1.tmp-456")
	if err := os.WriteFile(freshTmp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := r.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if len(removed) != 0 {
		t.Fatalf("GC removed fresh files: %v", removed)
	}
	for _, p := range []string{freshBlob, freshTmp} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("fresh file %s gone: %v", p, err)
		}
	}

	// Once aged past the grace window, the same files are garbage.
	backdate(t, freshBlob)
	backdate(t, freshTmp)
	removed, err = r.GC()
	if err != nil {
		t.Fatalf("second GC: %v", err)
	}
	if len(removed) != 2 {
		t.Fatalf("aged GC removed %v, want both planted files", removed)
	}
}

// TestGCConcurrentWithPublish is the regression test for the GC/Publish
// race: with the grace window disabled, a GC sweeping between a
// publisher's blob rename and its record index would delete the live
// blob and strand the manifest record. The pubMu serialization makes
// every published artifact survive an adversarial GC loop.
func TestGCConcurrentWithPublish(t *testing.T) {
	saved := gcGrace
	gcGrace = 0
	defer func() { gcGrace = saved }()

	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.GC(); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()
	var pubWg sync.WaitGroup
	for i := 1; i <= n; i++ {
		pubWg.Add(1)
		go func(v int) {
			defer pubWg.Done()
			art := testArtifact(v)
			if _, err := r.Publish(art, Record{Version: int64(v), ModelHash: ArtifactHash(art)}); err != nil {
				t.Errorf("publish %d: %v", v, err)
			}
		}(i)
	}
	pubWg.Wait()
	close(stop)
	wg.Wait()

	// Every published artifact must still be present and verifiable.
	rep, err := r.Verify()
	if err != nil {
		t.Fatalf("Verify after concurrent GC: %v", err)
	}
	if rep.Records != n || rep.Blobs != n {
		t.Fatalf("Verify report = %+v, want %d records and blobs", rep, n)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPublishRejectsNegativeFields pins the encode-side invariant: a
// record decodeBody would refuse must be rejected at Publish, never
// written — a sealed-but-undecodable frame would brick the next Open.
func TestPublishRejectsNegativeFields(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	art := testArtifact(1)
	sum := ArtifactHash(art)
	bad := []Record{
		{Version: -1, ModelHash: sum},
		{Version: 1, ModelHash: sum, Watermark: -8},
		{Version: 1, ModelHash: sum, Points: -2},
		{Version: 1, ModelHash: sum, Clusters: -1},
		{Version: 1, ModelHash: sum, Bytes: -64},
		{Version: 1, ModelHash: sum, FitNs: -1000},
	}
	for i, rec := range bad {
		if _, err := r.Publish(art, rec); err == nil {
			t.Fatalf("case %d: Publish accepted negative field in %+v", i, rec)
		}
	}
	if recs := r.Records(); len(recs) != 0 {
		t.Fatalf("rejected publishes appended %d records", len(recs))
	}
	// The ledger is unpolluted: a clean publish works and the registry
	// reopens without complaint.
	if _, err := r.Publish(art, Record{Version: 1, ModelHash: sum}); err != nil {
		t.Fatalf("clean publish after rejections: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if len(r2.Records()) != 1 {
		t.Fatalf("reopened ledger has %d records, want 1", len(r2.Records()))
	}
}

// TestLegacyImport: Open over a PR 9 style model dir (bare
// model-<v>-<hash>.rpm1 files) imports every valid artifact in version
// order with chained parents, so Head() resolves the newest valid one.
func TestLegacyImport(t *testing.T) {
	dir := t.TempDir()
	a1, a2 := testArtifact(1), testArtifact(2)
	h1, h2 := ArtifactHash(a1), ArtifactHash(a2)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("model-1-%016x.rpm1", h1)), a1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("model-2-%016x.rpm1", h2)), a2, 0o644); err != nil {
		t.Fatal(err)
	}
	// An invalid artifact is skipped.
	if err := os.WriteFile(filepath.Join(dir, "model-3-ffffffffffffffff.rpm1"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("imported %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].Version != 1 || recs[1].Version != 2 || recs[1].Parent != h1 {
		t.Fatalf("import order/lineage wrong: %+v", recs)
	}
	head, ok := r.Head()
	if !ok || head.Version != 2 || head.ModelHash != h2 {
		t.Fatalf("Head = %+v, %v; want imported version 2", head, ok)
	}
	if blob, err := r.Blob(h2); err != nil || !bytes.Equal(blob, a2) {
		t.Fatalf("imported blob mismatch: %v", err)
	}
	if rep, err := r.Verify(); err != nil || rep.Records != 2 {
		t.Fatalf("Verify = %+v, %v", rep, err)
	}

	// Reopen must NOT re-import (manifest is no longer empty).
	r.Close()
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if len(r2.Records()) != 2 {
		t.Fatalf("reopen re-imported: %d records", len(r2.Records()))
	}
}

// TestConcurrentPublishBatches hammers Publish from many goroutines and
// proves the batched appender serialises every record durably with an
// unbroken chain.
func TestConcurrentPublishBatches(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			art := testArtifact(v)
			if _, err := r.Publish(art, Record{Version: int64(v), ModelHash: ArtifactHash(art)}); err != nil {
				t.Errorf("publish %d: %v", v, err)
			}
		}(i)
	}
	wg.Wait()
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if got := len(r2.Records()); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	seen := make(map[int64]bool)
	for _, rec := range r2.Records() {
		seen[rec.Version] = true
	}
	if len(seen) != n {
		t.Fatalf("duplicate/missing versions: %d distinct", len(seen))
	}
	if rep, err := r2.Verify(); err != nil || rep.Records != n {
		t.Fatalf("Verify = %+v, %v", rep, err)
	}
}

// TestConcurrentPublishSyncInterleaved mixes Sync barriers into the
// publish hammer: every goroutine publishes then syncs, so flush
// requests land between frames in the append queue at every possible
// interleaving. Order must survive — the chain walked from disk has to
// match frame order exactly (the original channel-based queue could
// enqueue frames out of chain order between mu release and send).
func TestConcurrentPublishSyncInterleaved(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 48
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			art := testArtifact(v)
			if _, err := r.Publish(art, Record{Version: int64(v), ModelHash: ArtifactHash(art)}); err != nil {
				t.Errorf("publish %d: %v", v, err)
				return
			}
			if err := r.Sync(); err != nil {
				t.Errorf("sync %d: %v", v, err)
			}
		}(i)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if rep, err := r2.Verify(); err != nil || rep.Records != n {
		t.Fatalf("Verify = %+v, %v; want %d records", rep, err, n)
	}
}

func TestOpenRejectsPathologies(t *testing.T) {
	t.Run("head without manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, headName), encodeHead(2, 12345), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir); err == nil {
			r.Close()
			t.Fatal("Open accepted HEAD sealing records with no manifest")
		}
	})
	t.Run("bad manifest magic", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("NOPE"), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir); err == nil {
			r.Close()
			t.Fatal("Open accepted bad magic")
		}
	})
	t.Run("publish rejects wrong hash", func(t *testing.T) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		art := testArtifact(1)
		if _, err := r.Publish(art, Record{Version: 1, ModelHash: ArtifactHash(art) + 1}); err == nil {
			t.Fatal("Publish accepted mismatched address")
		}
		if _, err := r.Publish([]byte("tiny"), Record{Version: 1}); err == nil {
			t.Fatal("Publish accepted non-artifact")
		}
	})
	t.Run("oversized tag", func(t *testing.T) {
		dir := t.TempDir()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		art := testArtifact(1)
		long := make([]byte, maxTagLen+1)
		if _, err := r.Publish(art, Record{Version: 1, ModelHash: ArtifactHash(art), Tag: string(long)}); err == nil {
			t.Fatal("Publish accepted oversized tag")
		}
	})
}

// TestAccessorMissesAndClosedPaths pins the not-found and after-Close
// contracts: every index lookup misses cleanly on an empty registry,
// Publish after Close fails, Sync and Verify after Close still answer
// (Verify reads from disk), and on-disk truncation AFTER a successful
// open is still caught by Verify's re-read.
func TestAccessorMissesAndClosedPaths(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dir() != dir {
		t.Fatalf("Dir = %q, want %q", r.Dir(), dir)
	}
	if _, ok := r.ByVersion(1); ok {
		t.Fatal("empty registry resolved a version")
	}
	if _, ok := r.ByHash(1); ok {
		t.Fatal("empty registry resolved a hash")
	}
	if _, ok := r.ByTag("x"); ok {
		t.Fatal("empty registry resolved a tag")
	}
	if _, err := r.Blob(1); err == nil {
		t.Fatal("empty registry served a blob")
	}
	if removed, err := r.GC(); err != nil || len(removed) != 0 {
		t.Fatalf("GC on empty registry = %v, %v", removed, err)
	}

	// A parent outside the ledger is legal lineage (a -model boot fit) and
	// counted, not rejected.
	art := testArtifact(1)
	sum := ArtifactHash(art)
	if _, err := r.Publish(art, Record{Version: 1, ModelHash: sum, Parent: 0xfeed, Watermark: 8}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExternalParents != 1 {
		t.Fatalf("ExternalParents = %d, want 1", rep.ExternalParents)
	}
	if p := r.BlobPath(sum); p != filepath.Join(dir, "blobs", fmt.Sprintf("%016x.rpm1", sum)) {
		t.Fatalf("BlobPath = %q", p)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.Publish(art, Record{Version: 2, ModelHash: sum}); err == nil {
		t.Fatal("Publish accepted after Close")
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("Verify after Close: %v", err)
	}

	// Truncate the sealed manifest on disk: the handle's index still
	// answers, but Verify re-reads the file and must refuse.
	manifest := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(); err == nil {
		t.Fatal("Verify accepted a truncated on-disk manifest")
	}
}

func TestParseFormatHash(t *testing.T) {
	h := uint64(0xdeadbeefcafe1234)
	s := FormatHash(h)
	if s != "fnv1a:deadbeefcafe1234" {
		t.Fatalf("FormatHash = %q", s)
	}
	for _, in := range []string{s, "deadbeefcafe1234"} {
		got, err := ParseHash(in)
		if err != nil || got != h {
			t.Fatalf("ParseHash(%q) = %016x, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "xyz", "fnv1a:123", "fnv1a:zzzzzzzzzzzzzzzz"} {
		if _, err := ParseHash(bad); err == nil {
			t.Fatalf("ParseHash(%q) accepted", bad)
		}
	}
}

// TestRecordRoundTrip pins the canonical record encoding: decode(encode)
// is identity and re-encoding reproduces identical bytes.
func TestRecordRoundTrip(t *testing.T) {
	rec := Record{
		Version: 42, ModelHash: 0xabc, Parent: 0xdef, Watermark: 1000,
		ConfigSum: 0x123, Points: 5000, Clusters: 7, Bytes: 65536,
		FitNs: 1e9, Tag: "canary",
	}
	body, err := rec.encodeBody()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("round trip: got %+v want %+v", got, rec)
	}
	body2, _ := got.encodeBody()
	if !bytes.Equal(body, body2) {
		t.Fatal("re-encode not canonical")
	}
}
