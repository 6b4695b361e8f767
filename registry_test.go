package rpdbscan_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpdbscan"
)

// fitRegistryModel fits a tiny deterministic clustering and returns the
// model plus its artifact bytes.
func fitRegistryModel(t *testing.T) (*rpdbscan.Model, []byte) {
	t.Helper()
	points := [][]float64{
		{1, 1}, {1.1, 1}, {0.9, 1.1}, {1, 0.9},
		{-1, -1}, {-1.1, -0.9}, {-0.9, -1}, {9, 9},
	}
	opts := rpdbscan.Options{Eps: 0.5, MinPts: 2, Partitions: 2, Workers: 2, Seed: 1}
	res, err := rpdbscan.Cluster(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestModelRegistryImportsLegacyDir: a directory holding only a legacy
// versioned artifact (model-<version>-<hash>.rpm1, the pre-registry
// layout) imports on open, resolves as Head with its version and hash,
// serves the same model by hash and version, and passes a full verify.
func TestModelRegistryImportsLegacyDir(t *testing.T) {
	m, art := fitRegistryModel(t)
	dir := t.TempDir()
	hex := strings.TrimPrefix(m.Checksum(), "fnv1a:")
	legacy := filepath.Join(dir, fmt.Sprintf("model-7-%s.rpm1", hex))
	if err := os.WriteFile(legacy, art, 0o644); err != nil {
		t.Fatal(err)
	}

	reg, err := rpdbscan.OpenModelRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	head, ok := reg.Head()
	if !ok {
		t.Fatal("registry empty after legacy import")
	}
	if head.Version != 7 || head.Hash != m.Checksum() {
		t.Fatalf("head = %+v, want version 7 hash %s", head, m.Checksum())
	}
	for name, load := range map[string]func() (*rpdbscan.Model, error){
		"by_hash":    func() (*rpdbscan.Model, error) { return reg.Model(head.Hash) },
		"by_version": func() (*rpdbscan.Model, error) { return reg.ModelAt(7) },
	} {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Checksum() != m.Checksum() {
			t.Fatalf("%s checksum %s, want %s", name, got.Checksum(), m.Checksum())
		}
		want, err := m.Predict([]float64{1.02, 0.98})
		if err != nil {
			t.Fatal(err)
		}
		if label, err := got.Predict([]float64{1.02, 0.98}); err != nil || label != want {
			t.Fatalf("%s predict = %d (%v), want %d", name, label, err, want)
		}
	}
	audit, err := reg.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if audit.Records != 1 || audit.Blobs != 1 {
		t.Fatalf("audit = %+v, want 1 record / 1 blob", audit)
	}
	if recs := reg.Records(); len(recs) != 1 || recs[0].Tag != "imported" {
		t.Fatalf("records = %+v, want one record tagged imported", recs)
	}

}

// TestModelRegistryUnknownLookups pins the not-found paths.
func TestModelRegistryUnknownLookups(t *testing.T) {
	reg, err := rpdbscan.OpenModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, ok := reg.Head(); ok {
		t.Fatal("empty registry reports a head")
	}
	if _, err := reg.Model("fnv1a:0123456789abcdef"); err == nil {
		t.Fatal("unknown hash resolved")
	}
	if _, err := reg.ModelAt(1); err == nil {
		t.Fatal("unknown version resolved")
	}
	if _, err := reg.Model("not-a-hash"); err == nil {
		t.Fatal("malformed hash accepted")
	}
}
