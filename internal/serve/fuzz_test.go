package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"rpdbscan/internal/frame"
)

// FuzzModelDecode checks that Decode never panics, never over-allocates on
// hostile length fields, and never accepts an artifact that fails to
// round-trip byte-identically. The checksum gate would swallow nearly
// every mutation, so each input is also tried resealed (checksum patched
// to match the mutated body) to exercise the parser behind the gate —
// same convention as internal/dict's FuzzDecode.
func FuzzModelDecode(f *testing.F) {
	// A deliberately small model: Decode cost scales with the artifact, and
	// a lean seed keeps the instrumented exec rate high.
	valid := fit(f, blobPoints(rand.New(rand.NewSource(3)), 40, 2), 0.3, 4).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:modelHeaderLen])
	f.Add([]byte("RPM1"))
	f.Add([]byte("RPD2")) // dictionary magic: must be rejected, not parsed
	f.Add([]byte{})
	mut := bytes.Clone(valid)
	mut[checksumStart+2] ^= 0xff // dim field
	f.Add(mut)
	f.Add(Reseal(bytes.Clone(mut)))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, buf := range [][]byte{data, Reseal(bytes.Clone(data))} {
			m, err := Decode(buf)
			if err != nil {
				continue // rejected input is fine; panics are not
			}
			if enc := m.Encode(); !bytes.Equal(enc, buf) {
				t.Fatalf("accepted artifact is not canonical: %d bytes in, %d out", len(buf), len(enc))
			}
			if m.Checksum() != frame.Sum64(buf[checksumStart:]) {
				t.Fatalf("accepted artifact's checksum %016x is not its body's", m.Checksum())
			}
			// An accepted model must be servable: predicting the origin
			// must not panic (dimension is validated, coords are finite).
			if _, err := m.Predict(make([]float64, m.Dim())); err != nil {
				t.Fatalf("accepted model cannot predict: %v", err)
			}
		}
	})
}

// FuzzPredictRequest throws arbitrary bodies at the two POST endpoints:
// the handler must never panic and must always answer canonical,
// newline-terminated JSON with a status from the documented set.
func FuzzPredictRequest(f *testing.F) {
	h := NewServer(testModel(f), ServerConfig{MaxBodyBytes: 1 << 16, MaxBatch: 64}).Handler()
	f.Add("/predict", `{"point":[0.5,0.5]}`)
	f.Add("/predict", `{"point":[]}`)
	f.Add("/predict", `{"point":null}`)
	f.Add("/predict", `{"point":[1e309]}`)
	f.Add("/predict", `{"point":[NaN]}`)
	f.Add("/predict", `{"pt":[1,2]}`)
	f.Add("/predict", `{"point":[1,2]}{"point":[3,4]}`)
	f.Add("/predict/batch", `{"points":[[0.1,0.2],[3,4]]}`)
	f.Add("/predict/batch", `{"points":[[1]]}`)
	f.Add("/predict/batch", `{"points":[]}`)
	f.Add("/predict", ``)
	f.Add("/predict/batch", `[`)

	f.Fuzz(func(t *testing.T, path, body string) {
		if path != "/predict" && path != "/predict/batch" {
			path = "/predict"
		}
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q", w.Code, body)
		}
		out := w.Body.Bytes()
		if !bytes.HasSuffix(out, []byte("\n")) {
			t.Fatalf("response not newline-terminated: %q", out)
		}
		if !json.Valid(out) {
			t.Fatalf("response is not valid JSON: %q", out)
		}
	})
}

// FuzzIngestRequest throws arbitrary bodies at the online /ingest
// endpoint: the handler must never panic, must answer canonical
// newline-terminated JSON with a documented status, and — the invariant
// the buffer depends on — must never let a rejected request change the
// ingested total. A high watermark keeps refits out of the loop, so every
// execution exercises validation, not clustering.
func FuzzIngestRequest(f *testing.F) {
	r, err := NewRefitter(RefitConfig{
		Watermark: 1 << 40, // never crossed: fuzzing validates ingest, not refit
		Eps:       0.3, MinPts: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { r.Close() })
	h := NewServer(nil, ServerConfig{MaxBodyBytes: 1 << 16, MaxBatch: 64, Refitter: r}).Handler()

	f.Add(`{"point":[0.5,0.5]}`)
	f.Add(`{"points":[[1,2],[3,4]]}`)
	f.Add(`{"point":[1,2],"points":[[3,4]]}`)
	f.Add(`{"points":[]}`)
	f.Add(`{"points":[[1,2],[3]]}`)
	f.Add(`{"point":[1e309]}`)
	f.Add(`{"point":[NaN]}`)
	f.Add(`{"point":null}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`{"point":[1,2]}{"point":[3,4]}`)

	f.Fuzz(func(t *testing.T, body string) {
		before := r.Buffer().Total()
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader([]byte(body)))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q", w.Code, body)
		}
		out := w.Body.Bytes()
		if !bytes.HasSuffix(out, []byte("\n")) {
			t.Fatalf("response not newline-terminated: %q", out)
		}
		if !json.Valid(out) {
			t.Fatalf("response is not valid JSON: %q", out)
		}
		if w.Code != http.StatusOK && r.Buffer().Total() != before {
			t.Fatalf("rejected request grew the buffer: %d -> %d points (body %q)",
				before, r.Buffer().Total(), body)
		}
	})
}
