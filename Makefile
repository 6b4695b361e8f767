# Development entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet bench bench-paper fuzz tools experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/engine/ ./internal/core/ ./internal/baselines/... ./internal/serve/... ./internal/pointio/ ./internal/spill/ ./internal/transport/ ./internal/registry/ ./cmd/rpserve/ ./cmd/rpdbscan/ ./cmd/rpmodel/

vet:
	$(GO) vet ./...

# One testing.B benchmark per paper table/figure plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate every table and figure at full scale (takes ~15 minutes;
# writes SVGs for Figures 16 and 18 into ./artifacts).
experiments:
	mkdir -p artifacts
	$(GO) run ./cmd/rpbench -n 20000 -density 20 -svgdir artifacts all

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/dict/
	$(GO) test -fuzz FuzzQueryCellEquivalence -fuzztime 30s ./internal/dict/
	$(GO) test -fuzz FuzzReadCSV -fuzztime 15s ./internal/pointio/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 15s ./internal/pointio/
	$(GO) test -fuzz FuzzChunkReader -fuzztime 30s ./internal/pointio/
	$(GO) test -fuzz FuzzModelDecode -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzPredictRequest -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzIngestRequest -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzManifestDecode -fuzztime 30s ./internal/registry/
	$(GO) test -fuzz FuzzRegistryOpen -fuzztime 30s ./internal/registry/

tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin artifacts
