GO ?= go

.PHONY: all build vet test race race-short bench check smoke fuzz

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on catches inter-test state leaks; seeds are reported on failure.
test:
	$(GO) test -shuffle=on ./...

# Full race run over every package.
race:
	$(GO) test -race ./...

# Quick race pass over the concurrent paths (acquisition worker pool,
# the parallel attack engine and its differential bit-identity suite,
# the prefetch pipeline, and the statistics merge operations).
race-short:
	$(GO) test -race -short -shuffle=on -run 'Acquire|Stream|Corpus|Pool|Breaker|Clock|Differential|Parallel|Merge|Prefetch' ./internal/tracestore ./internal/core ./internal/supervise ./internal/faultinject ./internal/cpa

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# End-to-end crash-recovery smoke: tracegen -> kill -> resume -> attack
# (byte-identical resume, quarantined recovery, exit codes).
smoke:
	GO="$(GO)" ./scripts/smoke.sh

# Short randomized passes over the fuzz targets: corpus parsing and the
# signature codec (canonicality + malformed-encoding rejection).
fuzz:
	$(GO) test -fuzz FuzzOpen -fuzztime 30s ./internal/tracestore
	$(GO) test -fuzz FuzzSignatureCodec -fuzztime 30s ./internal/codec
	$(GO) test -fuzz FuzzMatrixEngineState -fuzztime 30s ./internal/cpa

check: build vet test race-short
