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

# Full race run over every package. internal/core alone takes 665-713 s
# under -race on 2 vCPUs, past go test's default 10-minute per-package
# timeout, so the timeout is explicit, with headroom.
race:
	$(GO) test -race -timeout 30m ./...

# Quick race pass over the concurrent paths (the acquisition pipeline and
# the supervised pool on top of it, the parallel attack engine with its
# in-place and parked-partial fold paths and its differential bit-identity
# suite, the exponent fold's scratch ownership and the recycled-partial
# check, whose jobs carry reusable scratch that parallel tiles and fleet
# clones must not share, the prefetch pipeline, the shard walker's
# transient retry at one and two workers, and the statistics merge
# operations). The fused-fold battery TestFusedFoldMatchesObserveMerge
# runs on one goroutine, so the race detector has nothing to check there;
# the -run terms FoldOwnsItsScratch, Merge[A-Z] and StatsMerge leave it
# out, and it runs in make test and make race.
race-short:
	$(GO) test -race -short -shuffle=on -run 'Acquire|Stream|Corpus|Pool|Breaker|Clock|Differential|Parallel|FoldOwnsItsScratch|Recycled|Merge[A-Z]|StatsMerge|Prefetch|Transient' ./internal/tracestore ./internal/core ./internal/supervise ./internal/faultinject ./internal/cpa

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
