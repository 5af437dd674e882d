# Local targets mirror .github/workflows/ci.yml so `make ci` reproduces the
# pipeline exactly.

GO ?= go

.PHONY: build test race perfbench bench fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# perfbench is a separate module that the root ./... patterns never build;
# vet and test it so a root API change cannot break the benchmark unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench runs the smoke benchmarks and regenerates the committed perf
# trajectory record (the same sweep CI uploads as an artifact per commit).
# The go test list carries the paired engine benchmarks: internal/eval's
# batched / single-user / per-item / sort ranking sides and internal/fed's
# dispersal engines and eval+dispersal overlap. -benchmem makes allocation
# regressions visible next to the timings — the fed store/graph benchmarks
# must report 0 allocs/op in steady state (the pin itself is
# TestAbsorbSteadyStateAllocs/TestCollectEdgesSteadyStateAllocs).
# The second ptfbench run appends the huge-1m table, whose full-graph row
# against the production row is the incremental graph engine's
# partial-participation headline — 10 rounds so the stored population
# dwarfs the ~5k participants a round actually changes; CI runs only the
# quick table. The JSON lands in a temp file first so a failed run never
# truncates the committed record.
# -timeout 30m: the root-package table benchmarks take ~10 min on one core,
# right at go test's default 10m kill threshold.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' -timeout 30m . ./internal/eval/ ./internal/fed/
	$(GO) run ./cmd/ptfbench -exp scalability -quick -json > BENCH_scalability.json.tmp
	$(GO) run ./cmd/ptfbench -exp scalability -profile huge-1m -rounds 10 -json >> BENCH_scalability.json.tmp
	mv BENCH_scalability.json.tmp BENCH_scalability.json

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt-check vet build race perfbench bench
