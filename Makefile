GO ?= go

.PHONY: build vet test race parallel-stress bench-smoke crash-matrix fuzz-smoke served-soak verify lint loc bench figures bench-compare

build:
	$(GO) build ./...

# vet also fails on any Go file gofmt would rewrite (dot-directories,
# where the benchmark keeps its build output, are skipped).
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(find . -path './.*' -prune -o -name '*.go' -print))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused stress of the morsel-parallel executor: the randomized
# serial-vs-parallel differential tests, the forced-plan differentials
# (every plan, Workers 1 and 2 among them, must answer as the planned
# one) and the EXPLAIN-vs-executed fan-out check, under the race
# detector.
parallel-stress:
	$(GO) test -race -run 'Parallel|PlannerDifferential|TestExplainFanOutMatchesAnalyze' ./...

# One-iteration benchmark smoke: the scan and drain benchmarks must
# still compile and run (allocation regressions show up here first), and so
# must the nil-tracer overhead benchmark (the <2% budget is asserted
# numerically in internal/obs tests) and the compressed join-input
# benchmark.
bench-smoke:
	$(GO) test -bench='Scan(Copy|Borrow)' -benchtime=1x -run '^$$' ./internal/relstore/
	$(GO) test -bench='Drain' -benchtime=1x -run '^$$' ./internal/bench/
	$(GO) test -bench='NilSpan' -benchtime=1x -run '^$$' ./internal/obs/
	$(GO) test -bench='JoinInput' -benchtime=1x -run '^$$' ./internal/blockzip/

# Durability stress: kill the durable system at every fsync boundary
# (with and without torn tail bytes) and require every survivor to
# recover to an acknowledged-consistent state, under the race detector.
crash-matrix:
	$(GO) test -race -count=1 -run 'TestCrashMatrix|TestRecoveredEqualsContinuous' ./internal/bench/
	$(GO) test -race -count=1 -run 'Crash|Torn|Recover' ./internal/wal/ ./internal/core/

# Short fuzzing pass over every parser/decoder boundary: WAL replay,
# the two query language parsers, BlockZIP codecs and the decoded-block
# cache. Each fuzzer gets a few seconds — enough to catch regressions
# in the seed corpus neighborhood without stalling CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xquery/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime 5s ./internal/blockzip/
	$(GO) test -run '^$$' -fuzz '^FuzzCompressRoundTrip$$' -fuzztime 5s ./internal/blockzip/
	$(GO) test -run '^$$' -fuzz '^FuzzColumnarRoundTrip$$' -fuzztime 10s ./internal/blockzip/
	$(GO) test -run '^$$' -fuzz '^FuzzBlockCacheRoundTrip$$' -fuzztime 10s ./internal/blockzip/

# Served-replica soak: N runs of the benchmark's served-replica
# workload (seed 1, 10 s, untraced), each printed with its exit code and
# first error; fails if any run failed. A retention or replication
# regression that fails one run in several shows here.
N ?= 10
served-soak:
	@failed=0; for i in $$(seq 1 $(N)); do \
		out="$$(bash benchmark/run.sh --workload served-replica --seed 1 --seconds 10 --trace 0 2>&1)"; code=$$?; \
		err="$$(printf '%s\n' "$$out" | sed -n 's/^.* first_error //p' | head -n 1)"; \
		echo "served-soak run $$i/$(N): exit $$code first_error $${err:-none}"; \
		[ "$$code" -eq 0 ] || failed=$$((failed + 1)); \
	done; \
	echo "served-soak: $$failed of $(N) runs failed"; [ "$$failed" -eq 0 ]

# Tier-1 verification: everything must compile, pass vet, and pass the
# full test suite under the race detector (the concurrency layer is
# only considered correct when -race is clean), plus the parallel
# differential stress and the benchmark smoke run. The crash matrix
# runs as part of `race` (it lives in the normal test suite).
verify: build vet race parallel-stress bench-smoke

# Optional linters: run when installed, skip quietly otherwise (the
# build environment is offline; nothing is downloaded).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "lint: govulncheck not installed, skipping"; fi

# Non-test, non-comment, non-blank Go lines per package: the size
# figure simplification work is measured by.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%6d %s\n' "$$(cat $$files | awk '{ sub(/^[ \t]+/, "") } $$0 == "" || /^\/\// { next } { n++ } END { print n + 0 }')" "$$pkg"; \
	done

# The benchmark (four workloads, end-to-end and per-layer metrics);
# see benchmark/README.md.
bench:
	$(GO) run ./benchmark

# The paper's figures and tables (Sections 7-8).
figures:
	$(GO) run ./cmd/archis-bench

# Compare this tree with a committed result set: three runs of every
# workload (medians and quartiles), then BENCHMARK.json's bounds applied
# metric by metric; exits 1 when a metric is worse. Several minutes;
# not part of verify. Output lands outside the repository.
BASE ?= benchmark/results/baseline.json
OUT ?= /tmp/archis-bench-compare
bench-compare:
	mkdir -p $(OUT)
	$(GO) run ./benchmark -repeat 3 -out $(OUT)/change.json
	$(GO) run ./benchmark compare $(BASE) $(OUT)/change.json
