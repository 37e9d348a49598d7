GO ?= go

.PHONY: build vet test race parallel-stress bench-smoke trace-smoke planner-smoke crash-matrix fuzz-smoke columnar-smoke mvcc-smoke serve-smoke bitemporal-smoke verify lint bench bench-parallel bench-json bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused stress of the morsel-parallel executor: the randomized
# serial-vs-parallel differential tests, under the race detector.
parallel-stress:
	$(GO) test -race -run Parallel ./...

# One-iteration benchmark smoke: the scan benchmarks must still
# compile and run (allocation regressions show up here first).
bench-smoke:
	$(GO) test -bench='Scan(Copy|Borrow)' -benchtime=1x -run '^$$' ./internal/relstore/

# Observability smoke: run the Q1-Q6 suite under the execution tracer
# on the clustered and compressed layouts; the bench re-parses every
# emitted JSON trace and exits non-zero on a malformed or empty tree.
# The nil-tracer overhead benchmark rides along (1 iteration: must
# compile and run; the <2% budget is asserted numerically in
# internal/obs tests).
trace-smoke:
	$(GO) run ./cmd/archis-bench -employees 120 -years 4 -trace > /dev/null
	$(GO) test -bench='NilSpan' -benchtime=1x -run '^$$' ./internal/obs/

# Planner smoke: the adversarial-selectivity benchmark (fails unless
# the cost model scans at 50% selectivity, probes when selective, and
# the chosen scan beats the forced index probe), plus the EXPLAIN
# golden suite and every planner decision/differential test.
planner-smoke:
	$(GO) run ./cmd/archis-bench -adversarial /tmp/archis-planner-adversarial.json
	$(GO) test -count=1 -run 'TestExplain|TestPlanner|TestIndexProbe' ./internal/bench/ ./internal/sqlengine/

# Columnar smoke: the columnar-vs-rowblob gate at scale 32 (the 10x
# dataset): cold Q2/Q4/Q6 on the compressed layout must run vectorized,
# beat the legacy row-in-blob encoding by >= 2x min latency over
# interleaved pairs, return identical answers, and take no more disk.
# JSON evidence lands in /tmp. The columnar codec/differential tests
# ride along.
columnar-smoke:
	$(GO) run ./cmd/archis-bench -scale 32 -columnargate /tmp/archis-columnar-gate.json
	$(GO) test -count=1 -run 'Columnar' ./internal/blockzip/ ./internal/bench/ ./internal/relstore/

# MVCC smoke: the mixed workload (concurrent ingest + Q1-Q6 readers +
# background compaction) must complete with zero reader errors and a
# running compactor on both layouts (the bench exits non-zero
# otherwise), and the snapshot-consistency differential — every
# pinned-reader and ReadAsOf answer equal to the serial answer at its
# LSN, all layouts, serial and morsel-parallel, columnar on and off —
# plus the maintenance early-exit and concurrent-crash tests run under
# the race detector.
mvcc-smoke:
	$(GO) run ./cmd/archis-bench -mixed -mixeddur 1s -employees 200 -years 6 -json /tmp/archis-mvcc-mixed.json
	$(GO) test -race -count=1 -run 'TestSnapshotConsistencyDifferential|TestCrashUnderConcurrentReaders' ./internal/bench/
	$(GO) test -race -count=1 -run 'TestCompactEarlyExit|TestCompressFrozenEarlyExit|TestReadAsOfRejects' ./internal/core/

# Served-path smoke: the network front end over a live system. The
# -serve bench measures the handler span against a bare in-process
# loop on warm Q1 and the client round trip under concurrent load;
# the replication differential (follower byte-equals primary on all
# three layouts under live ingest), the fault-injection suite, and
# the server admission/timeout tests ride along under -race.
serve-smoke:
	$(GO) run ./cmd/archis-bench -serve -employees 120 -years 2 -serveclients 4 -servereqs 50 -json /tmp/archis-serve.json
	$(GO) test -race -count=1 ./internal/server/ ./internal/repl/
	$(GO) test -race -count=1 -run 'TestRecoverAsOf|TestApplyReplicated' ./internal/core/

# Bitemporal smoke: the -bitemporal bench (write overhead and the four
# read shapes of DESIGN.md §16 on all three layouts), then the
# randomized ledger differential, the end-to-end valid-time path, the
# legacy-archive compat test, and the interval-algebra property tests,
# under the race detector.
bitemporal-smoke:
	$(GO) run ./cmd/archis-bench -bitemporal -bitempentities 80 -bitempversions 6 -json /tmp/archis-bitemporal.json
	$(GO) test -race -count=1 -run 'TestBitemporal|TestLegacyArchiveCompat|TestSlowQueryRecordRuneBoundary|TestServeErrorPathsDrainPinnedReaders' ./internal/core/ ./internal/htable/ ./internal/server/
	$(GO) test -race -count=1 -run 'TestInterval|TestApplyAssertions|TestCoalesce' ./internal/temporal/

# Durability stress: kill the durable system at every fsync boundary
# (with and without torn tail bytes) and require every survivor to
# recover to an acknowledged-consistent state, under the race detector.
crash-matrix:
	$(GO) test -race -count=1 -run 'TestCrashMatrix|TestRecoveredEqualsContinuous' ./internal/bench/
	$(GO) test -race -count=1 -run 'Crash|Torn|Recover' ./internal/wal/ ./internal/core/

# Short fuzzing pass over every parser/decoder boundary: WAL replay,
# the two query language parsers, and BlockZIP codecs. Each fuzzer gets
# a few seconds — enough to catch regressions in the seed corpus
# neighborhood without stalling CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/xquery/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/sqlengine/
	$(GO) test -run '^$$' -fuzz FuzzDecompress -fuzztime 5s ./internal/blockzip/
	$(GO) test -run '^$$' -fuzz FuzzColumnarRoundTrip -fuzztime 10s ./internal/blockzip/

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

bench:
	$(GO) run ./cmd/archis-bench

bench-parallel:
	$(GO) run ./cmd/archis-bench -parallel

# Machine-readable Q1-Q6 timing records (serial vs parallel) for
# cross-commit regression diffing.
bench-json:
	$(GO) run ./cmd/archis-bench -json BENCH_$(shell date +%Y%m%dT%H%M%S).json

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
