# Tier-1 verification plus the race-enabled CI loop for the C4
# reproduction. `make ci` is the one-command gate: lint (gofmt + vet +
# the c4vet determinism-lint suite) + build + the full test suite, then
# the short suite again under the race detector (which also proves the
# parallel scenario and campaign runners share no state), the smoke
# trials, every benchmark once (bench), and the EXPERIMENTS.md guard
# (experiments-check). The GitHub workflow (.github/workflows/ci.yml)
# runs the same targets plus the bench-regression guard and a coverage
# report, so local and CI gates agree.

GO ?= go
SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: all build vet c4vet lint fmt-check test test-race fuzz-smoke \
	tenancy-smoke telemetry-smoke plan-smoke serve-smoke trace-smoke \
	campaign-smoke perf-check docker \
	ci bench experiments experiments-check bench-baseline bench-check cover clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The determinism-lint suite (internal/analysis via cmd/c4vet): the
# replay invariants that have each shipped as a real bug before —
# map-order float accumulation, wall-clock reads in simulation packages,
# process-global randomness, swallowed telemetry errors, severed
# Contexts — plus the deprecated-API gate. Zero unsuppressed findings or
# the build fails; suppress per line with `//c4vet:allow <name> <reason>`
# (reason mandatory, unused directives are themselves findings).
c4vet:
	$(GO) run ./cmd/c4vet ./...

# The blocking first gate, locally and in CI: formatting, stock vet
# passes (copylocks, lostcancel, ...), then the c4vet suite.
lint: fmt-check vet c4vet

# Fast formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full tier-1 suite: every scenario's shape check plus the byte-identical
# serial-vs-parallel replay comparison.
test:
	$(GO) test ./...

# Short suite under the race detector: slow sweeps are skipped, every
# other scenario still runs twice (serially and on the worker pool).
test-race:
	$(GO) test -race -short ./...

# Ten seconds of coverage-guided fuzzing per target. The network kernel:
# random flow/link operation sequences on the testbed fabric, where the
# class kernel must replay the per-flow oracle bit for bit and every
# allocation must pass the max-min certificate. The
# telemetry stream reader: random JSONL, where the line scanner must agree
# with encoding/json, ReadStream with an encoding/json-only reader, and
# every record must re-encode and read back unchanged. The campaign
# manifest reader: random bytes, where only one JSON document with nothing
# after it may be accepted, and an accepted manifest must re-read from its
# own encoding with the same hash. The campaign partial and merged
# artifact readers: random bytes, where likewise only one JSON document
# may be accepted, and an accepted artifact must re-read from its own
# WriteJSON output as an equal value. The session spec: random POST
# /v1/sessions bodies through NewSession (and with them the trace and
# strategy parsers), which must never panic and may accept only specs
# inside the creation bounds. The trace reader: random bytes, where an
# accepted trace must write back with WriteChrome and re-read to equal
# spans, and the profile and every critical-path walk must return. The
# bench-report reader: random bytes, where only one JSON document of
# known keys naming each scenario once may be accepted, and an accepted
# report must re-read from its own WriteJSON output as an equal value.
# The c4vet allow-directive parser: random comment text, where a comment
# is a directive exactly when it is //c4vet:allow followed by nothing, a
# space or a tab, and is well-formed exactly when a known analyzer and a
# reason follow. The stream reader is also the one archive reader: `c4
# replay` and `c4 analyze` both read telemetry streams. Plain `go test`
# already replays the committed seed corpora (testdata/fuzz/ in each
# package).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzClassKernelAgainstOracle -fuzztime 10s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz FuzzReadStream -fuzztime 10s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzReadManifest -fuzztime 10s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz FuzzReadPartial -fuzztime 10s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz FuzzReadMerged -fuzztime 10s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz FuzzNewSession -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzParseChrome -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadBenchReport -fuzztime 10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz FuzzAllowDirective -fuzztime 10s ./internal/analysis/

# One small multi-tenant churn trial through the registry: Poisson job
# arrivals/departures on a shared fabric, with the shape check asserting
# every tenant made progress. Fast enough to run on every CI push.
tenancy-smoke:
	$(GO) run ./cmd/c4 bench -only tenancy/churn

# The streaming-telemetry race through the registry: online detector vs
# batch C4D on three fault archetypes, with the shape check asserting the
# online time-to-detect strictly beats batch for every fault.
telemetry-smoke:
	$(GO) run ./cmd/c4 bench -only online/detection-latency

# The training-iteration planner through the registry: a compiled 1F1B
# schedule with bucketed gradient sync, overlap on vs off, with the shape
# check asserting overlap strictly reduces exposed communication.
plan-smoke:
	$(GO) run ./cmd/c4 bench -only plan/overlap-ablation

# The serving-plane e2e: boot the `c4 serve` daemon on an in-process
# loopback listener, drive one session over real HTTP + SSE, and diff the
# streamed telemetry byte-for-byte against the one-shot -telemetry-out
# path (plus exact metric equality). Hermetic: no curl, no fixed port.
serve-smoke:
	$(GO) run ./cmd/c4 serve -smoke

# The tracing e2e: run a short planned session with -trace-out, then
# validate the exported Chrome trace with `c4 trace -check` (parses, has
# spans, yields a critical path from every iteration root). Proves the
# `c4 sim` flag, the session tracer wiring, the exporter and the parser
# against each other on every CI push.
trace-smoke:
	$(GO) run ./cmd/c4 sim -plan tp8/pp2/dp2/ga2 -plan-iters 2 -trace-out TRACE_smoke.json > /dev/null
	$(GO) run ./cmd/c4 trace -check TRACE_smoke.json
	$(GO) run ./cmd/c4 trace TRACE_smoke.json > /dev/null
	@rm -f TRACE_smoke.json

# The campaign-subsystem e2e: run the committed smoke manifest twice —
# serially and as two shards with checkpoints — merge both paths and
# require byte-identical reports (cmp), then validate with `c4 campaign
# check`. Proves the manifest/shard/merge determinism contract on every
# CI push.
campaign-smoke:
	$(GO) run ./cmd/c4 campaign run -manifest campaigns/smoke.json -out CAMP_serial.json
	$(GO) run ./cmd/c4 campaign run -manifest campaigns/smoke.json -shard 0/2 -checkpoint CAMP_s0.ckpt -out CAMP_p0.json
	$(GO) run ./cmd/c4 campaign run -manifest campaigns/smoke.json -shard 1/2 -checkpoint CAMP_s1.ckpt -out CAMP_p1.json
	$(GO) run ./cmd/c4 campaign merge -manifest campaigns/smoke.json -check -out CAMP_merged_serial.json CAMP_serial.json > /dev/null
	$(GO) run ./cmd/c4 campaign merge -manifest campaigns/smoke.json -check -out CAMP_merged.json CAMP_p0.json CAMP_p1.json > /dev/null
	cmp CAMP_merged_serial.json CAMP_merged.json
	$(GO) run ./cmd/c4 campaign check -manifest campaigns/smoke.json CAMP_merged.json
	@rm -f CAMP_serial.json CAMP_p0.json CAMP_p1.json CAMP_merged_serial.json CAMP_merged.json CAMP_s0.ckpt CAMP_s1.ckpt

# The host-time benchmark's gate. bench/perf is a module of its own (its
# go.mod replaces c4 => ../..), so the root ./... patterns above skip it:
# vet, test and c4vet it here. Its tests run every workload at tiny size
# and re-check the committed bench/baseline.json at seed 1, so a baseline
# re-pin that disagrees with the code fails this target.
perf-check:
	cd bench/perf && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/c4vet -C bench/perf ./...

# Container image for the daemon (requires docker; CI runs it on push).
docker:
	docker build -t c4:$(SHA) .

ci: lint build test test-race bench fuzz-smoke tenancy-smoke telemetry-smoke plan-smoke serve-smoke trace-smoke campaign-smoke perf-check experiments-check

# Every registry scenario (BenchmarkScenarios, one sub-benchmark per row
# under its registry name) and the microbenchmarks, with allocations
# reported, including the incremental-vs-full-recompute pair (internal/telemetry:
# BenchmarkIncrementalObserve vs BenchmarkBatchAnalyzePass) behind the
# online/scale-sweep scenario, the JSONL codec (internal/telemetry:
# BenchmarkReadStream over a 10,000-record stream, BenchmarkEncodeRecord
# per record), the network-kernel set (internal/netsim:
# the per-flow test oracle BenchmarkRecomputePerFlow vs the flow-class
# kernel BenchmarkRecomputeAggregated, plus BenchmarkRecomputeAggregated128
# at the netsim/scale-sweep shape of 128 flows per chain, and
# BenchmarkSettle), the iteration executor (internal/plan:
# BenchmarkExecIter on a stub fabric at Fig 14 Job1's TP8×DP16 and Job3's
# TP8/PP8/DP2/GA16 shapes), the engine (internal/sim: BenchmarkSchedulePop,
# BenchmarkReschedule, BenchmarkPost) and one warm collective
# (internal/accl: BenchmarkRingAllReduce). At -benchtime 1x this is a smoke
# test, and `make ci` and the CI test job run it so that a benchmark that
# panics or fails its own check is caught; measure with, for example,
# `go test -bench . -count 5 -cpu 2`.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

# Regenerate the paper-vs-measured table from a full registry sweep.
experiments:
	$(GO) run ./cmd/c4 bench -md > EXPERIMENTS.md

# Paper-table guard: the committed EXPERIMENTS.md must equal a fresh
# `c4 bench -md` byte for byte, and `diff -u` prints each row that moved.
# Run `make experiments` when a change to the tables is intended.
experiments-check:
	@mkdir -p .bench_build
	$(GO) run ./cmd/c4 bench -md > .bench_build/EXPERIMENTS.md
	diff -u EXPERIMENTS.md .bench_build/EXPERIMENTS.md

# Bench-regression guard. Every tracked scenario metric is deterministic,
# so the committed baseline (bench/baseline.json) pins behavior exactly:
# the fresh report must equal it byte for byte, and `diff -u` of the two
# pretty-printed reports prints each metric that moved. Regenerate the
# baseline when a change is intended.
bench-baseline:
	$(GO) run ./cmd/c4 bench -json > bench/baseline.json

bench-check:
	@mkdir -p .bench_build
	$(GO) run ./cmd/c4 bench -json > .bench_build/bench-check.json
	diff -u bench/baseline.json .bench_build/bench-check.json

# Coverage gate: the profile plus a blocking floor on total statement
# coverage. Raise the floor when coverage improves; never lower it to
# sneak a PR through.
COVER_FLOOR ?= 72
cover:
	$(GO) test -short -covermode=atomic -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{gsub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

clean:
	$(GO) clean ./...
	rm -f cover.out BENCH_*.json .bench_build/bench-check.json .bench_build/EXPERIMENTS.md TRACE_smoke.json CAMP_*.json CAMP_*.ckpt
