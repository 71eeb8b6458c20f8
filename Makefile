# Repo convention: `make check` is the pre-commit gate — formatting,
# vet, build, the full test suite, repolint (the repo's determinism &
# ownership contracts as static-analysis passes), and the sweep engine
# under the race detector. Tier-1 (the driver's gate) is build + test.

GO ?= go

.PHONY: check fmt vet build test test-times lint loc race fuzz serve-smoke bench bench-check benchfull experiments benchmark benchmark-test benchmark-compare

# Inside `make check`, a missing-dependency lint probe downgrades to a
# loud skip (exit 0) so the rest of the gate still runs; standalone
# `make lint` keeps the hard failure.
check: LINT_MISSING_DEPS_EXIT = 0
check: fmt vet build test benchmark-test lint race serve-smoke fuzz

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Where tier-1's wall time goes: `go test -json ./...` folded to the 15
# slowest top-level tests (subtests are inside their parent's time),
# package-qualified, slowest first. A report, not a gate — the pipe
# drops go test's exit status; `make test` is the gate.
test-times:
	@$(GO) test -json ./... | awk -F'"' '$$6 == "Action" && ($$8 == "pass" || $$8 == "fail") && $$14 == "Test" && $$16 !~ "/" { \
		sub(/^:/, "", $$19); sub(/}.*/, "", $$19); printf "%8.2f s  %s:%s\n", $$19, $$12, $$16 }' | sort -rn | head -15

# repolint: the six contract analyzers (detorder, novtime, singleuse,
# metafreeze, scratchown, vtflow) over the whole module, _test.go files
# included — vtflow is the one interprocedural pass, propagating facts
# bottom-up over the import graph.
# The linter is deliberately stdlib-only — golang.org/x/tools
# cannot be fetched in the offline/hermetic builds this repo targets,
# so internal/lint/analysis mirrors the go/analysis surface instead of
# pinning x/tools in go.mod (see ARCHITECTURE.md). The build probe
# below exists for the day a module dependency creeps back in: if the
# linter can't build because modules are unresolvable offline, fail
# fast with an explicit message (standalone default, exit 1) or skip
# loudly (LINT_MISSING_DEPS_EXIT=0, what `make check` sets) instead of
# dying mid-gate on a cryptic resolution error.
LINT_MISSING_DEPS_EXIT ?= 1
lint:
	@err=$$($(GO) build -o /dev/null ./cmd/repolint 2>&1); status=$$?; \
	if [ $$status -ne 0 ]; then \
		if echo "$$err" | grep -qE 'no required module provides|missing go.sum entry|cannot find module|cannot query module'; then \
			echo "WARNING: repolint's dependencies cannot be resolved in this (offline?) build:" >&2; \
			echo "$$err" >&2; \
			if [ "$(LINT_MISSING_DEPS_EXIT)" = "0" ]; then \
				echo "WARNING: skipping repolint — the determinism/ownership contracts were NOT checked." >&2; \
			else \
				echo "repolint is part of the gate; fix the module graph or run 'make check' for a loud skip." >&2; \
			fi; \
			exit $(LINT_MISSING_DEPS_EXIT); \
		fi; \
		echo "$$err" >&2; exit $$status; \
	fi; \
	$(GO) run ./cmd/repolint ./...

# Non-test LOC per package, the number ROADMAP aim 2 tracks: one line
# per directory under internal/ and cmd/ holding Go source, plain
# `wc -l` over its *.go files minus *_test.go (testdata/ excluded),
# sorted by path. Quote these in CHANGES.md, not hand counts.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} + | sort -u | \
	while read -r d; do \
		printf '%6d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done

# The sweep engine is the only deliberately concurrent code in the
# repo; run it (and the core scratch plumbing it exercises) under the
# race detector. The sweep package's own cells are timing-only, so
# also race-run the experiments goldens, whose cells execute kernels
# functionally in parallel, and the scheduler package itself — its
# pooled buffers and assignment recycling are shared across sweep
# workers, so the policy parity suites run raced too. Since the
# dynamic-platform layer, platevent Schedules are shared read-only
# across grid cells (the churn golden and the corpus event grid race
# that sharing), so platevent itself races too, and the core package
# contributes its zero-event dynamic differential — the full core
# suite under -race is minutes, so the filter mirrors the
# ParallelGolden pattern. workload and stats ride along since the
# repolint PR: replay sources feed RunStream from sweep workers and
# sinks accumulate inside concurrently-executing cells, so both
# packages' suites run raced in full (each is seconds, not minutes).
# The serving layer joins since the daemon PR: admission waiters, the
# snapshot ticker, the progress tally cells fold into, drain, and the
# grid-order emitter are all goroutine-heavy by design. kernels joins
# with its FFT twiddle tables, the package's first shared state: built
# once per size, then read by every executing sweep worker with no lock.
race:
	$(GO) test -race ./internal/sweep/... ./internal/sched/... ./internal/platevent/... ./internal/workload/... ./internal/stats/... ./internal/serve/... ./internal/kernels/...
	$(GO) test -race -run ParallelGolden ./internal/experiments
	$(GO) test -race -run Dynamic ./internal/core

# serve-smoke is the daemon's crash-resume acceptance, run against the
# real binary: SIGKILL mid-sweep, restart over the half-written
# journal, assert zero journaled cells recomputed and byte-identical
# merged output, plus a clean SIGTERM drain (exit 0). The in-process
# halves of the same contracts live in internal/serve's tests; this
# target proves them across a process boundary.
serve-smoke:
	bash scripts/serve_smoke.sh

# Fuzz smoke: each native fuzz target gets a short engine run on top
# of the committed seed corpus (which plain `go test` already replays).
# One target per invocation — go's fuzz engine requires it. 10s each
# keeps the gate fast while still mutating past the seeds.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run NONE -fuzz '^FuzzConvert$$' -fuzztime $(FUZZTIME) ./internal/outliner
	$(GO) test -run NONE -fuzz '^FuzzProgramLowering$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz '^FuzzEventSchedule$$' -fuzztime $(FUZZTIME) ./internal/core

# `make bench` records the perf trajectory: the emulator throughput
# benches (tasks/sec, allocs/op — including the streaming Online-sink
# path) and the sweep scaling benches, parsed into BENCH_<PR>.json by
# cmd/benchreport. Bump BENCH_N when a PR moves the numbers. The
# allocation regression gate lives in `test`: TestRunSteadyStateAllocs
# plus its sink/stream companions (constant allocs with an Online sink).
# BENCH_TRIALS > 1 repeats the suite as separate processes (benchreport
# -exec); benchreport folds the repeated lines into mean/stdev records,
# and bench-check then treats over-threshold drops whose noise
# intervals overlap as warnings rather than failures. Each trial
# process additionally contributes a trial_resources record — wall /
# user / system time, peak RSS, and summed stop-the-world GC pauses
# under GODEBUG=gctrace=1 — so BENCH files carry memory-pressure
# context next to the throughput numbers.
BENCH_N ?= 10
BENCH_TRIALS ?= 3

# The recorded regex includes the scheduler path ablation since PR 5:
# BENCH_5.json pins the indexed-vs-slice gap on the big.LITTLE and
# 512-PE heterogeneous pools alongside the throughput headlines.
BENCH_REGEX = EmulatorThroughput|SweepWorkers|SchedulerPathAblation

# The report lands in a temp file first so neither a failed benchmark
# trial nor a parse error can truncate the recorded
# BENCH_$(BENCH_N).json (`>` truncates before the command runs).
# benchreport -exec runs the go test child itself — one process per
# trial — and -raw preserves the combined raw benchmark text alongside
# the JSON for debugging a failed run.
bench:
	$(GO) run ./cmd/benchreport -exec -trials $(BENCH_TRIALS) \
		-raw BENCH_$(BENCH_N).out \
		$(GO) test -run NONE -bench '$(BENCH_REGEX)' \
		-benchmem -benchtime 10x . > BENCH_$(BENCH_N).json.tmp
	@cat BENCH_$(BENCH_N).out
	@mv BENCH_$(BENCH_N).json.tmp BENCH_$(BENCH_N).json
	@rm BENCH_$(BENCH_N).out

# `make bench-check` is the perf-regression gate: it reruns the bench
# suite and diffs it against the last recorded BENCH_$(BENCH_PREV).json
# via benchreport -prev, failing on a >10% tasks/sec drop — the fresh
# numbers gate against the recorded BENCH_5.json trajectory point
# (BENCH_10 re-recorded the same suite with trial_resources). The
# fresh measurement is discarded (only the delta table on stderr
# survives); run `make bench` to record a new trajectory point.
BENCH_PREV ?= 5
bench-check:
	@status=0; $(GO) run ./cmd/benchreport -exec -trials $(BENCH_TRIALS) \
		-prev BENCH_$(BENCH_PREV).json \
		$(GO) test -run NONE -bench '$(BENCH_REGEX)' \
		-benchmem -benchtime 10x . > /dev/null || status=$$?; \
	exit $$status

# benchmark/ is the repo's measurement contract (BENCHMARK.json, PR 11):
# a module of its own, so the root `go test ./...` never sees it.
# `make benchmark` runs all seven workloads, untraced then traced (about
# 3 min), and writes benchmark/.bench_out/result.json plus one trace per
# workload; extra flags ride in BENCHMARK_FLAGS (e.g. `--workload
# oversub-eft --seed 301 --trace 0`, or `-out /tmp/a` to keep a result
# for comparing). `make benchmark-test` is its own test suite (wrapper
# invisibility, every workload at smoke sizes, manifest = table; ~10 s),
# part of `make check`. `make benchmark-compare A=a.json B=b.json` reads
# two result.json files metric by metric against the bounds and exits 1
# on a regression, a rise in failed operations, or a changed sim_digest.
BENCHMARK_FLAGS ?=
benchmark:
	$(GO) run -C benchmark . $(BENCHMARK_FLAGS)

benchmark-test:
	$(GO) test -C benchmark .

benchmark-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make benchmark-compare A=parent/result.json B=change/result.json" >&2; exit 2; }
	$(GO) run -C benchmark . -compare $(abspath $(A)) $(abspath $(B))

# The full benchmark harness (every table/figure of the paper) at one
# iteration each.
benchfull:
	$(GO) test -bench . -benchtime 1x

experiments:
	$(GO) run ./cmd/experiments -exp all
