GO ?= go

.PHONY: build test race vet fmt lint lint-repo check bench bench-smoke serve-smoke redteam-smoke temporal-differential servebench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# TestFig6Shape compares wall-clock global-lock vs two-tier contention, so it
# runs alone after the parallel sweep: inside `go test -race ./...` the other
# packages' tests compete for the cores and skew its ratio on small hosts.
race:
	$(GO) test -race -skip '^TestFig6Shape$$' ./...
	$(GO) test -race -p 1 -run '^TestFig6Shape$$' .

vet:
	$(GO) vet ./...

# gofmt -l prints the names of misformatted files; treat any output as failure.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis of the example programs: must all be provably safe (exit 0).
lint:
	$(GO) run ./cmd/mte4jni lint examples/lint

# Repo-invariant lint: tools/lintrepo's custom passes run over every package
# via the go vet -vettool protocol (noinline fault constructors, mem.Space
# encapsulation, //mte4jni:fastpath allocation/timestamp bans, atomic field
# consistency). The tool binary is built into a scratch dir so nothing
# lands in the working tree.
lint-repo:
	@tmp="$$(mktemp -d)"; \
	$(GO) build -o "$$tmp/lintrepo" ./tools/lintrepo && \
	$(GO) vet -vettool="$$tmp/lintrepo" ./...; \
	st=$$?; rm -rf "$$tmp"; exit $$st

bench:
	$(GO) test -bench=. -benchmem ./...

# Quick perf sanity: the paper's Figure 5/6 benchmarks, the elided-vs-
# checked proof-carrying pair and per-scheme session creation (NewRuntime,
# with its B/op) at -benchtime=10x, and the zero-allocation
# guards on the fault-free checked path, the guard-free elided path, and the
# TLAB hit path. Catches perf-path regressions (fast path falling off,
# allocations creeping in) in seconds rather than validating absolute numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig5SingleThread|BenchmarkFig5Elision|BenchmarkFig6MultiThread|BenchmarkNewRuntime' -benchtime=10x -benchmem .
	$(GO) test -run 'TestCheckedAccessAllocs|TestUnguardedAccessAllocs' ./internal/mem
	$(GO) test -run 'TestElidedDispatchAllocs' ./internal/interp
	$(GO) test -run 'TestAllocTLABHitAllocs' ./internal/heap

# End-to-end gate for the serving layer: `mte4jni serve` with the full
# 64-session pool on an ephemeral port, driven by `mte4jni load` (mixed
# faulting traffic, then a 64-worker full-capacity burst), /metrics
# reconciliation, clean SIGTERM shutdown. Also runs the sharded-admission
# section (8 shards, exact per-shard lease reconciliation + balance check,
# then open-loop Poisson load gated on a p99 SLO) and the shard-scaling
# bench gate. See scripts/serve_smoke.sh.
serve-smoke:
	GO="$(GO)" sh ./scripts/serve_smoke.sh

# Temporal-screening soundness gate: every red-team corpus attack program
# must be statically flagged with its exact window class and four-step
# provenance chain, every dynamic known-miss must be a static catch, and the
# generated fuzz corpus must produce zero false flags.
temporal-differential:
	$(GO) test -run 'TestTemporalCorpusStatic|TestTemporalDynamicMissesAreStaticCatches|TestTemporalGeneratedNoFalseFlags' -v ./internal/fuzz

# Adversarial gate: the offline `mte4jni redteam` campaign must match the
# analytic 15/16-per-probe brute-force model and account for every §2.3
# guarded-copy blind spot, then a serve+load run with the escalating
# defense enabled must reconcile every attack/throttle/reseed counter
# exactly. See scripts/redteam_smoke.sh.
redteam-smoke:
	GO="$(GO)" sh ./scripts/redteam_smoke.sh

# The serving benchmark is its own module (servebench/go.mod, replacing
# mte4jni with this checkout): vet and test it so a change here that breaks
# the benchmark's build fails the gate.
servebench-check:
	cd servebench && $(GO) vet ./... && $(GO) test ./...

# Extended tier-1 gate (see ROADMAP.md).
check: fmt vet lint-repo race lint temporal-differential bench-smoke serve-smoke redteam-smoke servebench-check
	@echo "check: ok"
