GO ?= go

.PHONY: build test short vet lint lint-fix-check tools staticcheck govulncheck race bench ledger figures check ci smoke cover serve-smoke

# Pinned tool versions for CI (and for local installs that want to match
# CI exactly). Bump deliberately; staticcheck versions are coupled to Go
# releases.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (cmd/simlint): determinism and
# correctness conventions machine-checked. Stdlib-only, so it always
# runs — no install step, no network.
lint:
	$(GO) run ./cmd/simlint ./...

# Convergence gate for the suggested-fix engine: on a clean tree,
# `simlint -fix` must rewrite nothing — a diff means a committed file
# carries an unapplied suggested fix (or an analyzer's fix does not
# converge). Any finding fails the first command; any rewrite fails the
# second.
lint-fix-check:
	$(GO) run ./cmd/simlint -fix ./...
	git diff --exit-code -- '*.go'

# Install the pinned external analyzers. CI runs this before
# staticcheck/govulncheck so the workflow and the Makefile cannot
# disagree about versions; run it locally to match CI exactly.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Static analysis beyond vet and simlint. staticcheck is not vendored;
# locally the target skips with a notice when the binary is absent, but
# in CI (CI env var set) a missing binary is a hard failure — the gate
# must not silently degrade.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck required in CI but not installed (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))" >&2; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan. Same contract as staticcheck: skip locally
# when absent, fail in CI.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "govulncheck required in CI but not installed (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))" >&2; \
		exit 1; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Race-detect the whole module; internal/sweep and internal/multigpu
# hold the only real concurrency, but the sweeps drag every simulator
# package through the detector too.
race: vet
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Behaviour-drift gate: TestCycleLedger pins the exact simulated figures
# of the Fig. 6/7 sweep at scale 0.1 and 1.0, spatter and pointerchase,
# the ra thrash cell at 150%, the planner comparison (thrash-guard
# against threshold) and the 4-GPU cluster (sequential and parallel).
# An intentional behaviour change edits the ledger row to the value the
# failure prints.
ledger:
	$(GO) test -run TestCycleLedger -count=1 -v .

figures:
	$(GO) run ./cmd/paperbench -fig all

# End-to-end smoke of the simd sweep service (cmd/simd, DESIGN.md §13):
# an in-process server, a small bfs job submitted twice, hard assertions
# that the resubmission is a pure cache hit with a byte-identical
# payload and that the progress stream, cache stats and metrics
# snapshot all agree with what ran.
serve-smoke:
	$(GO) run ./cmd/simd -smoke

# Per-package coverage floor (70%) for the mm pipeline, the access
# counters and the simlint framework plus its interprocedural
# analyzers.
cover:
	./scripts/cover.sh

check: vet lint test

# End-to-end smoke: a small sweep with the full observability surface on
# (metrics registry + periodic invariant checker), validating that the
# emitted metrics document is well-formed versioned JSON.
smoke:
	$(GO) run ./cmd/paperbench -fig 1 -scale 0.05 -workloads ra \
		-metrics-json /tmp/uvmsim-smoke-metrics.json -check-invariants 20000
	grep -q '"version": 1' /tmp/uvmsim-smoke-metrics.json
	grep -q '"runs"' /tmp/uvmsim-smoke-metrics.json

# What CI runs (.github/workflows/ci.yml): vet + simlint + the fix
# convergence gate + staticcheck + govulncheck, build, race-detected
# tests, the coverage floor, the observability smoke, the sweep-service
# smoke, then the cycle ledger (whose scale-1.0 row the race run skips).
ci: vet lint lint-fix-check staticcheck govulncheck build race cover smoke serve-smoke ledger
