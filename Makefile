GO ?= go

.PHONY: all build vet staticcheck test test-short test-noasm race stress tier1 ci docs-check chaos-smoke metrics-check flightrec-demo soak soak-short coverage-check

all: build vet test

build:
	$(GO) build ./...

# go vet plus a formatting gate: gofmt -l must list nothing. bench/ is a
# nested module that compiles against internal/fabric, so `./...` above never
# sees it: build and vet it here, or an internal API change breaks the repo
# benchmark unseen. (Its go test is load-sensitive and stays out.)
vet:
	$(GO) vet ./...
	cd bench && $(GO) build -o /dev/null ./... && $(GO) vet ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi

# Pinned in CI (honnef.co/go/tools/cmd/staticcheck@2024.1.1); skipped
# gracefully where it is not installed so `make ci` works offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1); skipping" ; \
	fi

test:
	$(GO) test ./...

# The inner-loop tier: every multi-second test carries a testing.Short()
# gate, so this stays a seconds-not-minutes run (CI enforces a wall
# budget on it).
test-short:
	$(GO) test -short ./...

# The SWAR fallback leg of the kernel matrix: full suite with the AVX2 asm
# path compiled out, plus the runtime env-knob cross-check.
test-noasm:
	$(GO) test -tags noasm ./...
	REPRO_ERASURE_NOASM=1 $(GO) test -count=1 ./internal/erasure

race:
	$(GO) test -race ./...

# Repetition leg for the fabric's lifecycle and connection bookkeeping:
# the conformance scenarios twenty times over (each ends in the leak and
# late-log guard of its cleanup), the in-package fabric tests under the
# race detector, the recovery tests — kill and replace with every wait on
# its event, a replacement killed before its first fold among them (the
# TestReplace pattern selects TestReplacementKilledBeforeItsFirstFold) —
# thirty times more, and the wire's handler handoff (a warm handler parks
# for the next request) with the per-phase frame budget and the refusal
# of an unsurvivable crash twenty times each. A wedge, a false verdict or
# a condemned bystander here is rare per run, so one run proves little.
stress:
	$(GO) test -count=20 -run TestFabric ./internal/transport
	$(GO) test -race -count=5 ./internal/fabric
	$(GO) test -race -count=30 -run 'TestRecovery|TestReplace|TestJoinLongPoll|TestFoldAckLost' ./internal/fabric
	$(GO) test -race -count=20 ./internal/transport/wire
	$(GO) test -race -count=20 -run 'TestEpochCloseFrameBudget|TestCrisisRefusesUnsurvivable' ./internal/fabric

# Multi-process kill -9 smokes under the race detector: rankd worker
# processes (the re-executed test binary) bootstrap through a seed and run
# peer to peer; one rank — the crisis arbiter included, with the seed
# closed — is kill -9'd mid-run and a replacement rejoins through a
# survivor. Both smokes demand a bit-identical finish, a seed frozen at
# one frame per join, and no goroutine left behind.
chaos-smoke:
	$(GO) test -race -count=1 -v -run 'TestClusterCoordinatorlessKill9|TestClusterFabricFaultFree' ./cmd/rankd

# Metric-catalog drift gate: scrape a live 2-rank fabric smoke's debug
# endpoints and diff the Prometheus name set against the catalog in
# docs/OBSERVABILITY.md (drift in either direction fails).
metrics-check:
	./scripts/check_metrics.sh

# Flight-recorder demo: the coordinatorless kill -9 smoke with
# REPRO_FLIGHTREC_DIR on, finishing with the merged per-rank crisis
# timeline pretty-printed by cmd/flightcat.
flightrec-demo:
	./scripts/flightrec_demo.sh

# Scale-out soak + chaos matrix (docs/SOAK.md): 64–256 in-process
# fabric ranks over tcp/shm/mixed transports under seeded kill, mute,
# and correlated node-kill schedules, gated on bit-identical final
# state vs the in-process oracle, zero causal-path fallbacks, and clean
# catastrophic errors. soak-short is the 64-rank leg `go test ./...`
# already runs; soak is the full matrix (64–128 ranks, ~1 min); the
# 256-rank XL leg additionally needs REPRO_SOAK_XL=1 and the sysctl
# headroom documented in docs/SOAK.md.
soak-short:
	$(GO) test -count=1 -run 'TestSoak$$' ./internal/soak

soak:
	REPRO_SOAK=1 $(GO) test -count=1 -timeout 900s -run 'TestSoak|TestMembershipConvergence' ./internal/soak

# Coverage gate: per-package statement floors on the recovery-critical
# packages, counted across the whole suite (see the script).
coverage-check:
	./scripts/check_coverage.sh

# The tier-1 gate the roadmap pins.
tier1: build test

# Docs gate: vet, Example tests, markdown link check (CI's `docs` job).
docs-check:
	./scripts/check_docs.sh

# Mirrors the full CI workflow locally: build, vet (with the gofmt gate),
# staticcheck, tests on both kernel paths, the race detector, the fabric
# stress leg, the soak matrix, the coverage floors, the docs gate, and the
# metric-catalog drift gate. Performance is measured by the repo benchmark
# (bash bench/run.sh, bench/README.md), not here.
ci: build vet staticcheck test test-noasm race stress soak coverage-check docs-check metrics-check
