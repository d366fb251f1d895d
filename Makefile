GO ?= go

.PHONY: all build vet staticcheck test test-short test-noasm race stress tier1 ci docs-check chaos-smoke metrics-check flightrec-demo soak soak-short coverage-check bench-smoke

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
# path compiled out.
test-noasm:
	$(GO) test -tags noasm ./...

race:
	$(GO) test -race ./...

# Repetition leg for the fabric's lifecycle and connection bookkeeping:
# the conformance scenarios twenty times over (each ends in the leak and
# late-log guard of its cleanup) and ten more under the race detector
# (frame bodies, Vecs, pooled get buffers and put stages are reused across
# goroutines; the TestFabric pattern selects the get-allocation pin
# TestFabricGetAllocsSteadyState), the in-package fabric tests under the
# race detector, the recovery tests — kill and replace with every wait on
# its event, a replacement killed before its first fold, a parity host's
# replacement rebuilding the shard it inherits and a replacement lost
# between its install and its confirm among them (the TestReplace pattern
# selects TestReplacementKilledBeforeItsFirstFold,
# TestReplacementHostsItsRebuiltShard and TestReplacementLostBeforeConfirm), the
# windows a kill moves and allocates (TestRecoveryWindowTraffic), a
# crisis begun while parity hosts hold the barrier's folds, a batch
# acked just before its target dies, and the copy-on-write base against
# the full-copy one (TestCopyOnWriteBase, through a kill and replace among
# them), and the paper's stencil and FFT run on the fabric with a kill of
# each rank (TestAppsOnFabric) — thirty times more, and the wire's
# dispatch (inline requests on the reader, replies answered later, a warm
# handler parked for the rest) with the per-phase frame budget of the
# barrier through the parity hosts — no request handed off its reader —
# the held folds answered from the host's list (without goroutines, on
# Close, exactly once over random phases with a kill), the refusal of an
# unsurvivable crash, an arbiter closed mid-crisis that fails no crisis,
# and a Close that lets go of the node's buffers while every rma.API
# method runs beside it twenty times each, and the shm rings — seeded
# streams through a restart at offset 0 and a wrap, a close mid-stream,
# a read deadline across a skip, and the pages request/reply traffic
# leaves untouched — twenty times under the race detector. A wedge, a
# false verdict, a condemned bystander or a lost skip here is rare per
# run, so one run proves little.
stress:
	$(GO) test -count=20 -run TestFabric ./internal/transport
	$(GO) test -race -count=10 -run TestFabric ./internal/transport
	$(GO) test -race -count=5 ./internal/fabric
	$(GO) test -race -count=30 -run 'TestRecovery|TestReplace|TestJoinLongPoll|TestFoldAckLost|TestCrisisWhileFoldsHeld|TestBatchAckedAsItsTargetDies|TestCopyOnWriteBase|TestAppsOnFabric' ./internal/fabric
	$(GO) test -race -count=20 ./internal/transport/wire
	$(GO) test -race -count=20 -run 'TestEpochCloseFrameBudget|TestHeldFolds|TestCrisisWhileFoldsHeld|TestCrisisRefusesUnsurvivable|TestArbiterCloseFailsNoCrisis|TestCloseReleasesState|TestAPIThroughClose' ./internal/fabric
	$(GO) test -race -count=20 ./internal/transport/shm

# Multi-process kill -9 smokes under the race detector: rankd worker
# processes (the re-executed test binary) bootstrap through a seed and run
# peer to peer; one rank — the crisis arbiter included, with the seed
# closed — is kill -9'd mid-run and a replacement rejoins through a
# survivor. Both smokes demand a bit-identical finish, a seed frozen at
# one frame per join, and no goroutine left behind.
chaos-smoke:
	$(GO) test -race -count=1 -v -run 'TestClusterCoordinatorlessKill9|TestClusterFabricFaultFree' ./cmd/rankd

# Benchmark smoke: the repo benchmark's quick leg (bench/run.sh -quick, a
# few seconds after the build), whose sparse-kill-tcp workload recovers a
# 4 MiB window — frame bodies above the wire's pool — over real sockets.
# Fails unless the run's closing JSON line reports a correct run with no
# failed operation.
bench-smoke:
	@last=$$(bash bench/run.sh -quick | tail -n 1); echo "$$last"; \
	echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -q '"failed":0[,}]' || \
	{ echo 'bench-smoke: want "correct":true and "failed":0'; exit 1; }

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

# Docs gate: vet, Example tests, the examples/ programs, markdown link
# check (CI's `docs` job).
docs-check:
	./scripts/check_docs.sh

# Mirrors the full CI workflow locally: build, vet (with the gofmt gate),
# staticcheck, tests on both kernel paths, the race detector, the fabric
# stress leg, the soak matrix, the coverage floors, the docs gate, and the
# metric-catalog drift gate. Performance is measured by the repo benchmark
# (bash bench/run.sh, bench/README.md), not here.
ci: build vet staticcheck test test-noasm race stress soak coverage-check docs-check metrics-check
