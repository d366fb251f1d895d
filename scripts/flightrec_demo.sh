#!/usr/bin/env bash
# Flight-recorder demo: the coordinatorless kill -9 smoke with per-rank
# flight recording on. A 4-rank symmetric fabric runs the causal
# workload, one worker is kill -9'd mid-run, the survivors arbitrate the
# crisis and a replacement rejoins through a *survivor* (the seed's
# frame counter must stay frozen). Every node dumps its event ring on
# crisis close; the demo finishes by merging the per-rank dumps with
# cmd/flightcat into one chronological, decoded timeline of the
# recovery — condemnation, crisis stages, parity handoff, replay
# install — which is the artifact this script exists to show.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${RANKD_PORT:-7171}"
ADDR="127.0.0.1:$PORT"
LOG="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$LOG"' EXIT

go build -o "$LOG/rankd" ./cmd/rankd
go build -o "$LOG/flightcat" ./cmd/flightcat

"$LOG/rankd" -fabric-seed -listen "$ADDR" -n 4 -phases 10 -inserts 4 \
    -phase-delay 100ms -timeout 90s | tee "$LOG/seed.out" &
SEED=$!

# REPRO_DEBUG_DIR doubles as the pid->rank oracle: each worker logs
# "rank N debug endpoint" to its own stderr file once the join handshake
# assigns its rank.
sleep 0.3
declare -a WORKERS
for i in 0 1 2 3; do
    REPRO_FLIGHTREC_DIR="$LOG/flight" REPRO_DEBUG_DIR="$LOG/debug" \
        "$LOG/rankd" -fabric-join "$ADDR" 2>"$LOG/worker$i.err" &
    WORKERS[$i]=$!
done

# Wait for bootstrap (the seed prints the member table) and every
# worker's rank line.
for _ in $(seq 1 100); do
    if grep -q "^member rank 3 at" "$LOG/seed.out" 2>/dev/null \
        && grep -hq "rank [0-9] debug endpoint" "$LOG"/worker*.err 2>/dev/null; then break; fi
    sleep 0.1
done
if ! grep -q "^member rank 3 at" "$LOG/seed.out"; then
    echo "flightrec-demo: fabric never bootstrapped" >&2
    exit 1
fi

# Let a few epochs land so the rings hold real traffic, then kill -9 the
# worker that became rank 2 and rejoin a replacement via rank 0's
# address — a survivor, not the seed.
sleep 0.4
VICTIM=""
for i in 0 1 2 3; do
    if grep -q "rank 2 debug endpoint" "$LOG/worker$i.err" 2>/dev/null; then
        VICTIM=${WORKERS[$i]}
    fi
done
if [ -z "$VICTIM" ]; then
    echo "flightrec-demo: could not map rank 2 to a worker pid" >&2
    exit 1
fi
SURVIVOR=$(sed -n 's/^member rank 0 at //p' "$LOG/seed.out" | head -1)
echo "flightrec-demo: kill -9 rank 2 (pid $VICTIM), replacement joins survivor $SURVIVOR"
kill -9 "$VICTIM"

sleep 0.2
REPRO_FLIGHTREC_DIR="$LOG/flight" REPRO_DEBUG_DIR="$LOG/debug" \
    "$LOG/rankd" -fabric-join "$SURVIVOR" 2>"$LOG/replacement.err" &

wait "$SEED"
grep -q "final windows bit-identical" "$LOG/seed.out"

DUMPS=("$LOG"/flight/flightrec-rank*-crisis*.jsonl)
if ! [ -e "${DUMPS[0]}" ]; then
    echo "flightrec-demo: no flight-recorder crisis dumps were written" >&2
    exit 1
fi
echo
echo "flightrec-demo: merged crisis timeline (${#DUMPS[@]} per-rank dumps):"
echo
"$LOG/flightcat" "${DUMPS[@]}"
echo
echo "flightrec-demo: kill -9 recovery bit-identical; timeline above is the crisis post-mortem"
