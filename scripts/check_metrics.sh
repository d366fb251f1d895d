#!/usr/bin/env bash
# Metric-catalog drift gate: starts a live 2-rank coordinatorless fabric
# smoke with the debug endpoint on, curls each rank's Prometheus
# /metrics, and diffs the scraped metric name set against the
# marker-fenced fabric section of docs/OBSERVABILITY.md. Every fabric
# instrument is pre-registered at node construction, so the scrape
# exposes the full name set (zeros included) the moment the rank addr
# file appears — a new metric without a catalog row, or a catalog row
# whose metric was renamed away, fails the gate in either direction.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${RANKD_PORT:-7161}"
ADDR="127.0.0.1:$PORT"
LOG="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$LOG"' EXIT

go build -o "$LOG/rankd" ./cmd/rankd

"$LOG/rankd" -fabric-seed -listen "$ADDR" -n 2 -phases 8 -inserts 4 \
    -phase-delay 150ms -timeout 60s | tee "$LOG/seed.out" &
SEED=$!

sleep 0.3
for _ in 0 1; do
    REPRO_DEBUG_DIR="$LOG/debug" "$LOG/rankd" -fabric-join "$ADDR" 2>>"$LOG/workers.err" &
done

# The addr files land right after the join handshake; the full catalog is
# already registered by then, so scrape mid-run.
for _ in $(seq 1 100); do
    [ -f "$LOG/debug/rank0.addr" ] && [ -f "$LOG/debug/rank1.addr" ] && break
    sleep 0.1
done
if ! [ -f "$LOG/debug/rank0.addr" ] || ! [ -f "$LOG/debug/rank1.addr" ]; then
    echo "check_metrics: debug addr files never appeared" >&2
    exit 1
fi

# Scraped name set: strip comments, labels, and values, fold histogram
# _bucket/_sum/_count series onto their base name.
for r in 0 1; do
    curl -sf "http://$(cat "$LOG/debug/rank$r.addr")/metrics" >"$LOG/scrape$r.prom"
done
cat "$LOG"/scrape*.prom \
    | grep -v '^#' \
    | sed -e 's/{.*//' -e 's/ .*//' \
    | sed -E 's/_(bucket|sum|count)$//' \
    | sort -u >"$LOG/scraped.txt"

# Catalog name set: the backticked dotted names between the
# fabric-scrape markers, normalized the way WritePrometheus does.
sed -n '/fabric-scrape:begin/,/fabric-scrape:end/p' docs/OBSERVABILITY.md \
    | grep -oE '`[a-z0-9._]+`' | tr -d '`' | tr . _ \
    | sort -u >"$LOG/catalog.txt"

if ! diff -u "$LOG/catalog.txt" "$LOG/scraped.txt" >"$LOG/drift.txt"; then
    echo "check_metrics: FAIL — scraped metric names drifted from the docs/OBSERVABILITY.md catalog" >&2
    echo "  (lines prefixed '-' are cataloged but not exposed; '+' are exposed but not cataloged)" >&2
    cat "$LOG/drift.txt" >&2
    exit 1
fi
echo "check_metrics: $(wc -l <"$LOG/scraped.txt") metric names match the catalog on both ranks"

wait "$SEED"
grep -q "final windows bit-identical" "$LOG/seed.out"
echo "check_metrics: fabric smoke finished bit-identical"
