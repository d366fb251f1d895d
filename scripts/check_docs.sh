#!/usr/bin/env bash
# check_docs.sh — the documentation gate (CI's `docs` job, `make docs-check`).
#
#   1. go vet over the whole module (doc comments with broken directives,
#      unkeyed fields in examples, etc. surface here),
#   2. the runnable Example functions must build AND pass (they are the
#      executable half of the godoc), and the four examples/ programs must
#      run to completion (each log.Fatal()s on a wrong recovery),
#   3. every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== Example tests =="
go test -run Example ./internal/rma/ ./internal/ftrma/

echo "== examples/ programs =="
for ex in examples/*/; do
  echo "-- $ex"
  go run "./$ex"
done

echo "== markdown link check =="
fail=0
for f in README.md docs/*.md; do
  # Extract relative link targets: [text](target), skipping absolute URLs
  # and in-page anchors.
  while IFS= read -r target; do
    target="${target%%#*}"            # strip fragment
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    base="$(dirname "$f")"
    if [ ! -e "$base/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK in $f: $target"
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$f" | sed 's/.*(\([^)]*\))/\1/')
done
if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
