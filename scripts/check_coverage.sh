#!/bin/sh
# Coverage gate: run the module's tests with cross-package coverage
# instrumentation of the recovery-critical packages and enforce
# per-package statement-coverage floors.
#
# internal/fabric earns most of its coverage end-to-end — the transport
# conformance suite, the cluster chaos harness, the soak package — on
# top of its in-package lifecycle tests; -coverpkg attributes that
# cross-package execution to it.
# The floors are tripwires, not targets: they catch a refactor that
# silently orphans a recovery path from every test, and they only go up.
#
# Usage: scripts/check_coverage.sh [profile-out]
#   profile-out defaults to coverage.out (CI uploads it as an artifact).
set -e
cd "$(dirname "$0")/.."

PROFILE="${1:-coverage.out}"

# package floor-percent
FLOORS="
repro/internal/fabric 70
repro/internal/ftrma 80
repro/internal/transport/cluster 75
"

COVERPKG=$(echo "$FLOORS" | awk 'NF {printf "%s%s", sep, $1; sep=","}')

echo "check_coverage: go test -coverpkg=$COVERPKG ./..."
go test -count=1 -coverprofile="$PROFILE" -coverpkg="$COVERPKG" ./...

echo "$FLOORS" | awk -v profile="$PROFILE" '
  NF { floor[$1] = $2 + 0 }
  END {
    # Profile lines: <file>:<range> <numstmts> <hitcount>. The same block
    # appears once per test binary that imported the package; dedupe by
    # block key, a block counting as covered if any binary hit it.
    while ((getline line < profile) > 0) {
      if (line ~ /^mode:/) continue
      split(line, f, " ")
      key = f[1]; n = f[2] + 0; hit = f[3] + 0
      if (!(key in stmt)) { stmt[key] = n; covered[key] = 0 }
      if (hit > 0) covered[key] = 1
    }
    for (key in stmt) {
      pkg = key
      sub(/\/[^\/]*:.*$/, "", pkg) # strip /file.go:range -> package dir
      tot[pkg] += stmt[key]
      if (covered[key]) cov[pkg] += stmt[key]
    }
    fail = 0
    for (pkg in floor) {
      if (tot[pkg] == 0) {
        printf "FAIL %-36s no coverage data (package renamed? -coverpkg drift?)\n", pkg
        fail = 1
        continue
      }
      pct = 100 * cov[pkg] / tot[pkg]
      status = "ok  "
      if (pct < floor[pkg]) { status = "FAIL"; fail = 1 }
      printf "%s %-36s %6.1f%% of %d statements (floor %d%%)\n", status, pkg, pct, tot[pkg], floor[pkg]
    }
    exit fail
  }'
echo "check_coverage: all floors held"
