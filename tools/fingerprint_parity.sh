#!/usr/bin/env bash
# Golden-fingerprint parity between a base git ref and the working tree.
#
# Builds both in Release mode and runs each on one fixed invocation set:
# the loadgen sim / rpc / QoS lines, a closed-loop loadgen line (the only
# one that drives the completion observer), `experiments --quick`, a small
# elastic static|predictive crash-storm manifest, and traced rattrap
# runs (plain, and warm pool under container crashes).  Prints one line
# per invocation with both fingerprints.  A refactor that claims "no
# behaviour change" must exit 0 here.
#
#   tools/fingerprint_parity.sh <base-ref> [work-dir]
#
# Exit: 0 all pairs identical, 1 any difference, 2 usage or build error.
# The work directory (default: a fresh temp dir) keeps the base source
# export, both Release builds and every run's artifacts; pass the same
# one again to rebuild incrementally.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || $1 == -h || $1 == --help ]]; then
  sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d "${TMPDIR:-/tmp}/fingerprint-parity.XXXXXX")}
mkdir -p "$work"
work=$(cd "$work" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

git -C "$root" rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null ||
  { echo "fingerprint_parity: unknown ref '$base_ref'" >&2; exit 2; }
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git -C "$root" archive "$base_ref" | tar -x -C "$work/base-src"

build() {  # <source> <build-dir>
  echo "building $1" >&2
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >"$2.log" 2>&1 &&
    cmake --build "$2" -j "$jobs" --target loadgen experiments rattrap_cli \
      >>"$2.log" 2>&1 ||
    { echo "fingerprint_parity: build failed, see $2.log" >&2; exit 2; }
}
build "$work/base-src" "$work/base-build"
build "$root" "$work/head-build"

cat >"$work/elastic.ini" <<'EOF'
[elastic-crash-storm]
scenario = fault-storm
arrival = poisson
profile = diurnal
profile_period = 60
profile_peak = 3
rate = 30
devices = 60
requests = 300
faults = net.drop:p=0.02
storm_crashes = 3
storm_at = 2
storm_spacing = 0.2
elastic = static|predictive
elastic_target = 4
seed = 1|2
expect.accounting = identity
expect.max.invariant_violations = 0
EOF

digest() {  # <file>: its sha256 prefix, or nothing when it is missing
  if [[ -f $1 ]]; then sha256sum <"$1" | cut -c1-16; fi
}

# Runs the invocation set with one build from its own source root (the
# experiments manifests name repo-relative data files) and prints
# "<name> <fingerprint>" lines.
fingerprints() {  # <source> <build-dir> <out-dir>
  local bin=$2/tools out=$3
  rm -rf "$out"
  mkdir -p "$out"
  cd "$1"
  local lg="--devices 10000 --rate 20 --kind linpack --requests 10000"
  echo "loadgen-sim $("$bin/loadgen" $lg --transport sim |
    sed -n 's/^metrics_fingerprint=//p')"
  echo "loadgen-rpc $("$bin/loadgen" $lg --transport rpc |
    sed -n 's/^metrics_fingerprint=//p')"
  echo "loadgen-qos $("$bin/loadgen" --qos --rate 400 --devices 64 \
    --requests 20000 --mix gold:interactive:3:0.3 \
    --mix silver:standard:2:0.4 --mix bronze:batch:1:0.3 |
    sed -n 's/^metrics_fingerprint=//p')"
  echo "loadgen-closed $("$bin/loadgen" --arrival closed --devices 200 \
    --requests 5000 --faults net.drop:p=0.02 |
    sed -n 's/^metrics_fingerprint=//p')"
  echo "experiments-quick $("$bin/experiments" --quick --jobs 2 \
    --out "$out/quick" | sed -n 's/^summary_fingerprint=//p')"
  echo "experiments-elastic $("$bin/experiments" --manifest \
    "$work/elastic.ini" --jobs 2 --out "$out/elastic" |
    sed -n 's/^summary_fingerprint=//p')"
  # A rattrap that rejects these keys (one built before it read the
  # run-config table) leaves its rows empty, so they read DIFFERENT.
  "$bin/rattrap" --kind ocr --requests 12 --trace-out "$out/ocr.trace.json" \
    --metrics-out "$out/ocr.metrics.json" >"$out/ocr.txt" 2>&1 || true
  echo "rattrap-ocr-trace $(digest "$out/ocr.trace.json")"
  echo "rattrap-ocr-metrics $(digest "$out/ocr.metrics.json")"
  "$bin/rattrap" --kind linpack --requests 24 --elastic-target 3 \
    --faults "container.crash:p=0.1" --trace-out "$out/pool.trace.json" \
    --metrics-out "$out/pool.metrics.json" >"$out/pool.txt" 2>&1 || true
  echo "rattrap-pool-trace $(digest "$out/pool.trace.json")"
  echo "rattrap-pool-metrics $(digest "$out/pool.metrics.json")"
}

fingerprints "$work/base-src" "$work/base-build" "$work/base-out" \
  >"$work/base.txt"
fingerprints "$root" "$work/head-build" "$work/head-out" >"$work/head.txt"

status=0
printf '%-22s %-18s %-18s\n' invocation "base $base_ref" head
while read -r name base && read -r _ head <&3; do
  verdict=same
  if [[ -z $base || $base != "$head" ]]; then
    verdict=DIFFERENT
    status=1
  fi
  printf '%-22s %-18s %-18s %s\n' "$name" "${base:--}" "${head:--}" "$verdict"
done <"$work/base.txt" 3<"$work/head.txt"
echo "artifacts: $work"
exit "$status"
