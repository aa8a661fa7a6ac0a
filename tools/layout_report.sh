#!/usr/bin/env bash
# Where the linker placed a binary's hot-loop functions: each symbol's
# address and that address mod 64, the offset within a cache line.
#
#   tools/layout_report.sh <binary>
#
# A kernel whose inner loop straddles a 64-byte line runs measurably
# slower, so an offset that differs between two builds can explain a
# wall-clock shift that no change in work does (docs/PERF.md).  Reports
# `main` (session_bench inlines its host-speed reference kernel there)
# and the Linpack kernel's functions; a function that was inlined, or is
# not linked into the binary, prints as absent.
#
# Exit: 0 report printed, 2 usage error or unreadable binary.
set -euo pipefail

if [[ $# -ne 1 || $1 == -h || $1 == --help ]]; then
  sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
binary=$1
symbols=$(nm -C --defined-only "$binary" 2>/dev/null) || {
  echo "layout_report: cannot read symbols of $binary" >&2
  exit 2
}

report() {  # <label> <exact demangled symbol name>
  local addr
  addr=$(awk -v name="$2" '{
    sym = $0; sub(/^[0-9a-fA-F]+ [A-Za-z] /, "", sym)
    if (sym == name) { print $1; exit }
  }' <<<"$symbols")
  if [[ -z $addr ]]; then
    printf '%-16s absent\n' "$1"
  else
    printf '%-16s 0x%s  mod 64 = %2d\n' "$1" "${addr#"${addr%%[!0]*}"}" \
      $((16#$addr % 64))
  fi
}

ns='rattrap::workloads'
report main 'main'
report run_linpack "$ns::run_linpack(unsigned long, unsigned long)"
report factor_panel "$ns::(anonymous namespace)::factor_panel(double*, unsigned long, unsigned long, unsigned long, unsigned long*)"
report solve_u12 "$ns::(anonymous namespace)::solve_u12(double*, unsigned long, unsigned long, unsigned long)"
report update_trailing "$ns::(anonymous namespace)::update_trailing(double*, unsigned long, unsigned long, unsigned long)"
