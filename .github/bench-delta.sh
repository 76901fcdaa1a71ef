#!/usr/bin/env bash
# Each end-to-end metric's median in two `BENCH_*.json` rows and the
# ratio between them (B / A). A row's medians are its change's, taken
# from `pairs.metrics.<name>.change_median`; a metric missing from
# either row prints `-`. A log line, not a gate.
#
#   bash .github/bench-delta.sh BENCH_23.json BENCH_27.json
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 A.json B.json" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
jq -r -n --slurpfile a "$1" --slurpfile b "$2" --slurpfile spec "$root/BENCHMARK.json" \
  --arg an "$(basename "$1")" --arg bn "$(basename "$2")" '
  def med(row; m): row.pairs.metrics[m].change_median // null;
  def num: if . == null then "-" else (. * 1e6 | round / 1e6 | tostring) end;
  def pad(n): . + ([range(0; n - length)] | map(" ") | join(""));
  ["metric", $an, $bn, "B/A"],
  ($spec[0].end_to_end[].name as $m
    | med($a[0]; $m) as $x
    | med($b[0]; $m) as $y
    | [$m, ($x | num), ($y | num),
       (if $x == null or $y == null or $x == 0 then "-"
        else ($y / $x * 1000 | round / 1000 | tostring) end)])
  | "\(.[0] | pad(16)) \(.[1] | pad(16)) \(.[2] | pad(16)) \(.[3])"'
