#!/usr/bin/env bash
# Each end-to-end metric's median in two `BENCH_*.json` rows, the ratio
# between them (B / A), and each row's own ratio of its change's median
# to its parent's, measured in the same run. A row's medians are taken
# from `pairs.metrics.<name>.change_median` and `.parent_median`; a
# value missing from a row prints `-`. The rows were measured at
# different times, maybe under different host load, so B / A can move
# without any change; a row's own ratio cannot. A log line, not a gate.
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
  def med(row; m; side): row.pairs.metrics[m][side + "_median"] // null;
  def num: if . == null then "-" else (. * 1e6 | round / 1e6 | tostring) end;
  def ratio(x; y): if x == null or y == null or x == 0 then "-"
    else (y / x * 1000 | round / 1000 | tostring) end;
  def pad(n): . + ([range(0; n - length)] | map(" ") | join(""));
  ["metric", $an, $bn, "B/A", "A own", "B own"],
  ($spec[0].end_to_end[].name as $m
    | med($a[0]; $m; "change") as $x
    | med($b[0]; $m; "change") as $y
    | [$m, ($x | num), ($y | num), ratio($x; $y),
       ratio(med($a[0]; $m; "parent"); $x), ratio(med($b[0]; $m; "parent"); $y)])
  | "\(.[0] | pad(16)) \(.[1] | pad(16)) \(.[2] | pad(16)) \(.[3] | pad(8)) \(.[4] | pad(8)) \(.[5])"'
