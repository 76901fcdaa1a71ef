#!/usr/bin/env bash
# Runs one `cargo test --release` selection under PROPTEST_SEED 1, 2 and
# 3, and fails if a run fails or runs no test: a filter that matches
# nothing (a renamed or deleted module) would otherwise pass green.
#
#   bash .github/proptest-seeds.sh -p qid-sampling --lib reservoir::multi_replay_tests
set -euo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 <cargo test arguments>" >&2
  exit 2
fi
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for seed in 1 2 3; do
  PROPTEST_SEED=$seed timeout 300 cargo test --release "$@" 2>&1 | tee "$log"
  if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "PROPTEST_SEED=$seed: \`cargo test --release $*\` ran no test" >&2
    exit 1
  fi
done
