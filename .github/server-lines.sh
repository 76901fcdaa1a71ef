#!/usr/bin/env bash
# Non-test lines of crates/server/src: the lines before each file's
# first `#[cfg(test)]`, per file and in total; then each crate's total
# over every `.rs` file under crates/*/src. Given a base commit, also
# the count at that commit and the difference (a file or crate missing
# on one side counts 0 there). A log line, not a gate.
#
#   bash .github/server-lines.sh          # the working tree
#   bash .github/server-lines.sh HEAD~1   # ... against a base commit
set -uo pipefail
cd "$(dirname "$0")/.."
base=${1:-}
dir=crates/server/src

# The non-test line count of the file on stdin.
non_test() {
  awk '/#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }'
}

# Each file's count in the working tree, and the total.
tree_only() {
  for f in "$dir"/*.rs; do
    echo "$(non_test < "$f") $f"
  done | awk '{ total += $1; print } END { print total, "total" }'
}

# Each crate's count in the working tree.
crates_only() {
  for c in crates/*/src; do
    total=0
    for f in $(find "$c" -name '*.rs' | sort); do
      total=$((total + $(non_test < "$f")))
    done
    echo "$total ${c%/src}"
  done
}

# Each crate's count in the working tree and at the base commit, and
# the difference.
crates_against_base() {
  crates=$( (ls -d crates/*/src; git ls-tree -d --name-only "$base" crates/ | sed 's|$|/src|') \
    | sort -u)
  printf '%6s %6s %6s  %s\n' head base diff "crate (base $(git rev-parse --short "$base"))"
  for c in $crates; do
    head=0 was=0
    if [ -d "$c" ]; then
      for f in $(find "$c" -name '*.rs'); do
        head=$((head + $(non_test < "$f")))
      done
    fi
    for f in $(git ls-tree -r --name-only "$base" "$c/" | grep '\.rs$'); do
      was=$((was + $(git show "$base:$f" | non_test)))
    done
    printf '%6d %6d %+6d  %s\n' "$head" "$was" $((head - was)) "${c%/src}"
  done
}

if [ -z "$base" ]; then
  tree_only
  echo
  crates_only
  exit 0
fi
if ! git rev-parse --verify --quiet "$base^{commit}" > /dev/null; then
  echo "base commit $base is not available; counting the working tree only"
  tree_only
  echo
  crates_only
  exit 0
fi
files=$( (ls "$dir"/*.rs; git ls-tree --name-only "$base" "$dir/" | grep '\.rs$') | sort -u)
printf '%6s %6s %6s  %s\n' head base diff "file (base $(git rev-parse --short "$base"))"
for f in $files; do
  head=0 was=0
  [ -f "$f" ] && head=$(non_test < "$f")
  git cat-file -e "$base:$f" 2> /dev/null && was=$(git show "$base:$f" | non_test)
  echo "$head $was $f"
done | awk '{ h += $1; b += $2; printf "%6d %6d %+6d  %s\n", $1, $2, $1 - $2, $3 }
  END { printf "%6d %6d %+6d  total\n", h, b, h - b }'
echo
crates_against_base
