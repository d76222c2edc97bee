#!/usr/bin/env bash
# Checks that two builds of this repository produce byte-identical
# experiment outputs.
#
# Usage: scripts/compare_outputs.sh <parent-build> <change-build>
#
# Each argument is a CMake build directory that holds sfs_bench. In both
# builds the script runs every e*, a* and d1 experiment with
# `--quick --json` at SFS_THREADS=1 and SFS_THREADS=4, plus e1 and e2 with
# `--large --json` at SFS_THREADS=4. It compares each pair of JSONL files
# with cmp, prints one line per pair, and exits 1 if any pair differs or
# any run fails. The experiment list comes from the change build.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi

parent_bin=$(realpath "$1")/sfs_bench
change_bin=$(realpath "$2")/sfs_bench
for bin in "$parent_bin" "$change_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

runs=()
while read -r name; do
  for threads in 1 4; do runs+=("$name quick $threads"); done
done < <("$change_bin" --list-names | grep -E '^(e[0-9]+|a[0-9]+|d1)')
runs+=("e1 large 4" "e2 large 4")

failed=0
for run in "${runs[@]}"; do
  read -r name mode threads <<<"$run"
  tag="${name}_${mode}_t${threads}"
  for side in parent change; do
    bin=${side}_bin
    mkdir -p "$out/$side/$tag"
    # Each run gets its own working directory, so nothing it writes there
    # can be read back by another run.
    if ! (cd "$out/$side/$tag" &&
          SFS_THREADS=$threads "${!bin}" --run "$name" "--$mode" \
            --json "$out/$side/$tag.jsonl" >/dev/null 2>"$side.err"); then
      echo "FAILED     $tag ($side build; stderr follows)"
      cat "$out/$side/$tag/$side.err"
      failed=1
      continue 2
    fi
  done
  if cmp -s "$out/parent/$tag.jsonl" "$out/change/$tag.jsonl"; then
    echo "identical  $tag"
  else
    echo "DIFFERS    $tag"
    cmp "$out/parent/$tag.jsonl" "$out/change/$tag.jsonl" || true
    failed=1
  fi
done

if [[ $failed -ne 0 ]]; then
  echo "compare_outputs: outputs differ or a run failed" >&2
  exit 1
fi
echo "compare_outputs: all ${#runs[@]} outputs identical"
