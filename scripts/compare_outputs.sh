#!/usr/bin/env bash
# Checks that two builds of this repository produce byte-identical
# outputs, both the JSONL results and the console text.
#
# Usage: scripts/compare_outputs.sh <parent-build> <change-build>
#
# Each argument is a CMake build directory that holds sfs_bench, the
# examples and sfsearch_cli. In both builds the script runs:
#   * `sfs_bench --list` and `sfs_bench --list-names`;
#   * every e*, a* and d1 experiment with `--quick --json` at
#     SFS_THREADS=1 and SFS_THREADS=4;
#   * every such experiment with `--checkpoint c.csv` alone, a flag it
#     rejects with exit status 2 and its usage (supported flags and
#     parameter table) on standard error;
#   * e1 and e2 with `--large --json` at SFS_THREADS=4;
#   * quickstart, age_bias and p2p_lookup with their default arguments,
#     and `sfsearch_cli policies` with and without `--json`;
#   * `sfsearch_cli generate merged-mori:0.5,2 5000 ../cli.graph 7`, then
#     `stats`, `search ... 1 5000 weak` and `search ... 1 5000 strong` on
#     that side's graph file;
#   * `sfsearch_cli generate mori:0.25 5000 ../tree.graph 7` and
#     `generate merged-mori:0.5,1 5000 ../merged1.graph 7`, the two graphs
#     packed straight from the father array. A graph file holds the edge
#     list only, so the tests pin the incidence order of a built tree.
# For each run it compares the JSONL files (when the run writes one), the
# graph files (when the run names one), the standard output and, for a
# rejected run, the standard error with cmp, prints one line per run
# naming the stream that differs, and exits 1 if any stream differs or
# any run ends with another exit status than expected (54 runs: 13
# experiments three times each, plus 15 others). The only timing-dependent
# console text, the `wall <x> s` footer of the e1/e2 grid modes, is masked
# before the comparison. The experiment list comes from the change build.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi

parent_dir=$(realpath "$1")
change_dir=$(realpath "$2")
programs=(sfs_bench quickstart age_bias p2p_lookup sfsearch_cli)
for dir in "$parent_dir" "$change_dir"; do
  for program in "${programs[@]}"; do
    if [[ ! -x "$dir/$program" ]]; then
      echo "error: $dir/$program not found or not executable" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run per entry: <tag> <threads> <exit status> <program>
# [arguments...]. %JSON% in the arguments stands for the run's JSONL
# file. The sfsearch_cli runs share the graph files of their side, which
# the generate runs write; their paths are relative to the run's working
# directory, so the paths it prints read the same on both sides.
graph=../cli.graph
graphs=("$graph" ../tree.graph ../merged1.graph)
runs=("sfs_bench_list 1 0 sfs_bench --list"
      "sfs_bench_list_names 1 0 sfs_bench --list-names")
while read -r name; do
  for threads in 1 4; do
    runs+=("${name}_quick_t$threads $threads 0 sfs_bench --run $name --quick --json %JSON%")
  done
  runs+=("${name}_usage 1 2 sfs_bench --run $name --checkpoint c.csv")
done < <("$change_dir/sfs_bench" --list-names | grep -E '^(e[0-9]+|a[0-9]+|d1)')
for name in e1 e2; do
  runs+=("${name}_large_t4 4 0 sfs_bench --run $name --large --json %JSON%")
done
for example in quickstart age_bias p2p_lookup; do
  runs+=("$example 1 0 $example")
done
runs+=("sfsearch_cli_policies 1 0 sfsearch_cli policies"
       "sfsearch_cli_policies_json 1 0 sfsearch_cli policies --json"
       "sfsearch_cli_generate 1 0 sfsearch_cli generate merged-mori:0.5,2 5000 $graph 7"
       "sfsearch_cli_stats 1 0 sfsearch_cli stats $graph"
       "sfsearch_cli_search_weak 1 0 sfsearch_cli search $graph 1 5000 weak"
       "sfsearch_cli_search_strong 1 0 sfsearch_cli search $graph 1 5000 strong"
       "sfsearch_cli_generate_tree 1 0 sfsearch_cli generate mori:0.25 5000 ${graphs[1]} 7"
       "sfsearch_cli_generate_merged1 1 0 sfsearch_cli generate merged-mori:0.5,1 5000 ${graphs[2]} 7")

failed=0
for run in "${runs[@]}"; do
  read -r tag threads status program arg_text <<<"$run"
  for side in parent change; do
    dir=${side}_dir
    mkdir -p "$out/$side/$tag"
    read -ra args <<<"${arg_text//%JSON%/$out/$side/$tag.jsonl}"
    # Each run gets its own working directory, so nothing it writes there
    # can be read back by another run.
    (cd "$out/$side/$tag" &&
     SFS_THREADS=$threads "${!dir}/$program" "${args[@]}" \
       >"$out/$side/$tag.out" 2>"$out/$side/$tag.err")
    rc=$?
    if [[ $rc -ne $status ]]; then
      echo "FAILED     $tag ($side build exited $rc, not $status;" \
           "stderr follows)"
      cat "$out/$side/$tag.err"
      failed=1
      continue 2
    fi
    sed -Ei 's/^(grid .*, wall )[0-9.]+ s$/\1<masked> s/' "$out/$side/$tag.out"
  done
  differs=()
  if [[ -e "$out/parent/$tag.jsonl" || -e "$out/change/$tag.jsonl" ]] &&
     ! cmp -s "$out/parent/$tag.jsonl" "$out/change/$tag.jsonl"; then
    differs+=(JSONL)
  fi
  named=()
  for file in "${graphs[@]}"; do
    [[ $arg_text == *"$file"* ]] && named+=("${file#../}")
  done
  for file in "${named[@]}"; do
    if ! cmp -s "$out/parent/$file" "$out/change/$file"; then
      differs+=(graph)
      break
    fi
  done
  if ! cmp -s "$out/parent/$tag.out" "$out/change/$tag.out"; then
    differs+=(console)
  fi
  if [[ $status -ne 0 ]] &&
     ! cmp -s "$out/parent/$tag.err" "$out/change/$tag.err"; then
    differs+=(usage)
  fi
  if [[ ${#differs[@]} -eq 0 ]]; then
    echo "identical  $tag"
    continue
  fi
  echo "DIFFERS    $tag (${differs[*]})"
  for stream in "${differs[@]}"; do
    if [[ $stream == JSONL ]]; then
      cmp "$out/parent/$tag.jsonl" "$out/change/$tag.jsonl" || true
    elif [[ $stream == graph ]]; then
      for file in "${named[@]}"; do
        cmp "$out/parent/$file" "$out/change/$file" || true
      done
    elif [[ $stream == usage ]]; then
      diff "$out/parent/$tag.err" "$out/change/$tag.err" | head -20
    else
      diff "$out/parent/$tag.out" "$out/change/$tag.out" | head -20
    fi
  done
  failed=1
done

if [[ $failed -ne 0 ]]; then
  echo "compare_outputs: outputs differ or a run failed" >&2
  exit 1
fi
echo "compare_outputs: all ${#runs[@]} runs identical (JSONL, graph, console and usage)"
