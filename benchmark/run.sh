#!/usr/bin/env bash
# Build the benchmark (Release, into build-bench/) and run its workloads.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--repeat N] [--out DIR] [--smoke] [--write-reference]
#
# Without --workload every workload runs in turn; --seconds defaults to
# run_seconds in BENCHMARK.json. Each run prints its metrics by name and
# unit and ends with one JSON line {"correct", "attempted", "failed",
# "metrics"}. --repeat N runs each workload N times with seeds S, S+1, ...
# and then prints the spread report of benchmark/compare.py. Exits nonzero
# when a build fails, a run fails or a correctness gate fails. Run from
# anywhere; paths are resolved against the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workloads=(offline_table1 serve_mixed socket_bulk fleet_open)
selected=()
seed=1
trace=0
repeat=1
out="build-bench/out"
extra=()

usage() {
  sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while (($#)); do
  case "$1" in
    --workload) selected+=("${2:?--workload needs a value}"); shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) extra+=(--seconds "${2:?--seconds needs a value}"); shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --repeat) repeat="${2:?--repeat needs a value}"; shift 2 ;;
    --out) out="${2:?--out needs a value}"; shift 2 ;;
    --smoke) extra+=(--smoke); shift ;;
    --write-reference) extra+=(--write-reference); shift ;;
    -h|--help) usage ;;
    *) echo "run.sh: unknown argument '$1'" >&2; usage ;;
  esac
done
((${#selected[@]})) || selected=("${workloads[@]}")
for w in "${selected[@]}"; do
  [[ " ${workloads[*]} " == *" $w "* ]] || {
    echo "run.sh: unknown workload '$w' (have: ${workloads[*]})" >&2
    exit 2
  }
done
[[ "$repeat" =~ ^[1-9][0-9]*$ ]] || { echo "run.sh: bad --repeat" >&2; exit 2; }

# The benchmark builds the library from the checkout it sits in.
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root is not a surro source tree (no CMakeLists.txt, src/)" >&2
  exit 2
fi

build="build-bench"
mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  if ! cmake -S benchmark -B "$build" "${generator[@]}" \
       -DCMAKE_BUILD_TYPE=Release >"$build/configure.log" 2>&1; then
    tail -n 40 "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    echo "run.sh: configure failed (log: $build/configure.log)" >&2
    exit 2
  fi
fi
if ! cmake --build "$build" --target surro_bench -j "$(nproc)" \
     >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 2
fi

status=0
for w in "${selected[@]}"; do
  for ((r = 0; r < repeat; ++r)); do
    dir="$out/$w"
    ((repeat == 1)) || dir="$out/$w/run$r"
    "$build/surro_bench" --workload "$w" --seed "$((seed + r))" \
      --trace "$trace" --out "$dir" ${extra[@]+"${extra[@]}"} ||
      status=1
  done
done

if ((repeat > 1)); then
  python3 "$here/compare.py" spread "$out" || status=1
fi
exit "$status"
