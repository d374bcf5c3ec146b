#!/usr/bin/env bash
# Full pre-merge check: build + test under the sanitizer/release presets
# (the tests include every `claims` case), then run the three release
# timing benches (E16/E20, E17, E23b) and validate their JSON output.
#
# Usage: scripts/check.sh [--quick] [--presets "release asan ubsan"]
#                         [--parent REV]
#   --quick       shorter benchmark measurement windows (smoke test)
#   --presets     space-separated CMake preset list (default: all three);
#                 CI legs that already built elsewhere pass e.g.
#                 `--presets release` to only smoke the benches.
#   --parent REV  also build REV's Release ccredf_sweep (from `git
#                 archive REV` in a temporary directory) and `cmp` each
#                 smoke grid's (tools/grids/*smoke.grid) 1-thread report
#                 against the working tree's; fails naming every grid
#                 whose report differs.
#
# Fails loudly when a bench binary is missing, exits non-zero (E23b's
# speed-up gate), or writes a JSON document that does not validate
# against the bench schema.  Last, runs the repository benchmark
# (perfbench/run.py, one second per run) for each workload at both seeds
# recorded in perfbench/digests.json, and fails naming every run whose
# statistics digest or other correctness check does not hold.  Also fails, naming the entries, when the
# first preset's ctest list has a name with `byte object <` in it: gtest
# prints a test parameter that has no PrintTo as its raw bytes, padding
# included, so such names change from build to build.  Before building,
# fails naming the lines where a file under src/ outside src/sim/ calls
# schedule_at, schedule_in or schedule(: a timed action in the library
# is a key of the sim::ArrivalProcess that owns it, so that destroying
# the owner disarms it.  Also before building, fails naming every
# src/**/*.hpp that has no consumer: no file includes it other than the
# header itself and its own .cpp, under src/, tools/, examples/, bench/
# or perfbench/, or a claims test (tests/integration/*claims_test.cpp).
# A module that only its own tests use is dead weight.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
PARENT=""
PRESETS=(release asan ubsan)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick)
      QUICK="--quick"
      shift
      ;;
    --presets)
      [[ $# -ge 2 ]] || { echo "check.sh: --presets needs a value" >&2; exit 2; }
      read -r -a PRESETS <<< "$2"
      shift 2
      ;;
    --parent)
      [[ $# -ge 2 ]] || { echo "check.sh: --parent needs a revision" >&2; exit 2; }
      PARENT="$2"
      shift 2
      ;;
    *)
      echo "check.sh: unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

if [[ -n "${PARENT}" ]] &&
   ! git rev-parse --quiet --verify "${PARENT}^{commit}" > /dev/null; then
  echo "check.sh: --parent: not a commit: ${PARENT}" >&2
  exit 2
fi

CLOSURES="$(grep -rnE '\<schedule(_at|_in)?\(' src | grep -v '^src/sim/' || true)"
if [[ -n "${CLOSURES}" ]]; then
  echo "check.sh: the library schedules closures outside src/sim/; arm a" \
       "key of the owning sim::ArrivalProcess instead:" >&2
  echo "${CLOSURES}" >&2
  exit 1
fi

UNUSED=""
for hdr in $(find src -name '*.hpp' | sort); do
  users="$(grep -rlF --include='*.hpp' --include='*.cpp' \
             "#include \"${hdr#src/}\"" src tools examples bench perfbench \
             tests/integration/*claims_test.cpp |
           grep -vxF -e "${hdr}" -e "${hdr%.hpp}.cpp" || true)"
  [[ -n "${users}" ]] || UNUSED+="${hdr}"$'\n'
done
if [[ -n "${UNUSED}" ]]; then
  echo "check.sh: headers under src/ that nothing outside their own tests" \
       "includes; delete the module or give it a consumer:" >&2
  printf '%s' "${UNUSED}" >&2
  exit 1
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

for preset in "${PRESETS[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  ctest --preset "${preset}"
done

RAW_NAMES="$(ctest --preset "${PRESETS[0]}" -N | grep 'byte object <' || true)"
if [[ -n "${RAW_NAMES}" ]]; then
  echo "check.sh: ctest names carry raw parameter bytes; give each" \
       "parameter type a PrintTo:" >&2
  echo "${RAW_NAMES}" >&2
  exit 1
fi

# run_bench NAME [ARGS...]: run a release bench with --json and validate
# the document it wrote.
run_bench() {
  local name="$1"
  shift
  local bin="./build-release/bench/${name}"
  if [[ ! -x "${bin}" ]]; then
    echo "check.sh: FATAL: bench binary missing: ${bin}" >&2
    exit 1
  fi
  local json="BENCH_${name#bench_}.json"
  echo "==== bench: ${name} (release) ===="
  "${bin}" "$@" --json "${json}"
  python3 scripts/validate_bench_json.py "${json}"
}

for bench in bench_slot_throughput bench_sweep bench_hypercycle; do
  run_bench "${bench}" ${QUICK}
done

# Every smoke grid -- each tools/grids/*smoke.grid, so a new one joins
# by its name alone -- passes the same three gates: byte-identical
# reports at 1 and 8 worker threads (on a single-core host the 8-thread
# run exercises only the claiming logic, but the byte-equality gate
# still runs), a valid report schema, and a byte-identical report with
# the idle fast-forward off (DESIGN.md section 8).  The grids cover the
# plain axes, the BER fault axes, the CBS service class, the churn
# resilience loop, the hypercycle planner and the severed-segment cycle,
# each of which changes what the engine does per slot, the nightly
# soak's axes all at once at 8,000 slots, and the sweep-mixed
# benchmark's grid (Poisson and queue-capped saturation loads under
# control BER and churn).  nightly_soak.grid is not a smoke grid.
SWEEP=./build-release/tools/ccredf_sweep
if [[ ! -x "${SWEEP}" ]]; then
  echo "check.sh: FATAL: tool binary missing: ${SWEEP}" >&2
  exit 1
fi
TMPDIR_SWEEP="$(mktemp -d)"
trap 'rm -rf "${TMPDIR_SWEEP}"' EXIT

# --parent REV: the same sweep tool built from REV's committed tree.
PARENT_SWEEP=""
PARENT_DIFFS=()
if [[ -n "${PARENT}" ]]; then
  echo "==== parent ${PARENT}: Release ccredf_sweep ===="
  mkdir "${TMPDIR_SWEEP}/parent"
  git archive "${PARENT}" | tar -x -C "${TMPDIR_SWEEP}/parent"
  cmake -S "${TMPDIR_SWEEP}/parent" -B "${TMPDIR_SWEEP}/parent-build" \
    -DCMAKE_BUILD_TYPE=Release -DCCREDF_BUILD_TESTS=OFF \
    -DCCREDF_BUILD_BENCH=OFF -DCCREDF_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "${TMPDIR_SWEEP}/parent-build" --target ccredf_sweep_cli \
    -j "${JOBS}" > /dev/null
  PARENT_SWEEP="${TMPDIR_SWEEP}/parent-build/tools/ccredf_sweep"
fi
for grid_file in tools/grids/*smoke.grid; do
  grid="$(basename "${grid_file}" .grid)"
  echo "==== ${grid}.grid: 1 vs 8 threads, schema, fast-forward ===="
  out="${TMPDIR_SWEEP}/${grid}"
  "${SWEEP}" "tools/grids/${grid}.grid" --threads 1 --out "${out}_t1.json"
  "${SWEEP}" "tools/grids/${grid}.grid" --threads 8 --out "${out}_t8.json"
  cmp "${out}_t1.json" "${out}_t8.json"
  python3 scripts/validate_bench_json.py "${out}_t1.json"
  "${SWEEP}" "tools/grids/${grid}.grid" --threads 1 --no-fast-forward \
    --out "${out}_noff.json"
  cmp "${out}_t1.json" "${out}_noff.json"
  echo "${grid}.grid reports byte-identical across thread counts and" \
       "fast-forward modes"
  if [[ -n "${PARENT_SWEEP}" ]]; then
    "${PARENT_SWEEP}" "tools/grids/${grid}.grid" --threads 1 \
      --out "${out}_parent.json"
    if cmp -s "${out}_t1.json" "${out}_parent.json"; then
      echo "${grid}.grid report byte-identical to ${PARENT}'s"
    else
      PARENT_DIFFS+=("${grid}")
    fi
  fi
done
if [[ ${#PARENT_DIFFS[@]} -gt 0 ]]; then
  echo "check.sh: reports differ from ${PARENT}'s: ${PARENT_DIFFS[*]}" >&2
  exit 1
fi

# The recorded digests: run.py exits 0 only when every check of the run
# passed (its result line then reads "correct": true).
DIGEST_FAILS=()
for workload in tcma32 planned32 sweep-mixed; do
  for seed in 1 20021015; do
    echo "==== perfbench ${workload} seed ${seed}: recorded digest ===="
    log="${TMPDIR_SWEEP}/perfbench_${workload}_${seed}.log"
    if python3 perfbench/run.py --workload "${workload}" --seed "${seed}" \
         --seconds 1 --trace 0 > "${log}" 2>&1; then
      tail -n 1 "${log}"
    else
      tail -n 5 "${log}" >&2
      DIGEST_FAILS+=("${workload}/seed=${seed}")
    fi
  done
done
if [[ ${#DIGEST_FAILS[@]} -gt 0 ]]; then
  echo "check.sh: perfbench runs not correct: ${DIGEST_FAILS[*]}" >&2
  exit 1
fi

echo "==== check.sh: all green ===="
