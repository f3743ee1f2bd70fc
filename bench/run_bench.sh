#!/usr/bin/env bash
# Runs the speed_* Google Benchmark binaries and merges their JSON reports
# into a single machine-readable BENCH_<label>.json at the repo root, so
# every PR can append a point to the perf trajectory. Each benchmark runs
# three times and only the aggregate rows are kept (<name>_mean, _median,
# _stddev, _cv); compare_bench.py gates on _median.
#
# Usage: bench/run_bench.sh [BUILD_DIR] [LABEL]
#   BUILD_DIR  cmake build directory containing bench/ (default: build)
#   LABEL      trajectory label; output file is BENCH_<LABEL>.json (default: seed)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
LABEL="${2:-seed}"
OUT="$REPO_ROOT/BENCH_${LABEL}.json"

BENCHES=(speed_batch speed_cosim speed_layered speed_leakage speed_manycore speed_rtm speed_spice speed_telemetry speed_thermal)
TMPDIR="$(mktemp -d)"
trap 'rm -rf "$TMPDIR"' EXIT

# Wall times are only comparable within one build type; stamp it into the
# JSON and warn when a trajectory point is not a Release build.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
BUILD_TYPE="${BUILD_TYPE:-unknown}"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "warning: benching a '$BUILD_TYPE' build; trajectory baselines are Release" >&2
fi

# Span tracing (bench/telemetry_env.hpp) changes what the wall times mean, so
# the mode is stamped next to build_type and compare_bench.py refuses to diff
# a traced report against an untraced one.
TELEMETRY_ENABLED="false"
if [[ -n "${PTHERM_TELEMETRY:-}" && "${PTHERM_TELEMETRY}" != "0" ]]; then
  TELEMETRY_ENABLED="true"
  echo "warning: PTHERM_TELEMETRY=${PTHERM_TELEMETRY}: benching WITH span tracing; "\
"this point only compares against other traced points" >&2
fi

# The guarded solver-counter list comes from the C++ catalog
# (telemetry::guarded_counter_names), so compare_bench.py guards exactly what
# the library declares — no hand-maintained Python tuple.
GUARDED_DUMP="$BUILD_DIR/examples/telemetry_dump"
if [[ ! -x "$GUARDED_DUMP" ]]; then
  echo "error: $GUARDED_DUMP not built (cmake --build $BUILD_DIR --target example_telemetry_dump)" >&2
  exit 1
fi
SOLVER_COUNTERS="$("$GUARDED_DUMP" --guarded)"

for b in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target bench_$b)" >&2
    exit 1
  fi
  echo "== $b" >&2
  "$bin" --benchmark_format=json --benchmark_out="$TMPDIR/$b.json" \
         --benchmark_out_format=json --benchmark_repetitions=3 \
         --benchmark_report_aggregates_only=true >&2
done

python3 - "$OUT" "$LABEL" "$BUILD_TYPE" "$TELEMETRY_ENABLED" "$SOLVER_COUNTERS" \
        "${BENCHES[@]/#/$TMPDIR/}" <<'EOF'
import json, math, sys, datetime

out_path, label, build_type, telemetry_enabled, solver_counters, *paths = sys.argv[1:]
merged = {
    "label": label,
    "build_type": build_type,
    "telemetry_enabled": telemetry_enabled == "true",
    "solver_counters": solver_counters.split(),
    "generated_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "context": None,
    "benchmarks": {},
}
for path in paths:
    with open(path + ".json") as f:
        report = json.load(f)
    if merged["context"] is None:
        ctx = report.get("context", {})
        merged["context"] = {k: ctx.get(k) for k in
                             ("host_name", "num_cpus", "mhz_per_cpu",
                              "cpu_scaling_enabled", "library_build_type")}
        # The Google Benchmark library's own build type adds timer/loop
        # overhead when it is a debug build; it must match across points
        # being compared just like the project build type.
        merged["benchmark_library_build_type"] = ctx.get("library_build_type")
        if merged["benchmark_library_build_type"] != "release":
            print("warning: Google Benchmark library is a '%s' build; compare "
                  "only against points with the same library build type"
                  % merged["benchmark_library_build_type"], file=sys.stderr)
    name = path.rsplit("/", 1)[-1]
    core_keys = ("name", "iterations", "real_time", "cpu_time", "time_unit",
                 "aggregate_name", "repetitions")
    skip_keys = {"run_name", "run_type", "repetition_index", "threads",
                 "family_index", "per_family_instance_index", "aggregate_unit"}
    entries = []
    for bm in report.get("benchmarks", []):
        entry = {k: bm[k] for k in core_keys if k in bm}
        # Custom counters (picard_iterations, cg_iterations, gates, ...)
        # appear as extra numeric keys; keep them in the trajectory.
        for k, v in bm.items():
            if k not in entry and k not in skip_keys and isinstance(v, (int, float)):
                entry[k] = v
        # The _cv row of a counter whose mean is 0 is NaN, which strict JSON
        # readers reject: non-finite numbers are written as null.
        for k, v in entry.items():
            if isinstance(v, float) and not math.isfinite(v):
                entry[k] = None
        entries.append(entry)
    merged["benchmarks"][name] = entries
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2, allow_nan=False)
    f.write("\n")
print(out_path)
EOF
