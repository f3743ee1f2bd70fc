#!/usr/bin/env python3
"""The ptherm benchmark: builds the benchmark program from source, runs one
workload, checks its outputs and prints the result.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload steady_manycore_4096 --seed 1 \
        --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced split and reports the per-layer metrics (and writes a Chrome
trace under .bench_build/traces/). Metric names and units come from
BENCHMARK.json at the checkout root. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --update-reference

re-solves the default and held-out seeds of every workload and rewrites
perfbench/reference.json (only after a change that is meant to move the
physics).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "ptherm_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2718281
RUN_TIMEOUT_S = 160

# How far a checked temperature may sit from the stored reference [K]:
# about 1 % of the smallest block or device rise above the sink in each
# workload, so an approximate solver (an FFT-convolution apply, say) is
# judged on the physics it delivers, not bitwise. Runaway flags must match
# exactly.
TOLERANCE_K = {
    "steady_manycore_4096": 0.01,   # rises 0.7-1.9 K
    "batch_mc_10k": 0.002,          # rises 0.15-1.0 K
    "rtm_trace_100k": 0.1,          # rises 12-48 K
    "spice_selfheat_sweep": 0.05,   # rises 6-17 K
}


def fail(message):
    """Aborts the run without a result line."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark program; compiler output
    goes to stderr so stdout stays the result."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ptherm source tree next to perfbench/ (expected CMakeLists.txt and src/)")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ptherm_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_program(args):
    """Runs the benchmark program; returns (table lines, parsed result)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark program failed (exit %d)" % proc.returncode)
    return lines[:-1], json.loads(lines[-1])


def compare_reference(stored, measured, tolerance):
    """Mismatches between stored and measured reference values: runaway flags
    must match exactly, temperatures within `tolerance` kelvin."""
    problems = []
    for key in sorted(set(stored) | set(measured)):
        if key not in stored or key not in measured or measured[key] is None:
            problems.append("%s missing on one side" % key)
            continue
        exact = key.endswith("_runaway")
        if (measured[key] != stored[key]) if exact else \
                not abs(measured[key] - stored[key]) <= tolerance:
            problems.append("%s = %r, reference %r" % (key, measured[key], stored[key]))
    return problems


def result_metrics(bench, trace, produced, failed, attempted):
    """The result's metrics in BENCHMARK.json order. A per-layer metric the
    workload does not produce reads 0: that layer does no work in it."""
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    for name, m in produced.items():
        if declared.get(name) != m["unit"]:
            fail("metric %s (%s) is not declared with that unit in BENCHMARK.json"
                 % (name, m["unit"]))
        if m["value"] is None or not math.isfinite(m["value"]):
            fail("metric %s is not a finite number" % name)
    if trace:
        produced = dict(produced, failed_frac={"value": failed / attempted, "unit": "frac"})
    out = {}
    for name, unit in declared.items():
        if name in produced:
            out[name] = {"value": produced[name]["value"], "unit": unit}
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            fail("end-to-end metric %s was not measured" % name)
    return out


def update_reference():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    refs = {}
    for w in bench["workloads"]:
        per_seed = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            _, res = run_program(["--workload", w["name"], "--seed", str(seed),
                                  "--seconds", "0.5", "--trace", "0"])
            if res["failed"]:
                fail("%s seed %d failed its checks; reference not written" % (w["name"], seed))
            per_seed[str(seed)] = res["reference"]
        refs[w["name"]] = per_seed
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + REFERENCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    if args.update_reference:
        update_reference()
        return
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    bench = load_json(bench_path)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build()

    stored = load_json(REFERENCE)[args.workload]
    tolerance = TOLERANCE_K[args.workload]
    reference_seed = args.seed if str(args.seed) in stored else DEFAULT_SEED
    program_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace),
                    "--reference-seed", str(reference_seed)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        program_args += ["--trace-out",
                         os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    table, res = run_program(program_args)
    for line in table:
        print(line)

    attempted = res["attempted"]
    failed = res["failed"]
    if attempted < 1:
        fail("no operation was attempted")
    problems = compare_reference(stored[str(reference_seed)], res["reference"], tolerance)
    if problems:
        failed = min(attempted, failed + 1)
        print("# reference check (seed %d, tolerance %g K) failed:" %
              (reference_seed, tolerance))
        for p in problems[:10]:
            print("#   " + p)
    else:
        print("# reference check (seed %d, %d values within %g K) passed" %
              (reference_seed, len(res["reference"]), tolerance))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics(bench, args.trace, res["metrics"], failed, attempted),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
