#!/usr/bin/env python3
"""Build and run the end-to-end job benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under $CARGO_TARGET_DIR, or
.bench_build/ when that is unset; later calls rebuild only what changed.
Build output goes to stderr. The benchmark's own output goes to stdout; its
last line is the JSON result, which this script checks against
BENCHMARK.json's metric lists before passing on the exit code.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build():
    """Configure once, then build the two targets. Returns the build dir."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "e2e_bench", "e2e_selftest"],
                   check=True, stdout=sys.stderr)
    return out


def check_result(line, expected):
    """Problems with the result line; `expected` maps metric name -> unit."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return ["last line is not JSON: %s" % e]
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not %s" % sorted(RESULT_KEYS)]
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: missing %s,"
                        " extra %s" % (sorted(set(expected) - set(metrics)),
                                       sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if not NAME_RE.fullmatch(name):
            problems.append("bad metric name %r" % name)
        if name in expected and m.get("unit") != expected[name]:
            problems.append("unit of %s is %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), expected[name]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("value of %s is not a number" % name)
    return problems


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def selftest(out):
    """Helper self-tests (C++), then a parse of the JSON they emit."""
    proc = subprocess.run([os.path.join(out, "e2e_selftest")],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result
    assert result["metrics"]["latency_ms"]["value"] == 0.1 + 0.2
    assert result["metrics"]["jobs_per_s"]["unit"] == "1/s"
    assert check_result(json.dumps(result), {
        name: m["unit"] for name, m in result["metrics"].items()}) == []
    assert check_result("not json", {}) != []
    assert check_result('{"correct": true}', {}) != []
    for trace in (False, True):
        for name in declared_metrics(trace):
            assert NAME_RE.fullmatch(name), name
    print("selftest: JSON parse and BENCHMARK.json names ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 3
    if args.selftest:
        return selftest(out)

    cmd = [os.path.join(out, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            out, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    problems = check_result(lines[-1] if lines else "",
                            declared_metrics(args.trace))
    for p in problems:
        print("e2ebench: %s" % p, file=sys.stderr)
    return 4 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
