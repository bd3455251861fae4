#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 12 --trace 0

prints a run header, every metric with its unit and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Steadiness mode:
    python3 perfbench/run.py --workload serve_clean --repeat 10 --seed 1

runs the workload with seeds 1..10 and prints, per end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median
against the metric's bound in BENCHMARK.json.

The benchmark binary is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; scratch
files and the last trace of each workload go to .bench_work/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_cold", "serve_clean", "serve_delta")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no library sources next to perfbench/ in %s" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_revision():
    """The git revision, or a hash of the sources when there is no git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names
        )
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_once(binary, workload, seed, seconds, trace, rev, spec, echo=True):
    """Runs the binary once; returns (exit code, stdout lines, result dict)."""
    work_dir = os.path.join(ROOT, ".bench_work", workload)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", work_dir,
           "--git-rev", rev]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    problem = check_result(result, spec, trace)
    if echo:
        body = lines[:-1] if problem else lines
        print("\n".join(body))
        sys.stdout.flush()
    if problem:
        print("perfbench: bad result line: " + problem, file=sys.stderr)
        return (proc.returncode or 1), lines, None
    return proc.returncode, lines, result


def check_result(result, spec, trace):
    """Checks the result line against BENCHMARK.json; returns a problem or None."""
    if not isinstance(result, dict):
        return "no JSON result"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected keys %s" % sorted(result)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(names):
        return "metrics %s differ from BENCHMARK.json" % sorted(set(got) ^ set(names))
    for name, unit in names.items():
        if got[name].get("unit") != unit:
            return "unit of %s is %s, not %s" % (name, got[name].get("unit"), unit)
    return None


def steadiness(binary, args, rev, spec):
    """Runs one workload with --repeat seeds and prints each metric's spread."""
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.repeat):
        seed = args.seed + i
        code, _, result = run_once(binary, args.workload, seed, args.seconds, 0,
                                   rev, spec, echo=False)
        if code != 0 or result is None or not result["correct"]:
            fail("run with seed %d failed (exit %d)" % (seed, code))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("# seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())))
        sys.stdout.flush()
    summary = {}
    print("%-22s %12s %12s %12s %8s %8s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metric["bound"]
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print("%-22s %12.6g %12.6g %12.6g %8.4f %8.4f  %s" % (
            name, q1, median, q3, spread, bound, verdict))
        summary[name] = {"q1": q1, "median": median, "q3": q3, "spread": spread,
                         "bound": bound, "values": values[name]}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "first_seed": args.seed, "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run this many seeds from --seed")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()
    rev = source_revision()
    if args.repeat > 0:
        steadiness(binary, args, rev, spec)
        return 0
    code, _, result = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace, rev, spec)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
