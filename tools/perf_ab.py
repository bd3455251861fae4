#!/usr/bin/env python3
"""A/B of this checkout against a parent revision on the repository benchmark.

    python3 tools/perf_ab.py --parent HEAD --workload serve_delta \\
        --first-seed 21 --pairs 10 --seconds 30

exports the parent revision with `git archive` into a directory of its own,
then runs perfbench/run.py in both trees, one pair of runs per seed with the
same --seconds, alternating which side goes first. Each tree builds into its
own .bench_build. The working tree of this checkout is the change side, so
an uncommitted change is compared with --parent HEAD and a committed one
with --parent HEAD~1.

For every end-to-end metric of BENCHMARK.json (per-layer ones with
--trace 1) it prints each side's quartiles and median, the change's wins out
of the pairs, and whether two rules hold: the change is better on at least
nine of ten pairs, and the medians differ in its favour by more than the
distance between the parent's quartiles. It also prints the median's move
against the metric's bound. It gates nothing: it exits non-zero only when a
run fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch_cold", "serve_clean", "serve_delta")


def fail(message):
    print("perf_ab: " + message, file=sys.stderr)
    sys.exit(1)


def export_parent(rev, directory):
    """Writes `git archive rev` into `directory` unless it already holds it."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if sha.returncode != 0:
        fail("unknown revision %s" % rev)
    sha = sha.stdout.strip()
    stamp = os.path.join(directory, ".perf_ab_rev")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == sha:
                return sha
        fail("%s holds another revision; use a fresh --parent-dir" % directory)
    os.makedirs(directory, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("git archive %s failed" % sha)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def run(tree, args, seed):
    """One perfbench run in `tree`; returns its result line's metrics."""
    # run.py joins $CARGO_TARGET_DIR onto its own checkout; an absolute one
    # would make both trees share a build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    # run.py stamps a run with `git rev-parse HEAD` when that succeeds, which
    # in the change's working tree names the parent's commit. With no
    # repository to find, each side is stamped with a hash of its own
    # sources.
    env["GIT_DIR"] = os.devnull
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        fail("run failed in %s (seed %d, exit %d)" % (tree, seed,
                                                      proc.returncode))
    if not result.get("correct", False) or result.get("failed", 0):
        fail("run in %s (seed %d) was not correct: %d of %d operations failed"
             % (tree, seed, result.get("failed", 0), result.get("attempted", 0)))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(spec_metrics, parent, change):
    pairs = len(parent)
    needed = math.ceil(0.9 * pairs)
    print("\n%-26s %-6s %29s %29s %6s %6s %7s %9s" % (
        "metric", "better", "parent q1 / median / q3",
        "change q1 / median / q3", "wins", "9of10", "spread", "vs bound"))
    for metric in spec_metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        a = [p[name] for p in parent]
        b = [c[name] for c in change]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        pq1, pmed, pq3 = quartiles(a)
        cq1, cmed, cq3 = quartiles(b)
        gain = (pmed - cmed) if lower else (cmed - pmed)
        beyond_spread = gain > (pq3 - pq1)
        bound = metric.get("bound")
        if bound is None or pmed == 0:
            vs_bound = "-"
        else:
            worse = -gain / abs(pmed)
            vs_bound = "%+.1f%%%s" % (
                100.0 * (cmed - pmed) / abs(pmed),
                " WORSE" if worse > bound else "")
        print("%-26s %-6s %9.4g /%9.4g /%9.4g %9.4g /%9.4g /%9.4g %3d/%-2d %6s %7s %9s" % (
            name, metric["better"], pq1, pmed, pq3, cq1, cmed, cq3, wins,
            pairs, "yes" if wins >= needed else "no",
            "yes" if beyond_spread else "no", vs_bound))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="window per run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics instead")
    parser.add_argument("--parent-dir", default=None,
                        help="where to export the parent, kept for reuse "
                             "(default: a temporary directory, removed)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    parent_dir = args.parent_dir or tempfile.mkdtemp(prefix="perf_ab_")
    try:
        sha = export_parent(args.parent, parent_dir)
        print("# parent %s in %s; change: working tree of %s" % (
            sha[:12], parent_dir, ROOT))
        print("# %s, %d pairs from seed %d, %d s per run, trace %d" % (
            args.workload, args.pairs, args.first_seed, args.seconds,
            args.trace))
        sys.stdout.flush()
        parent, change = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("parent", parent_dir), ("change", ROOT)]
            if i % 2 == 1:
                order.reverse()
            got = {side: run(tree, args, seed) for side, tree in order}
            parent.append(got["parent"])
            change.append(got["change"])
            print("# seed %d (%s first): %s" % (seed, order[0][0], ", ".join(
                "%s %.6g -> %.6g" % (name, got["parent"][name],
                                     got["change"][name])
                for name in sorted(got["parent"]))))
            sys.stdout.flush()
        report(spec["per_layer" if args.trace else "end_to_end"], parent,
               change)
    finally:
        if args.parent_dir is None:
            shutil.rmtree(parent_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
