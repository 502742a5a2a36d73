#!/usr/bin/env python3
"""Compare the serving benchmark's end-to-end metrics between two checkouts.

  python3 benchmark/compare.py --parent DIR --change DIR [--runs N]
                               [--workload W ...] [--out DIR]
  python3 benchmark/compare.py --analyse DIR

Runs N pairs per workload, alternating which side runs first, with the
same seed on both sides of a pair and a new seed for every pair
(benchmark/run.py in each checkout, untraced, for the run_seconds of
the parent's BENCHMARK.json on both sides). Every run's result is
saved under --out (default: a new temporary directory), which
--analyse reads back without running anything. Passing the same
checkout as both sides measures the benchmark's own run-to-run spread.

For every workload x metric it prints each side's median [q1, q3] and
the change's pair wins, and a verdict, using the metric's bound from
the parent's BENCHMARK.json:
  unresolved  a side's IQR / median is wider than the bound, unless
              every change run beats every parent run;
  regression  the change's median is worse than the parent's by more
              than the bound;
  gain        at least 10 pairs, the change wins >= 9/10 of them and
              the medians differ by more than the parent's IQR;
  same        none of these.
A last table gives one row per workload with its worst verdict. A
workload where the change's runs failed more requests than the
parent's is a regression, and none of its metrics counts as a gain:
latencies cover completed requests only, so shedding slow requests
would otherwise read as a speed-up.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ["parent", "change"]
SEVERITY = {"regression": 3, "unresolved": 2, "gain": 1, "same": 0}
# Fewer pairs than this never make a gain: quartiles of a handful of
# runs say nothing about the spread.
MIN_GAIN_PAIRS = 10
# Pair i runs seed SEED_BASE + i on both sides.
SEED_BASE = 1000


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("compare.py: run failed in %s (%s, seed %d)"
                 % (checkout, workload, seed))
    return json.loads(lines[-1])


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def collect(args, spec):
    out = args.out or tempfile.mkdtemp(prefix="sofa-compare-")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f)
    dirs = {"parent": args.parent, "change": args.change}
    for i in range(args.runs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        seed = SEED_BASE + i
        for w in args.workload or workload_names(spec):
            for side in order:
                res = run_side(dirs[side], w, seed, spec["run_seconds"])
                with open(os.path.join(out, "%s.%s.%03d.json"
                                       % (side, w, i)), "w") as f:
                    json.dump(res, f)
                print("pair %d/%d  %-14s %-6s seed %d done"
                      % (i + 1, args.runs, w, side, seed),
                      file=sys.stderr)
    print("results saved in %s" % out, file=sys.stderr)
    return out


def load(out):
    with open(os.path.join(out, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = {}  # (side, workload) -> {pair index: result}
    for path in glob.glob(os.path.join(out, "*.*.*.json")):
        side, w, idx = os.path.basename(path).split(".")[:3]
        with open(path) as f:
            runs.setdefault((side, w), {})[int(idx)] = json.load(f)
    return spec, runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """Verdict and report fields for one workload x metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def better(a, b):
        return a > b if higher else a < b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    worse = (pm - cm if higher else cm - pm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0,
                 (c3 - c1) / cm if cm else 0.0)
    dominates = all(better(c, p) for c in change for p in parent)
    if spread > bound and not dominates:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    elif (len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs)
          and abs(cm - pm) > p3 - p1 and better(cm, pm)):
        v = "gain"
    else:
        v = "same"
    return v, (p1, pm, p3), (c1, cm, c3), wins, len(pairs), worse, spread


def analyse(out):
    spec, runs = load(out)
    workloads = [w for w in workload_names(spec)
                 if ("parent", w) in runs and ("change", w) in runs]
    if not workloads:
        sys.exit("compare.py: no paired results in %s" % out)
    print("%-14s %-15s %-30s %-30s %7s %6s %7s %6s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "worse", "wins", "spread",
             "bound", "verdict"))
    summary = []
    for w in workloads:
        p_runs, c_runs = runs[("parent", w)], runs[("change", w)]
        idx = sorted(set(p_runs) & set(c_runs))
        p_failed = sum(p_runs[i]["failed"] for i in idx)
        c_failed = sum(c_runs[i]["failed"] for i in idx)
        more_failed = c_failed > p_failed
        verdicts = [("regression", "failed")] if more_failed else []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p_runs[i]["metrics"][name]["value"] for i in idx]
            change = [c_runs[i]["metrics"][name]["value"] for i in idx]
            v, p, c, wins, n, worse, spread = verdict(metric, parent,
                                                      change)
            if v == "gain" and more_failed:
                v = "same"
            verdicts.append((v, name))
            print("%-14s %-15s %9.4g [%9.4g, %9.4g] %9.4g [%9.4g, %9.4g] "
                  "%+6.1f%% %3d/%-2d %6.1f%% %5.0f%%  %s"
                  % (w, name, p[1], p[0], p[2], c[1], c[0], c[2],
                     100 * worse, wins, n, 100 * spread,
                     100 * metric["bound"], v))
        correct = all(r["correct"] for r in list(p_runs.values()) +
                      list(c_runs.values()))
        summary.append((w, verdicts, len(idx), p_failed, c_failed,
                        correct))

    print()
    print("%-14s %-11s %5s %15s %8s  %s"
          % ("workload", "verdict", "pairs", "failed p -> c", "correct",
             "metrics not 'same'"))
    for w, verdicts, n, p_failed, c_failed, correct in summary:
        worst = max(verdicts, key=lambda x: SEVERITY[x[0]])[0]
        notes = ", ".join("%s %s" % (name, v) for v, name in verdicts
                          if v != "same") or "-"
        print("%-14s %-11s %5d %6d -> %-6d %8s  %s"
              % (w, worst, n, p_failed, c_failed, correct, notes))


def main():
    ap = argparse.ArgumentParser(
        description="Compare two checkouts on the serving benchmark.")
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--runs", type=int, default=10,
                    help="pairs per workload (default 10)")
    ap.add_argument("--workload", nargs="+",
                    help="workloads to run (default: every one the "
                         "parent's BENCHMARK.json lists)")
    ap.add_argument("--out", help="directory for the saved results")
    ap.add_argument("--analyse", metavar="DIR",
                    help="analyse saved results instead of running")
    args = ap.parse_args()
    if args.analyse:
        analyse(args.analyse)
        return
    if not args.parent or not args.change:
        ap.error("--parent and --change are required unless --analyse")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    unknown = set(args.workload or []) - set(workload_names(spec))
    if unknown:
        ap.error("unknown workload(s): %s" % ", ".join(sorted(unknown)))
    analyse(collect(args, spec))


if __name__ == "__main__":
    main()
