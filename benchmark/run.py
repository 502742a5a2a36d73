#!/usr/bin/env python3
"""Build and run the serving benchmark, check its outputs, print its metrics.

Usage (from anywhere; paths resolve against the repository root):

  python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                           [--trace 0|1] [--trace-out PATH]

Builds build-benchmark/ from benchmark/CMakeLists.txt (which compiles
src/ itself), then runs each workload in its own process and prints
every metric by name with its unit, the run metadata and any warnings.
Without --workload every workload runs in turn.

The last line of standard output is one JSON object,
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
holding the end-to-end metrics BENCHMARK.json lists (--trace 0) or its
per-layer metrics (--trace 1). The exit status is non-zero when the
build fails, a run fails, or the correctness gate finds a mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "sofa_benchmark")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then build incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "sofa_benchmark"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path)


def git_rev():
    """The checked-out commit, or "unknown" outside a git checkout."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unknown"
    p = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def run_workload(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace_out:
        cmd += ["--trace-out", os.path.abspath(args.trace_out)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit status %d)"
             % (workload, p.returncode))
    return json.loads(lines[-1]), p.returncode


def report(result, spec, trace, rev):
    """Print one run's metadata, warnings and metrics; return the
    metrics the contract selects for this mode."""
    meta = result["meta"]
    print("workload %s  seed %s  seconds %g  trace %d  rev %s"
          % (result["workload"], result["seed"], result["seconds"],
             int(trace), rev))
    print("  threads %d  nproc %d  build %s"
          % (meta["threads"], meta["nproc"], meta["build"]))
    print("  kernel calibration %.2f -> %.2f GFLOP/s (start -> end)"
          % (meta["kernel_gflops_start"], meta["kernel_gflops_end"]))
    print("  correct %s  attempted %d  failed %d  gate re-ran %d requests"
          % (result["correct"], result["attempted"], result["failed"],
             meta["gate_checked"]))

    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "tokens_per_s")
    drift = meta["kernel_gflops_end"] / meta["kernel_gflops_start"] - 1.0
    if abs(drift) > bound:
        print("run.py: warning: %s: kernel calibration moved %+.0f%% "
              "during the run (more than the tokens_per_s bound of "
              "%.0f%%); the host was not steady"
              % (result["workload"], 100 * drift, 100 * bound),
              file=sys.stderr)

    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    selected = {}
    for m in wanted:
        if m["name"] not in got:
            fail("%s did not report %s" % (result["workload"], m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s reports %s in %s, BENCHMARK.json says %s"
                 % (result["workload"], m["name"],
                    got[m["name"]]["unit"], m["unit"]))
        selected[m["name"]] = got[m["name"]]
    width = max(len(n) for n in got)
    for name, m in got.items():
        mark = "*" if name in selected else " "
        print("  %s %-*s %14.6g %s" % (mark, width, name, m["value"],
                                      m["unit"]))
    print("  (* = a metric BENCHMARK.json lists for this mode)")
    return selected


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description="Build and run the serving benchmark.")
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per workload (default and "
                         "benchmark setting: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--trace-out",
                    help="with --trace 1: write Chrome trace-event JSON "
                         "here (one workload only)")
    args = ap.parse_args()
    if args.trace_out and (args.trace != "1" or not args.workload):
        fail("--trace-out needs --trace 1 and --workload")

    build()
    rev = git_rev()
    trace = args.trace == "1"
    workloads = [args.workload] if args.workload else names
    correct, attempted, failed, status = True, 0, 0, 0
    metrics = {}
    for w in workloads:
        result, rc = run_workload(w, args)
        selected = report(result, spec, trace, rev)
        correct = correct and bool(result["correct"])
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        status = status or rc
        for name, m in selected.items():
            metrics[name if args.workload else w + "." + name] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if status else 0)


if __name__ == "__main__":
    main()
