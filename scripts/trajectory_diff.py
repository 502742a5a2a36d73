#!/usr/bin/env python3
"""Cross-PR performance trajectory for the BENCH_*.json timings.

Golden gating (scripts/golden_diff.py) covers the deterministic
metrics; wall-clock timings are `check: false` and would otherwise
rot unobserved.  This script closes that gap:

  scripts/trajectory_diff.py --results bench-results [--append]
                             [--file bench-results/trajectory.jsonl]
                             [--compare-baseline]

--compare-baseline additionally renders the baseline-comparison
columns (simd-vs-scalar and the other *_speedup metrics) straight
from the current BENCH_*.json: each bench binary times both paths in
a single run, so no second sweep is needed.

With --append (what `scripts/bench.sh --trajectory` passes), one
JSON line is appended to the trajectory file:

  {"ts": "...", "rev": "abc1234", "threads": {"kernels": 8, ...},
   "metrics": {"kernels/matmul_512x512x512_blocked": 123.4, ...}}

collecting every nocheck metric (timings, rates, speedups) of every
BENCH_*.json in the results directory, keyed "bench/metric".  Then —
append or not — the last entry is diffed against the previous one
and per-metric deltas are printed.  Exit status: 0 on success (the
diff is informational, never a gate), 2 on usage/IO errors.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys

PERCENTILE_RE = re.compile(r"^(.+)_p(50|95|99)(_s)?$")
OUTCOME_KINDS = ("completed", "degraded", "shed", "timedout",
                 "failed", "retried")
OUTCOME_RE = re.compile(
    r"^(.+)_(" + "|".join(OUTCOME_KINDS) + r")$")
FLEET_RE = re.compile(r"^(.*?)fleet(\d+)_gops$")


def collect(results_dir):
    """All nocheck metrics of every artifact, keyed bench/metric.

    Request-outcome counters (*_completed, *_shed, ...) are collected
    even though they are golden-gated: the trajectory renders them as
    one row per outcome family, so a deliberate fingerprint change
    (new golden) still shows up as a delta in the log.
    """
    metrics = {}
    threads = {}
    names = sorted(
        f for f in os.listdir(results_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    for fname in names:
        with open(os.path.join(results_dir, fname), "r",
                  encoding="utf-8") as f:
            doc = json.load(f)
        bench = doc.get("bench", fname[len("BENCH_"):-len(".json")])
        if "threads" in doc:
            threads[bench] = doc["threads"]
        for m in doc.get("metrics", []):
            if (m.get("check", True)
                    and not OUTCOME_RE.match(m.get("name", ""))):
                continue  # gated elsewhere; trajectory is for timings
            if m.get("value") is None:
                continue  # non-finite leak; never poison the log
            metrics[f"{bench}/{m['name']}"] = m["value"]
    return metrics, threads


def git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_entries(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def print_diff(prev, last):
    """Per-metric deltas of the last entry vs the previous one."""
    pm, lm = prev["metrics"], last["metrics"]
    print(f"trajectory: {prev.get('rev', '?')} ({prev.get('ts', '?')})"
          f" -> {last.get('rev', '?')} ({last.get('ts', '?')})")
    width = max((len(k) for k in lm), default=0)
    regressions = 0
    for key in sorted(lm):
        if key not in pm:
            print(f"  {key:<{width}}  (new) {lm[key]:.6g}")
            continue
        old, new = pm[key], lm[key]
        if old == 0:
            delta = "n/a"
        else:
            pct = 100.0 * (new - old) / abs(old)
            delta = f"{pct:+.1f}%"
            # Purely informational: flag big slowdowns of time-like
            # metrics (seconds) so they stand out in CI logs.
            if key.endswith(("_s", "_seconds")) and pct > 25.0:
                delta += "  <-- slower"
                regressions += 1
        print(f"  {key:<{width}}  {old:.6g} -> {new:.6g}  ({delta})")
    for key in sorted(set(pm) - set(lm)):
        print(f"  {key:<{width}}  (dropped)")
    if regressions:
        print(f"trajectory: {regressions} metric(s) slowed >25% "
              "(informational, not gating)")
    print_percentiles(pm, lm)
    print_outcomes(pm, lm)
    print_fleet_scaling(pm, lm)


def print_percentiles(pm, lm):
    """Render *_p50/_p95/_p99 families side by side with deltas.

    The serving bench records tail latencies per offered-load point;
    reading p50/p95/p99 as one row per family makes tail-latency
    drift visible at a glance instead of three scattered lines.
    """
    families = {}
    for key in lm:
        m = PERCENTILE_RE.match(key)
        if m:
            families.setdefault(m.group(1), {})[m.group(2)] = key
    if not families:
        return

    def cell(fam, p):
        key = families[fam].get(p)
        if key is None:
            return "-"
        new = lm[key]
        old = pm.get(key)
        if old is None:
            return f"{new:.4g} (new)"
        if old == 0:
            return f"{new:.4g} (n/a)"
        pct = 100.0 * (new - old) / abs(old)
        return f"{new:.4g} ({pct:+.1f}%)"

    width = max(len(f) for f in families)
    print("latency percentiles (value (delta vs previous)):")
    header = f"  {'family':<{width}}"
    for p in ("50", "95", "99"):
        header += f"  {'p' + p:<20}"
    print(header)
    for fam in sorted(families):
        row = f"  {fam:<{width}}"
        for p in ("50", "95", "99"):
            row += f"  {cell(fam, p):<20}"
        print(row)


def print_outcomes(pm, lm):
    """Render request-outcome count families as one row each.

    bench_serve emits *_completed/_degraded/_shed/_timedout/_failed/
    _retried counters per experiment (burst admission, fault sweep).
    One row per family ("burst", "fault", ...) makes an outcome-mix
    shift readable at a glance; counts only change when a golden is
    deliberately updated, so any delta here is worth a look.
    """
    families = {}
    for key in lm:
        m = OUTCOME_RE.match(key)
        if m:
            families.setdefault(m.group(1), {})[m.group(2)] = key
    if not families:
        return

    def cell(fam, kind):
        key = families[fam].get(kind)
        if key is None:
            return "-"
        new = lm[key]
        old = pm.get(key)
        if old is None:
            return f"{new:g} (new)"
        if old != new:
            return f"{new:g} (was {old:g})"
        return f"{new:g}"

    width = max(len(f) for f in families)
    print("request outcome counts (value (delta vs previous)):")
    header = f"  {'family':<{width}}"
    for kind in OUTCOME_KINDS:
        header += f"  {kind:<14}"
    print(header)
    for fam in sorted(families):
        row = f"  {fam:<{width}}"
        for kind in OUTCOME_KINDS:
            row += f"  {cell(fam, kind):<14}"
        print(row)


def print_fleet_scaling(pm, lm):
    """Render *fleetN_gops families as one scaling row per family.

    bench_backends reports aggregate Gop/s per EngineBackend fleet
    size (1/2/4); one row per family with the largest-vs-smallest
    ratio makes the scaling curve — and any flattening of it —
    readable at a glance.
    """
    families = {}
    for key in lm:
        m = FLEET_RE.match(key)
        if m:
            families.setdefault(m.group(1), {})[int(m.group(2))] = key
    families = {f: sizes for f, sizes in families.items()
                if len(sizes) >= 2}
    if not families:
        return

    def cell(key):
        new = lm[key]
        old = pm.get(key)
        if old is None:
            return f"{new:.4g} (new)"
        if old == 0:
            return f"{new:.4g} (n/a)"
        pct = 100.0 * (new - old) / abs(old)
        return f"{new:.4g} ({pct:+.1f}%)"

    all_sizes = sorted({n for sizes in families.values()
                        for n in sizes})
    width = max(len(f + "fleet_gops") for f in families)
    print("fleet scaling, aggregate Gop/s "
          "(value (delta vs previous)):")
    header = f"  {'family':<{width}}"
    for n in all_sizes:
        header += f"  {'x' + str(n):<20}"
    header += "  scale-up"
    print(header)
    for fam in sorted(families):
        sizes = families[fam]
        row = f"  {fam + 'fleet_gops':<{width}}"
        for n in all_sizes:
            key = sizes.get(n)
            row += f"  {cell(key) if key else '-':<20}"
        lo, hi = min(sizes), max(sizes)
        base = lm[sizes[lo]]
        ratio = (f"{lm[sizes[hi]] / base:.2f}x ({hi}v{lo})"
                 if base else "n/a")
        print(row + f"  {ratio}")


def print_baseline_compare(metrics):
    """Group the *_speedup metrics into baseline-comparison columns.

    Every bench binary that has a faster path also times the
    baseline in the same run and reports the ratio as a nocheck
    `*_speedup` metric, so the whole table comes from one sweep.
    """
    groups = {
        "simd vs scalar": [],
        "threading / other": [],
    }
    for key in sorted(metrics):
        if not key.endswith("_speedup"):
            continue
        if "simd" in key:
            groups["simd vs scalar"].append(key)
        else:
            groups["threading / other"].append(key)
    if not any(groups.values()):
        print("compare-baseline: no *_speedup metrics in the "
              "current results")
        return
    width = max(len(k) for keys in groups.values() for k in keys)
    print("baseline comparison (current results, one run each):")
    for title, keys in groups.items():
        if not keys:
            continue
        print(f"  {title}:")
        for key in keys:
            print(f"    {key:<{width}}  {metrics[key]:.2f}x")


def main():
    ap = argparse.ArgumentParser(
        description="Append/diff the bench timing trajectory.")
    ap.add_argument("--results", default="bench-results",
                    help="directory holding fresh BENCH_*.json")
    ap.add_argument("--file", default=None,
                    help="trajectory file "
                         "(default <results>/trajectory.jsonl)")
    ap.add_argument("--append", action="store_true",
                    help="append a new entry before diffing")
    ap.add_argument("--compare-baseline", action="store_true",
                    help="print simd-vs-scalar and other *_speedup "
                         "columns from the current results")
    args = ap.parse_args()

    path = args.file or os.path.join(args.results,
                                     "trajectory.jsonl")
    if args.compare_baseline:
        if not os.path.isdir(args.results):
            print(f"trajectory_diff: no results dir {args.results}",
                  file=sys.stderr)
            return 2
        metrics, _ = collect(args.results)
        print_baseline_compare(metrics)
        if not args.append:
            return 0
    if args.append:
        if not os.path.isdir(args.results):
            print(f"trajectory_diff: no results dir {args.results}",
                  file=sys.stderr)
            return 2
        metrics, threads = collect(args.results)
        if not metrics:
            print("trajectory_diff: no nocheck metrics found in "
                  f"{args.results}", file=sys.stderr)
            return 2
        entry = {
            "ts": datetime.datetime.now(datetime.timezone.utc)
                      .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "rev": git_rev(),
            "threads": threads,
            "metrics": metrics,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"trajectory_diff: appended {len(metrics)} metrics "
              f"to {path}")

    entries = load_entries(path)
    if not entries:
        print(f"trajectory_diff: {path} is empty; nothing to diff")
        return 0
    if len(entries) == 1:
        print("trajectory_diff: first entry recorded; deltas start "
              "with the next run")
        return 0
    print_diff(entries[-2], entries[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
