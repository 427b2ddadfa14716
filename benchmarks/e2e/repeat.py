"""Is the benchmark steady?  Run it in sets and compare the sets.

    python3 benchmarks/e2e/repeat.py --sets 2 --runs 5

runs the whole benchmark ``sets`` times ``runs`` times — run *i* of every
set uses seed *i* — and prints, per workload and metric, each set's median,
quartiles and spread (interquartile distance over median).  It then

* asserts that exact metrics (modeled ones everywhere, counts on the
  single-threaded workloads) are bit-identical between the sets, seed by
  seed;
* checks each end-to-end metric's medians, set against set, with the bound
  ``BENCHMARK.json`` gives it, and its spread against that bound;
* reports a comparison as *unresolved*, neither passed nor failed, when the
  two sets' ``bench.calib_ms`` medians differ by more than a tenth: the CPU
  was not equally fast for both.

``--untraced`` skips the traced passes (end-to-end metrics only, no
calibration), which is how the ten-seed spreads in README.md were measured.
Exits non-zero on a failed assertion or check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..", "..")
sys.path.insert(0, HERE)

import metrics  # noqa: E402

SINGLE_THREADED = (metrics.FILL_RANDOM, metrics.READ_RANDOM,
                   metrics.OFFLOAD_MODEL)
CALIB_TOLERANCE = 0.10


def run_once(workload: str, seed: int, seconds: float,
             untraced: bool) -> dict:
    """``{metric: value}`` of one invocation, both passes unless
    ``untraced``."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds)]
    if untraced:
        command += ["--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    parts = [last] if untraced else list(last[workload].values())
    if done.returncode != 0 or not all(part["correct"] for part in parts):
        raise SystemExit(f"{workload} seed {seed}: run failed its checks")
    return {name: entry["value"] for part in parts
            for name, entry in part["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(metric, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if metric.better == "higher" else change


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--workload", action="append",
                        choices=list(metrics.WORKLOADS))
    parser.add_argument("--untraced", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or list(metrics.WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}

    # runs[workload][set][run] = {metric: value}
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for set_no in range(args.sets):
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                print(f"set {set_no + 1} seed {seed} {workload}",
                      file=sys.stderr, flush=True)
                runs[workload][set_no].append(
                    run_once(workload, seed, args.seconds, args.untraced))

    problems = []
    catalogue = metrics.END_TO_END + ([] if args.untraced
                                      else metrics.PER_LAYER)
    for workload in workloads:
        print(f"== {workload}")
        sets = runs[workload]
        calib = [statistics.median(run["bench.calib_ms"] for run in one)
                 for one in sets] if not args.untraced else []
        unresolved = any(
            abs(c - calib[0]) > CALIB_TOLERANCE * calib[0] for c in calib)
        if calib:
            print("  bench.calib_ms medians: "
                  + ", ".join(f"{c:.2f}" for c in calib)
                  + ("  -> comparisons UNRESOLVED" if unresolved else ""))
        for metric in catalogue:
            if workload not in metric.on:
                continue
            stats = [summary([run[metric.name] for run in one])
                     for one in sets]
            line = f"  {metric.name:<32}" + "".join(
                f"  {median:>12.5g} [{q1:.5g}, {q3:.5g}] {spread:>6.1%}"
                for median, q1, q3, spread in stats)
            verdicts = []
            exact = metric.kind == metrics.MODELED or (
                metric.kind == metrics.COUNT and workload in SINGLE_THREADED)
            if exact:
                same = all(one[i][metric.name] == sets[0][i][metric.name]
                           for one in sets for i in range(args.runs))
                verdicts.append("exact" if same else "NOT EXACT")
                if not same:
                    problems.append(f"{workload} {metric.name}: differs "
                                    "between sets on the same seed")
            bound = bounds.get(metric.name)
            if bound is not None and not exact:
                spread = max(s[3] for s in stats)
                if metric.name != "setup_s" and spread > bound:
                    verdicts.append(f"SPREAD {spread:.1%} > bound {bound:.0%}")
                    problems.append(f"{workload} {metric.name}: spread "
                                    f"{spread:.1%} exceeds bound {bound:.0%}")
                for later in stats[1:]:
                    worse = worse_by(metric, stats[0][0], later[0])
                    if worse <= bound:
                        verdicts.append(f"within {bound:.0%}")
                    elif unresolved:
                        verdicts.append(f"unresolved ({worse:+.1%})")
                    else:
                        verdicts.append(f"WORSE {worse:+.1%}")
                        problems.append(
                            f"{workload} {metric.name}: later median worse "
                            f"by {worse:.1%}, bound {bound:.0%}")
            print(line + "  " + ", ".join(verdicts))
    for problem in problems:
        print("PROBLEM:", problem)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
