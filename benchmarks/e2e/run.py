"""The repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]

runs each workload in a fresh subprocess, twice: an untraced pass that
gives the end-to-end metrics, then a traced pass over the same op stream
that gives the per-layer metrics and a time budget.  It prints every metric
by name with its unit and kind (wall / modeled / count), checks every
output, and exits non-zero when any check failed.

The driver's form adds ``--trace 0|1`` and reads the last line of output:
``--trace 0`` makes the untraced pass only and reports the end-to-end
metrics; ``--trace 1`` makes both passes (tracing overhead is the
difference between them) and reports the per-layer metrics.

``--seconds`` scales the amount of work; op counts are sized so that one
timed phase takes about that long on the sandbox the benchmark was written
on.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

#: A pass must leave the driver's 180 s per run with room for the other.
PASS_TIMEOUT_SECONDS = 85


def run_pass(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One pass in a fresh process; raises when it did not produce a
    result."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--traced", str(int(traced))],
        stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_SECONDS)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload}: {'traced' if traced else 'untraced'} pass exited "
            f"with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end_values(untraced: dict) -> dict:
    return {m.name: untraced[m.name] for m in metrics.END_TO_END}


def per_layer_values(untraced: dict, traced: dict) -> dict:
    """Every per-layer metric: client-visible ``e2e.*`` numbers from the
    untraced pass, everything else from the traced one, 0 where a metric
    does not apply to the workload."""
    values = {m.name: 0.0 for m in metrics.PER_LAYER}
    layers = dict(traced["layers"])
    layers.update({name: value for name, value in untraced["layers"].items()
                   if name.startswith("e2e.")})
    # Each pass's wall in reference seconds: the machine's speed differs
    # between the passes by more than tracing costs.
    layers["obs.trace_overhead_share"] = (
        (traced["wall_s"] / traced["slowdown"])
        / (untraced["wall_s"] / untraced["slowdown"]) - 1)
    unknown = sorted(set(layers) - set(values))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {unknown}")
    values.update(layers)
    return values


def envelope(passes: list[dict], values: dict, catalogue: list) -> dict:
    """The driver's result object."""
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in catalogue},
    }


# ----------------------------------------------------------------------
# The report for people
# ----------------------------------------------------------------------

def _format(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value == 0 or 0.01 <= abs(value) < 1e7:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def _print_metrics(title: str, catalogue: list, values: dict,
                   workload: str) -> None:
    print(f"  {title}")
    for metric in catalogue:
        if workload in metric.on:
            print(f"    {metric.name:<32} {_format(values[metric.name]):>14}"
                  f" {metric.unit:<7} {metric.kind}")


def _print_budget(title: str, rows: list, wall: float, lanes: int) -> None:
    print(f"  {title}: self times sum to {wall:.3f} s timed wall x "
          f"{lanes} thread(s)")
    print(f"    {'span':<30} {'calls':>8} {'wall s':>9} {'self s':>9} "
          f"{'share':>6}")
    for name, count, span_wall, self_s, share in rows:
        print(f"    {name:<30} {count:>8} {span_wall:>9.3f} {self_s:>9.3f} "
              f"{share:>6.1%}")


def print_report(workload: str, untraced: dict, traced: dict | None) -> None:
    print(f"== {workload}: {metrics.WORKLOADS[workload]}")
    for which, result in (("untraced", untraced), ("traced", traced)):
        if result is None:
            continue
        print(f"  {which} pass: {result['ops']} ops in "
              f"{result['wall_s']:.3f} s timed wall, "
              f"{result['attempted']} checks, {result['failed']} failed")
        for failure in result["failures"]:
            print(f"    FAILED: {failure}")
        for text in result["invariants"]:
            print(f"    invariant: {text}")
    _print_metrics("end-to-end (untraced pass)", metrics.END_TO_END,
                   end_to_end_values(untraced), workload)
    if traced is None:
        return
    _print_metrics("per-layer (traced pass; e2e.* from the untraced pass)",
                   metrics.PER_LAYER, per_layer_values(untraced, traced),
                   workload)
    _print_budget("time budget", traced["budget"], traced["wall_s"],
                  traced["lanes"])
    if "server_budget" in traced:
        _print_budget("time budget, server process",
                      traced["server_budget"], traced["wall_s"],
                      traced["lanes"])
    print(f"  trace files: {', '.join(traced['trace_files'])}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(HERE, "..", "..", "src", "repro")):
        print("benchmarks/e2e: src/repro, the program under test, is not "
              "in this checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    results = {}
    for name in names:
        untraced = run_pass(name, args.seed, args.seconds, traced=False)
        traced = (None if args.trace == 0 else
                  run_pass(name, args.seed, args.seconds, traced=True))
        print_report(name, untraced, traced)
        result = {}
        if args.trace != 1:
            result["end_to_end"] = envelope(
                [untraced], end_to_end_values(untraced), metrics.END_TO_END)
        if traced is not None:
            result["per_layer"] = envelope(
                [untraced, traced], per_layer_values(untraced, traced),
                metrics.PER_LAYER)
        results[name] = result

    correct = all(part["correct"] for result in results.values()
                  for part in result.values())
    print("all outputs correct" if correct else "SOME OUTPUTS WERE WRONG")
    if args.workload and args.trace is not None:
        # The driver's form: its result object is the last line.
        (result,) = results[args.workload].values()
        print(json.dumps(result))
    else:
        print(json.dumps(results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
