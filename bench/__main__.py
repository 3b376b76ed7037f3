"""Run the benchmark suite: every workload, several seeds, one traced run.

Usage (from the root of a checkout)::

    python3 -m bench [--workload NAME ...] [--seed S] [--runs R]
                     [--no-trace] [--out PATH]

Each run is a fresh ``bench/run.py`` process measuring ``run_seconds`` of
``BENCHMARK.json``.  A workload gets ``R`` untraced runs on seeds
``S .. S+R-1`` and, unless ``--no-trace``, one traced run on seed ``S``.
Prints, per workload, every end-to-end metric with its unit (median, min,
max and the spread: the distance between the quartiles as a share of the
median) and every per-layer metric of the traced run.  Exits 1 if any run
failed a correctness check or produced no result, or if the quality
metrics, which come from inputs every run shares, differ between runs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = pathlib.Path(__file__).resolve().parent / "run.py"

#: A run that takes longer than this has failed.
RUN_TIMEOUT_S = 180

#: End-to-end metrics every run of a workload must report identically.
DETERMINISTIC = ("test_mauc", "test_wks")


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload: str, seed: int, seconds: int,
             trace: bool) -> dict | None:
    """One ``bench/run.py`` process; its result, or None if it gave none."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    start = time.perf_counter()
    try:
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {workload} seed {seed}: no result within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {completed.returncode}\n"
              f"{completed.stderr[-2000:]}", file=sys.stderr)
        return None
    tag = f"    [seed {seed}{' traced' if trace else ''}]"
    for line in lines[:-1]:
        if line.lstrip().startswith(("FAIL", "fits", "lo:", "hi:", "flood",
                                     "trace written")):
            print(f"{tag} {line.strip()}")
    print(f"{tag} run took {time.perf_counter() - start:.1f} s")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write every run's result as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    ok = True
    payload: dict = {"seconds": seconds, "workloads": {}}
    for workload in args.workload:
        seeds = list(range(args.seed, args.seed + args.runs))
        print(f"## {workload}: {len(seeds)} runs on seeds "
              f"{seeds[0]}..{seeds[-1]}, {seconds} s each")
        runs = [run_once(workload, seed, seconds, False) for seed in seeds]
        traced = (None if args.no_trace else
                  run_once(workload, args.seed, seconds, True))
        results = [r for r in runs + [traced] if r is not None]
        expected = len(runs) + (0 if args.no_trace else 1)
        if len(results) < expected or not all(r["correct"] for r in results):
            ok = False
        print(f"  runs with a result: {len(results)}/{expected}; "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}")
        summary = {}
        measured = [r for r in runs if r is not None]
        for name in DETERMINISTIC:
            if len({r["metrics"][name]["value"] for r in measured}) > 1:
                ok = False
                print(f"  FAIL {name} differs between runs")
        print(f"  {'metric':<22} {'unit':<7} {'median':>12} {'min':>12} "
              f"{'max':>12} {'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in measured]
            if not values:
                continue
            entry = {"median": statistics.median(values), "min": min(values),
                     "max": max(values), "spread": spread(values),
                     "values": values}
            summary[metric["name"]] = entry
            print(f"  {metric['name']:<22} {metric['unit']:<7} "
                  f"{entry['median']:>12.6g} {entry['min']:>12.6g} "
                  f"{entry['max']:>12.6g} {entry['spread']:>7.2%} "
                  f"{metric['bound']:>6.2%}")
        if traced is not None:
            print("  per layer (traced run):")
            for metric in spec["per_layer"]:
                value = traced["metrics"][metric["name"]]["value"]
                print(f"    {metric['name']:<42} {value:>12.6g} "
                      f"{metric['unit']}")
        payload["workloads"][workload] = {
            "seeds": seeds, "runs": runs, "traced": traced,
            "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print("all correctness checks passed" if ok else
          "FAILED: a run failed a correctness check or gave no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
