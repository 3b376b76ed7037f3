"""One run of one benchmark workload.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload serve_steady --seed 3 --seconds 15 \\
        --trace 0

Prints a human-readable report, then, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  A traced run also writes its
spans to ``--trace-out`` (a run log ``python -m repro obs report`` reads).
Layers a workload does not run read 0.

Exits non-zero without a result when it cannot run, e.g. outside a full
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("train_scale", "train_meta_head", "serve_steady", "serve_mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="run-log path of a traced run (default "
                             ".bench_work/traces/<workload>-seed<seed>.jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, measures "
                             "nothing useful")
    return parser.parse_args(argv)


def _metrics(result: dict, spec: dict, traced: bool) -> dict:
    """Values keyed by metric name, with units from ``BENCHMARK.json``."""
    listed = spec["per_layer" if traced else "end_to_end"]
    values = result["layers" if traced else "values"]
    units = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {unknown}")
    if not traced:
        missing = sorted(set(units) - set(values))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {name: (values.get(name, 0.0), unit)
            for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: {ROOT} is not a full checkout (no src/repro or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from bench import serve, train
    from bench.measure import RSS_SOURCE, Ledger, result_line, write_trace

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = None
    if args.trace:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        tracer.write_manifest(command="bench", workload=args.workload,
                              seed=args.seed, seconds=args.seconds,
                              smoke=args.smoke)
    ledger = Ledger(tracer)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload.startswith("train_"):
            result = train.run(args.workload, args.seed, args.seconds,
                               ledger, smoke=args.smoke)
        else:
            result = serve.run(args.workload, args.seed, args.seconds,
                               ledger, work_dir, smoke=args.smoke)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = _metrics(result, spec, bool(args.trace))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for line in result["report"]:
        print(f"  {line}")
    print(f"  peak RSS source: {RSS_SOURCE}")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    if tracer is not None:
        path = args.trace_out or (ROOT / ".bench_work" / "traces"
                                  / f"{args.workload}-seed{args.seed}.jsonl")
        write_trace(tracer, path)
        print(f"  trace written to {path}")
    # The program's shared memory starts multiprocessing's resource
    # tracker; stop it and wait for it so no process outlives the run.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    print(result_line(result["failed"] == 0, result["attempted"],
                      result["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
