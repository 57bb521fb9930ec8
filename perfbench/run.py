"""Benchmark of dsae, end to end and per layer.

    python3 perfbench/run.py --workload {train-linear,train-neural,mine} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from its
``src/`` directory, never from an installed copy. The seed makes the
inputs. Set-up is repeated and its median reported as ``setup_s``; then
whole rounds of the workload run until ``--seconds`` have passed (at least
two timed rounds, after the workload's warm-up rounds). With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics, the same four for every workload; with ``--trace 1`` set-up runs once
and rounds alternate between untraced and traced, and the JSON object holds
the per-layer metrics and the tracing overhead. Lines before it repeat the
metrics in readable form. See README.md.
"""

from __future__ import annotations

import os

# One process, one thread: BLAS must not add threads of its own. These are
# read when numpy loads, so they are set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2
# Set-ups per untraced run; the longer a set-up, the fewer repeats fit.
SETUPS = {"train-linear": 9, "train-neural": 5, "mine": 2}

# end-to-end metric -> unit; every workload reports each of them
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
    "quality_f1": "1",
}
# traced-run metrics that are not layer readings -> unit
TRACE_METRICS = {"trace.overhead_s": "s", "trace.overhead_pct": "%", "trace.absent": "count"}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check that
    ``dsae`` comes from there."""
    package = SRC / "dsae"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no dsae sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dsae
    if Path(dsae.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: dsae imported from {dsae.__file__}, not {package}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-linear", "train-neural", "mine"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run(args, workdir: Path) -> dict:
    import workloads
    from checks import CheckFailed
    from tracing import PER_LAYER, Tracer

    tracer = Tracer() if args.trace else None
    setups = []
    for _ in range(1 if tracer else SETUPS[args.workload]):
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        started = time.perf_counter()
        workload.generate()
        if tracer:
            tracer.install(workloads)
        try:
            workload.prepare()
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(time.perf_counter() - started)
    setup_layers = tracer.metrics() if tracer else {}

    correct, attempted, failed = True, 0, 0
    rounds, walls, traced_walls, traced_layers = [], [], [], []
    n_rounds, warmup = 0, workload.warmup_rounds
    started = time.perf_counter()
    while n_rounds < warmup + MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        # warm-up rounds are run, counted and checked, but not timed
        timed = n_rounds >= warmup
        traced = tracer is not None and timed and (n_rounds - warmup) % 2 == 1
        n_rounds += 1
        if traced:
            tracer.reset()
            tracer.install(workloads)
        attempted += workload.ops_per_round
        began = time.perf_counter()
        try:
            result = workload.round()
        except Exception:
            traceback.print_exc()
            failed += workload.ops_per_round
            continue
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - began
        if not timed:
            pass
        elif traced:
            traced_walls.append(wall)
            traced_layers.append(tracer.metrics())
        else:
            walls.append(wall)
            # keep the figures only, so memory does not grow with the round count
            rounds.append(workloads.Round(result.times, result.scores))
        try:
            workload.check(result)
        except CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
    if not rounds or (tracer and not traced_layers):
        raise SystemExit("error: no round completed")

    if tracer:
        values = {name: setup_layers[name] + statistics.median(r[name] for r in traced_layers)
                  for name in setup_layers}
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(walls)
        values["trace.absent"] = float(len(tracer.absent))
        units.update(TRACE_METRICS)
        details = {}
        for target in tracer.absent:
            print(f"absent entry point: {target}")
    else:
        values = workload.metrics(rounds)
        values["setup_s"] = statistics.median(setups)
        # ru_maxrss is in KiB on Linux
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        details = workload.details(rounds)
    if set(values) != set(units):
        raise SystemExit(f"error: {args.workload} reports {sorted(values)}, "
                         f"END_TO_END lists {sorted(units)}")
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} untraced and "
          f"{len(traced_walls)} traced rounds, {len(setups)} set-ups")
    for name, (value, unit) in details.items():
        print(f"  detail {name} = {value:.6g} {unit}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted {attempted} failed {failed} correct {correct}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = ROOT / "perfbench" / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
