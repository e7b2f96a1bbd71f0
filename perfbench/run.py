"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-carol --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a traced
run's per-layer ledger and metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the default OpenBLAS is
# multi-threaded, which makes timings depend on the core count and on
# neighbours.  Forked fleet workers inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    """Make the package under test and the record comparer importable."""
    for path in (HERE, os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import compare_records  # noqa: F401
        import repro.experiments.fleet  # noqa: F401  (warm every layer's imports)
        import repro.storage.sqlite  # noqa: F401
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program under test ({error}); "
                 "run from a full checkout of the repository")


def machine_context() -> str:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"nproc={nproc} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    _import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# machine: {machine_context()}")
    print(f"# grid: {workload.draws} campaigns (seeds {args.seed * workload.draws}.."
          f"{args.seed * workload.draws + workload.draws - 1}) of {workload.scenario} x "
          f"{','.join(workload.models)} x {workload.n_intervals} intervals, "
          f"{workload.decisions_per_round} decisions per round, "
          + (f"fleet over tcp with {workloads.FLEET_WORKERS} workers and a sqlite store"
             if workload.fleet else "serial"))

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        outcome = workloads.measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    wanted = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(f"# measured campaigns: {outcome.executions}   records digest: {outcome.digest}")
    if outcome.slowness:
        print(f"# machine slowness {outcome.slowness:.3f} (mean calibration time over "
              f"{workloads.CAL_REFERENCE_S} s per iteration); times below are scaled "
              "to slowness 1")
    if outcome.ledger:
        print("# per-layer ledger (seconds per round; self = total minus wrapped children)")
        for line in outcome.ledger:
            print("  " + line)
    for name, unit, better in wanted:
        metric = outcome.metrics.get(name)
        if metric is not None:
            print(f"{name:<28}{metric.value:>14.6g} {unit:<6} ({better} is better) {metric.note}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"{'cell_error_rate':<28}{error_rate:>14.6g} ratio  "
          f"({outcome.failed} of {outcome.attempted} cells failed or poisoned)")
    for name, ok, detail in outcome.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))

    missing = [name for name, _unit, _better in wanted if name not in outcome.metrics]
    correct = outcome.correct and not missing
    if missing:
        print(f"# FAIL: metrics not measured: {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name].value, "unit": unit}
            for name, unit, _better in wanted
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
