"""Run one benchmark workload on one seed, in one process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are listed in BENCHMARK.json and documented in bench/README.md.
The run generates its inputs from the seed under bench/_work/<workload>/,
repeats whole passes of the workload body until ``--seconds`` have
elapsed, checks every output, and prints one line per metric followed by
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` reports the per-layer metrics of a traced pass and writes its spans
to bench/_work/<workload>/trace.json.  Exits non-zero without a result
when the library source (src/affine_libor) is missing.
"""

from __future__ import annotations

import os
import sys

# Cap the BLAS and OpenMP pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# Fresh interpreters per run for setup_s: one to warm the file cache and
# the bytecode cache, then this many timed; the median is reported.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60


@dataclass
class Pass:
    wall: float
    latencies: list
    outputs: list
    layers: dict = field(default_factory=dict)


def _env_info(seed: int) -> dict:
    import numpy
    import scipy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def measure_setup(manifest_path: str) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(BENCH, "setup_child.py"),
           manifest_path]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(ops, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    An op that raises is recorded as failed and the pass goes on; the
    first traceback of each op is printed to stderr.
    """
    from tracer import layer_metrics

    passes = []
    reported = set()
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        if tracer is not None:
            since, counters = tracer.mark()
        raws, lat = [], []
        t_pass = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.label)
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                raw = exc
            lat.append(time.perf_counter() - t0)
            raws.append(raw)
        wall = time.perf_counter() - t_pass
        outputs = []
        for op, raw in zip(ops, raws):
            if not isinstance(raw, Exception):
                try:
                    raw = op.collect(raw)
                except Exception as exc:  # noqa: BLE001
                    raw = exc
            if isinstance(raw, Exception) and op.label not in reported:
                reported.add(op.label)
                print(f"op {op.label!r} failed:", file=sys.stderr)
                traceback.print_exception(raw, file=sys.stderr)
            outputs.append(raw)
        p = Pass(wall, lat, outputs)
        if tracer is not None:
            p.layers = layer_metrics(tracer.group_stats(since),
                                     tracer.counters_since(counters))
        passes.append(p)
    return passes


def _same(a, b) -> bool:
    import numpy as np
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def check(workload, ops, passes) -> tuple[int, int]:
    """(attempted, failed) over all passes.

    The first pass is gated against references and tolerances; a later
    pass must reproduce its outputs exactly (fixed inputs give identical
    output) or its ops count as failed.
    """
    first = passes[0].outputs
    failed_first = workload.gate(ops, first)
    attempted = failed = 0
    for p in passes:
        for op, out, ref, bad in zip(ops, p.outputs, first, failed_first):
            attempted += op.units
            failed += bad if p is passes[0] or _same(out, ref) else op.units
    for op, bad in zip(ops, failed_first):
        if bad:
            print(f"gate: {op.label}: {bad}/{op.units} failed",
                  file=sys.stderr)
    return attempted, failed


def end_to_end(ops, passes, setup_s: float) -> dict:
    cells = sum(op.cells for op in ops)
    p90 = [statistics.quantiles(p.latencies, n=10, method="inclusive")[8]
           if len(p.latencies) > 1 else p.latencies[0] for p in passes]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cells_per_s": statistics.median(cells / p.wall for p in passes),
        "cmd_p50_ms": 1e3 * statistics.median(
            statistics.median(p.latencies) for p in passes),
        "cmd_p90_ms": 1e3 * statistics.median(p90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "affine_libor", "__init__.py")):
        print(f"error: library source not found under {SRC}",
              file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import affine_libor
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH, "_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    manifest_path = os.path.join(workdir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(wl.manifest, fh)
    env = _env_info(args.seed)
    env["workload"] = args.workload
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        setup_s = measure_setup(manifest_path)
        wl.load()
        ops = wl.ops()
        passes = run_passes(ops, args.seconds)
        metrics = end_to_end(ops, passes, setup_s)
        declared = spec["end_to_end"]
        all_passes = passes
    else:
        tracer = Tracer(affine_libor)
        with tracer:
            tracer.begin_op("setup")
            wl.load()
        load_s = tracer.group_stats().get("cli.load", {}).get("s", 0.0)
        plain_ops = wl.ops()
        plain = run_passes(plain_ops, 0.5 * args.seconds)
        ops = wl.ops(tracer)
        with tracer:
            passes = run_passes(ops, 0.5 * args.seconds, tracer)
        metrics = {"cli.load.s": load_s}
        for key in passes[0].layers:
            metrics[key] = statistics.median(p.layers[key] for p in passes)
        metrics["trace.overhead_s"] = \
            statistics.median(p.wall for p in passes) \
            - statistics.median(p.wall for p in plain)
        declared = spec["per_layer"]
        all_passes = plain + passes
        tracer.dump(os.path.join(workdir, "trace.json"),
                    {"workload": args.workload, "env": env})

    attempted, failed = check(wl, ops, all_passes)
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) ^ set(metrics)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on "
              f"{sorted(missing)}", file=sys.stderr)
        return 3
    print(f"passes {len(all_passes)}  ops/pass {len(ops)}  "
          f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    print("pass wall_s " + " ".join(f"{p.wall:.4g}" for p in all_passes))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
