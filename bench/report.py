"""Every metric of every workload by name and unit, then the baseline rows.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py once untraced and once traced for each workload
(including riccati-only, which BENCHMARK.json leaves out of the timed
set), prints each end-to-end and per-layer metric with its unit (plus the
error rate and the correctness verdict), and finally the ROADMAP
"Baseline" table rows computed from the four traces (bench/baseline.py).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import baseline

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_TIMEOUT_S = 600
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    traces = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            res = run(name, args.seed, seconds, trace)
            rate = res["failed"] / res["attempted"]
            print(f"{name:16s} {'correct':34s} {str(res['correct']):>12s}")
            print(f"{name:16s} {'error_rate':34s} {rate:12.6g} fraction "
                  f"({res['failed']}/{res['attempted']})")
            for metric, m in res["metrics"].items():
                print(f"{name:16s} {metric:34s} {m['value']:12.6g} "
                      f"{m['unit']}")
        traces.append(os.path.join(BENCH, "_work", name, "trace.json"))
    print()
    return baseline.main(traces)


if __name__ == "__main__":
    sys.exit(main())
