"""Repeatability self-check: does the benchmark agree with itself?

    python3 benchmarks/e2e/check_repeat.py [--runs N] [--workload NAME ...]
                                           [--seconds S] [--seed N] [--smoke]

Runs every workload ``--runs`` times on this commit (each run on its own
seed, as the driver does) and reports, per end-to-end metric: the values,
their relative gap ``(max - min) / median``, the spread between the first
and third quartile as a share of the median (from four runs up), and the
metric's bound from ``BENCHMARK.json``.  A gap over the bound fails; so
does any run that is incorrect.  A bound wider than the defaults is only
ever set from the spread this script measured (README, "Bounds").
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload: str, seed: int, extra: List[str]) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    extra = ["--smoke"] if args.smoke else []
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]

    failures = 0
    for workload in args.workload or names:
        runs = [run_once(workload, args.seed + i, extra)
                for i in range(args.runs)]
        failures += sum(not run["correct"] for run in runs)
        print(f"{workload}: {args.runs} runs, "
              f"failed ops {[run['failed'] for run in runs]}")
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            mid = median(values)
            gap = (max(values) - min(values)) / mid
            text = f"  {metric['name']:10s} median {mid:12.6g} {metric['unit']:3s}" \
                   f" gap {gap:7.2%}"
            if len(values) >= 4:
                q1, _q2, q3 = quantiles(values, n=4)
                text += f"  iqr/median {(q3 - q1) / mid:7.2%}"
            verdict = "ok" if gap <= metric["bound"] else "OVER"
            # setup_s is gated on its median moving, not on its spread
            if verdict == "OVER" and metric["name"] != "setup_s":
                failures += 1
            print(f"{text}  bound {metric['bound']:.0%}  {verdict}"
                  f"  values {[float(f'{v:.5g}') for v in values]}")
    print("PASS" if not failures else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
