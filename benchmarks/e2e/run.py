"""End-to-end benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload <name> [--seed N]
                                  [--seconds S] [--trace [0|1]] [--smoke]

Prints every metric by name with its unit, checks outputs, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding
the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  Exits non-zero on any failed
operation or output mismatch.

The command re-executes itself as a fresh child process per workload with
``PYTHONHASHSEED`` fixed, ``src/`` on the path and ``REPRO_SCALE``
removed (input sizes are fixed in ``gen.py``); everything it writes goes
under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median
from typing import Any, Dict, List

from steady import steady

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: Set-up is repeated at least ``SETUP_REPS`` times, and cheap set-ups
#: (graph generation only) until ``SETUP_SECONDS`` have been spent on them
#: or ``SETUP_MAX`` reps made; ``setup_s`` is their lower quartile.
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 25
#: Timed reps per cell at least, however short ``--seconds`` is.
MIN_REPS = 5
SMOKE_MIN_REPS = 2


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv: List[str], spec: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: gen.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and few reps (for the smoke test)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn_child(argv: List[str]) -> int:
    """Re-run this command in a fresh interpreter with a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    ignored = env.pop("REPRO_SCALE", None)
    if ignored is not None:
        env["E2E_IGNORED_REPRO_SCALE"] = ignored
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", *argv],
        env=env, cwd=ROOT).returncode


def environment(args: argparse.Namespace, sizes: Dict[str, int],
                seed: int) -> Dict[str, Any]:
    import numpy
    from repro.obs.ledger import environment_fingerprint

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        **environment_fingerprint(),  # python, platform, usable_cores, ...
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "sizes": sizes,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "repro_scale_ignored": os.environ.get("E2E_IGNORED_REPRO_SCALE"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def steadies(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Each sample key reduced over reps to its steady value."""
    return {key: steady([s[key] for s in samples]) for key in samples[0]}


def measure(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, warm up, measure for ``--seconds``, verify.  Returns the
    metric values by name plus the raw samples."""
    rec = workload.rec
    setup_s: List[float] = []
    while len(setup_s) < SETUP_REPS or (
            sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX):
        if setup_s:
            workload.teardown()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    def one_rep(rep: int, traced: bool) -> Dict[str, float]:
        gc.collect()
        rec.enabled = traced
        try:
            with rec.span("rep", "benchmark", rep=rep):
                return workload.rep(rep)
        finally:
            rec.enabled = False

    one_rep(-1, False)  # warm-up: imports, plan and dictionary caches
    plain: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    min_reps = SMOKE_MIN_REPS if args.smoke else MIN_REPS
    deadline = time.perf_counter() + args.seconds
    while len(plain) < min_reps or time.perf_counter() < deadline:
        plain.append(one_rep(len(plain), False))
        if args.trace:
            traced.append(one_rep(len(traced), True))
    workload.verify()

    values = workload.summarise(steadies(plain))
    values["setup_s"] = steady(setup_s)
    values["graph_build_s"] = steady(workload.graph_build)
    layers = values
    if args.trace:
        layers = workload.summarise(steadies(traced))
        layers["graph_build_s"] = values["graph_build_s"]
        layers["trace_overhead_frac"] = (
            layers["wall_s"] / values["wall_s"] - 1.0)
    return {"plain": values, "layers": layers,
            "samples": {"plain": plain, "traced": traced},
            "setup_samples": setup_s}


def print_samples(title: str, samples: List[Dict[str, float]]) -> None:
    """Every sampled number as lower quartile (the value the metrics are
    built from), median, min, max and sample count."""
    print(f"-- {title}: lower-quartile  median  min  max  n")
    for key in sorted(samples[0]):
        numbers = [s[key] for s in samples]
        print(f"sample {key:32s} {steady(numbers):.6g}  {median(numbers):.6g}"
              f"  {min(numbers):.6g}  {max(numbers):.6g}  {len(numbers)}")


def report(title: str, declared: List[Dict[str, Any]],
           values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Print the declared metrics; a layer that is idle on this workload
    reports 0.  Returns them in the result-line shape."""
    print(f"-- {title}")
    out = {}
    for metric in declared:
        value = float(values.get(metric["name"], 0.0))
        print(f"{metric['name']:34s} {value:>16.6f} {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def child_main(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    import gen
    from spans import Recorder, validate_trace
    from workloads import WORKLOADS

    seed = gen.DEFAULT_SEED if args.seed is None else args.seed
    sizes = gen.SMOKE_SIZES if args.smoke else gen.SIZES
    os.makedirs(OUT, exist_ok=True)
    tmp_root = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp_root)
    env = environment(args, sizes, seed)
    print(f"workload {args.workload}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    rec = Recorder(enabled=False)
    workload = WORKLOADS[args.workload](seed, sizes, tmp_root, rec,
                                        traced=bool(args.trace))
    try:
        rec.enabled = bool(args.trace)
        with rec.span("workload", "benchmark") as root:
            rec.enabled = False
            try:
                result = measure(workload, args)
            finally:
                workload.teardown()
        layers = result["layers"]
        trace_path = None
        if args.trace:
            workload.fold_program_trace()
            rec.finish()
            layers["attributed_frac"] = rec.attributed_frac()
            trace_path = os.path.join(OUT, f"trace.{args.workload}.jsonl")
            rec.write(trace_path, {"workload": args.workload, "env": env,
                                   "root": root["id"]})
            for problem in validate_trace(trace_path):
                workload.check(False, f"trace: {problem}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    for key in sorted(workload.info):
        print(f"info {key} = {workload.info[key]}")
    samples = result["samples"]
    print(f"reps plain={len(samples['plain'])} traced={len(samples['traced'])}"
          f"  setups={len(result['setup_samples'])}")
    print_samples("untraced reps", samples["plain"])
    if args.trace:
        print_samples("traced reps", samples["traced"])
    end_to_end = report("end-to-end (untraced reps, lower quartiles)",
                        spec["end_to_end"], result["plain"])
    per_layer = report(
        "per-layer (traced reps)" if args.trace
        else "per-layer (untraced reps; --trace 1 adds the obs metrics)",
        spec["per_layer"], layers)
    if args.trace:
        print("-- self seconds by span name (traced reps)")
        for name, seconds in sorted(rec.self_by_name().items()):
            print(f"{name:34s} {seconds:>16.6f} s")
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    for note in workload.notes:
        print(f"FAILED: {note}")

    correct = workload.failed == 0
    line = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": per_layer if args.trace else end_to_end,
    }
    with open(os.path.join(OUT, f"result.{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "info": workload.info, "notes": workload.notes,
                   "end_to_end": end_to_end, "per_layer": per_layer,
                   "samples": samples, **line}, fh, indent=1, sort_keys=True,
                  default=repr)
    print(f"failed_frac {workload.failed / workload.attempted:.6f} "
          f"({workload.failed}/{workload.attempted})")
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not args.child:
        return spawn_child(argv)
    try:
        return child_main(args, spec)
    except Exception:  # noqa: BLE001 - report, then fail without a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
