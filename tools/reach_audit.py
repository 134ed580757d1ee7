"""Reach audit: list the ``src/repro`` functions no deliverable calls.

    python3 tools/reach_audit.py [--root DIR]

Copies the tree at ``--root`` (default: this checkout) into a temporary
directory, then runs every deliverable from that copy with a
``sitecustomize`` on ``PYTHONPATH`` that installs ``sys.setprofile`` and
``threading.setprofile`` hooks.  Each process appends the first call of
every ``src/repro`` code object to its own file as it happens, so a
subprocess that is killed (the ``repro serve`` the e2e benchmark starts)
still reports.  The deliverables are:

* the five ``examples/*.py``;
* the four ``benchmarks/e2e`` workloads with ``--smoke`` (the
  ``serve-mixed`` server subprocess included);
* ``benchmarks/paper/run.py --smoke``;
* the CLI invocations in ``CLI_STEPS``, over a store captured first.

It then prints every function (``def``, decorators included) that none of
them called, with its line count, and the total.  Totals count each line
once: a never-called function nested in a never-called function adds
nothing.  Lambdas and comprehensions are part of their enclosing function.
A never-called function is not necessarily dead: tests, served paths and
data-dependent lanes the drivers did not exercise reach some of them.

Everything is written under the temporary directory, which is removed at
the end; nothing is written into the checkout.
The run takes several minutes (the profile hook slows every call), so it
is not a CI step.  Exits 1 when a driver exits non-zero, and prints the
driver's last output lines: the list may then be incomplete.  The
Section 6 driver checks timing orderings, which the hook's slowdown can
flip; it checks them after every cell has run, so a failed ordering
costs the list nothing.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-driver wall-clock limit, in seconds.
DRIVER_TIMEOUT = 1800

SITECUSTOMIZE = r'''
import os
import sys
import threading

_PREFIX = os.environ["REACH_AUDIT_SRC"]
_OUT_DIR = os.environ["REACH_AUDIT_OUT"]
# Holds every code object seen, so a freed one (a module's or class
# body's, once executed) cannot hand its id to a function's code object.
_seen = {}
_out = []


def _record(code):
    if not _out:
        path = os.path.join(_OUT_DIR, "calls.%d.txt" % os.getpid())
        _out.append(open(path, "a", encoding="utf-8"))
    fh = _out[0]
    fh.write("%s\t%d\t%s\n" % (code.co_filename, code.co_firstlineno,
                                code.co_name))
    fh.flush()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        key = id(code)
        if key not in _seen:
            _seen[key] = code
            if code.co_filename.startswith(_PREFIX):
                _record(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''

#: CLI invocations, run in order from the copy's root.  ``{w}`` is the
#: work directory; the store and trace the capture step writes are read
#: by the steps after it.
CLI_STEPS: List[List[str]] = [
    ["datasets"],
    ["run", "--analytic", "pagerank", "--dataset", "IN-04"],
    ["apt", "--analytic", "sssp", "--dataset", "IN-04", "--eps", "0.1"],
    ["monitor", "--analytic", "sssp", "--dataset", "IN-04",
     "--query", "query6"],
    ["capture", "--analytic", "sssp", "--dataset", "IN-04",
     "--out", "{w}/store", "--trace", "{w}/capture.jsonl"],
    ["query", "--store", "{w}/store", "--query", "query10",
     "--param", "alpha=5", "--param", "sigma=15"],
    ["query", "--store", "{w}/store", "--query", "query10",
     "--param", "alpha=5", "--param", "sigma=15", "--mode", "naive"],
    ["query", "--store", "{w}/store", "--query", "query10",
     "--param", "alpha=5", "--param", "sigma=15", "--json"],
    ["inspect", "--store", "{w}/store"],
    ["inspect", "--store", "{w}/store", "--vertex", "5"],
    ["explain", "--query", "query1", "--param", "eps=0.1"],
    ["explain", "--verbose", "--query", "query1", "--param", "eps=0.1"],
    ["export", "--store", "{w}/store", "--out", "{w}/export.jsonl"],
    ["stats", "{w}/capture.jsonl"],
    ["stats", "{w}/capture.jsonl", "--validate"],
    ["stats", "{w}/capture.jsonl", "--format", "otel",
     "--out", "{w}/otel.json"],
    ["stats", "{w}/capture.jsonl", "--format", "otel", "--validate"],
    ["audit", "list", "--store", "{w}/store"],
    ["audit", "show", "--store", "{w}/store", "latest"],
    ["audit", "verify", "--store", "{w}/store"],
    ["audit", "diff", "--store", "{w}/store", "latest:capture",
     "latest:query"],
    ["store", "migrate", "{w}/store"],
]

E2E_WORKLOADS = ("online-monitor", "capture-seal", "offline-query",
                 "serve-mixed")

Key = Tuple[str, int]  # (path relative to src/repro, first line)


def copy_tree(root: str, dest: str) -> None:
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
        ".benchmarks", "*.egg-info", "out")
    for name in ("src", "benchmarks", "examples"):
        shutil.copytree(os.path.join(root, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy2(os.path.join(root, "BENCHMARK.json"), dest)


def drivers(tree: str, work: str) -> List[Tuple[str, List[str]]]:
    py = sys.executable
    out: List[Tuple[str, List[str]]] = []
    for path in sorted(glob.glob(os.path.join(tree, "examples", "*.py"))):
        out.append((f"examples/{os.path.basename(path)}", [py, path]))
    for workload in E2E_WORKLOADS:
        out.append((f"e2e {workload} --smoke",
                    [py, "benchmarks/e2e/run.py", "--workload", workload,
                     "--smoke"]))
    out.append(("paper run.py --smoke",
                [py, "benchmarks/paper/run.py", "--smoke"]))
    for step in CLI_STEPS:
        argv = [arg.replace("{w}", work) for arg in step]
        out.append(("repro " + " ".join(step), [py, "-m", "repro", *argv]))
    return out


def inventory(src: str) -> Dict[Key, Tuple[str, Set[int]]]:
    """Every ``def`` under ``src``: (file, first line) -> (name, lines).

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: Dict[Key, Tuple[str, Set[int]]] = {}
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, src)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found[(rel, first)] = (
                        name, set(range(first, child.end_lineno + 1)))
                    walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def called(out_dir: str, src: str) -> Set[Key]:
    keys: Set[Key] = set()
    for path in glob.glob(os.path.join(out_dir, "calls.*.txt")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 3:
                    keys.add((os.path.relpath(parts[0], src), int(parts[1])))
    return keys


def count_lines(keys: List[Key],
                funcs: Dict[Key, Tuple[str, Set[int]]]) -> int:
    lines: Set[Tuple[str, int]] = set()
    for key in keys:
        lines.update((key[0], n) for n in funcs[key][1])
    return len(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT,
                        help="tree to audit (default: this checkout)")
    args = parser.parse_args(argv)

    base = tempfile.mkdtemp(prefix="reach-audit-")
    try:
        tree = os.path.join(base, "tree")
        hook = os.path.join(base, "hook")
        calls = os.path.join(base, "calls")
        work = os.path.join(base, "work")
        for directory in (hook, calls, work):
            os.makedirs(directory)
        copy_tree(os.path.abspath(args.root), tree)
        with open(os.path.join(hook, "sitecustomize.py"), "w",
                  encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE)
        src = os.path.join(tree, "src", "repro")
        env = dict(os.environ)
        env.pop("REPRO_LEDGER", None)
        env["PYTHONPATH"] = os.pathsep.join([hook, os.path.join(tree, "src")])
        env["REACH_AUDIT_SRC"] = src + os.sep
        env["REACH_AUDIT_OUT"] = calls

        failed: List[str] = []
        for label, command in drivers(tree, work):
            start = time.monotonic()
            try:
                done = subprocess.run(
                    command, cwd=tree, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, timeout=DRIVER_TIMEOUT)
                status = done.returncode
                output = done.stdout.decode("utf-8", "replace")
            except subprocess.TimeoutExpired:
                status, output = "timeout", ""
            print(f"# {label}: exit {status} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if status != 0:
                failed.append(label)
                sys.stdout.write("".join(
                    f"#   {line}\n" for line in output.splitlines()[-12:]))

        funcs = inventory(src)
        reached = called(calls, src)
        never = sorted(key for key in funcs if key not in reached)
        for key in never:
            name, lines = funcs[key]
            print(f"{len(lines):5d}  {key[0]}:{key[1]}  {name}")
        total = count_lines(list(funcs), funcs)
        missed = count_lines(never, funcs)
        print(f"never called: {len(never)} of {len(funcs)} functions, "
              f"{missed} of {total} function lines "
              f"({100.0 * missed / max(total, 1):.1f}%)")
        if failed:
            print(f"incomplete: {len(failed)} driver(s) failed: "
                  + "; ".join(failed))
        return 1 if failed else 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
