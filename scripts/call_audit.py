"""Which functions under ``src/repro`` does anything call?

Runs two sets of programs, each program in its own child process under
a ``sys.setprofile`` hook that records every ``call`` event:

* the system's own programs: the six examples, the E-bench smokes, the
  E13/E15/E17 benches with ``--quick``, and the benchmark harness's
  ``measure.py`` at 2,000 exchanges for each workload in each mode;
* tier-1 plus the doctests under ``src/repro``.

It then prints, by module, every function (lambdas and comprehensions
excluded) that neither set called (*never-run*) and every function that
only the tests called (*tests-only*), each with its physical line count.
It takes a few minutes, so ``scripts/check.sh`` does not run it.
Run from the repository root::

    python scripts/call_audit.py

The hook chains with profilers that code under audit installs (the
call-budget tests count ``call`` events): ``sys.setprofile`` is replaced
by a function that hands such a profiler every event, except the events
of that replacement's own frame, so the counts the profiler sees do not
change.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXCHANGES = 2000
WORKLOADS = ("local_request", "kb_churn", "federated_request", "federated_digest")
MODES = ("off", "on", "traced")
#: code objects that are not functions a reader would name
ANONYMOUS = {"<lambda>", "<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def system_runs() -> list[list[str]]:
    """The system's own runs, each ``["script", path, args...]`` or
    ``["pytest", args...]``."""
    runs = [["script", str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(["pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
                 "--ignore=benchmarks/harness", "--benchmark-disable"])
    for bench in ("bench_e13_resilience", "bench_e15_control", "bench_e17_mediation"):
        runs.append(["script", str(ROOT / "benchmarks" / f"{bench}.py"), "--quick"])
    measure = str(ROOT / "benchmarks" / "harness" / "measure.py")
    for workload in WORKLOADS:
        for mode in MODES:
            runs.append(["script", measure, "--workload", workload, "--mode", mode,
                         "--exchanges", str(EXCHANGES)])
    return runs


def tests() -> list[list[str]]:
    """Tier-1 and the doctests."""
    return [
        ["pytest", "-q", "-p", "no:cacheprovider"],
        ["pytest", "-q", "-p", "no:cacheprovider", "--doctest-modules", str(PACKAGE)],
    ]


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every named function under ``src/repro``: (module path, first line)
    → (qualified name, physical lines, decorators and docstring included)."""
    found: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        module = str(path.relative_to(SRC))
        extents = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                extents[first] = node.end_lineno - first + 1
        stack = [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in ANONYMOUS:
                key = (module, code.co_firstlineno)
                qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
                found[key] = (qualname, extents.get(code.co_firstlineno, 1))
    return found


def child(out: Path, run: list[str]) -> None:
    """Run one program under the recording hook, then write the
    ``[module, first line]`` of every ``src/repro`` function it called."""
    seen: set = set()
    chained = None
    real_setprofile = sys.setprofile

    def setprofile(function):
        nonlocal chained
        chained = function

    hidden = setprofile.__code__

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call":
            seen.add(code)
        if chained is not None and code is not hidden:
            chained(frame, event, arg)

    sys.setprofile = setprofile
    real_setprofile(hook)
    try:
        if run[0] == "pytest":
            import pytest

            pytest.main(run[1:])
        else:
            sys.argv = run[1:]
            sys.path.insert(0, str(Path(run[1]).parent))
            try:
                runpy.run_path(run[1], run_name="__main__")
            except SystemExit:
                pass
    finally:
        real_setprofile(None)
        sys.setprofile = real_setprofile
    prefix = str(SRC) + os.sep
    called = sorted(
        {(os.path.relpath(code.co_filename, SRC), code.co_firstlineno)
         for code in seen if os.path.realpath(code.co_filename).startswith(prefix)}
    )
    out.write_text(json.dumps(called))


def reached(runs: list[list[str]], label: str) -> set[tuple[str, int]]:
    """Union of what each run called; each runs in a fresh child process."""
    union: set[tuple[str, int]] = set()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as workdir:
        for index, run in enumerate(runs):
            out = Path(workdir) / f"{index}.json"
            print(f"[{label} {index + 1}/{len(runs)}] {' '.join(run[1:])[-90:]}", file=sys.stderr)
            subprocess.run(
                [sys.executable, __file__, "--child", str(out), "--", *run],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False,
            )
            if out.exists():
                union.update(map(tuple, json.loads(out.read_text())))
            else:
                print(f"  run wrote no record: {run}", file=sys.stderr)
    return union


def report(title: str, keys: list, table: dict) -> None:
    """One section: a module header with its total, then one line per function."""
    lines = sum(table[key][1] for key in keys)
    print(f"\n== {title}: {len(keys)} functions, {lines} lines ==")
    module = None
    for key in keys:
        if key[0] != module:
            module = key[0]
            in_module = [k for k in keys if k[0] == module]
            print(f"{module}  ({len(in_module)}, {sum(table[k][1] for k in in_module)} lines)")
        qualname, length = table[key]
        print(f"  l.{key[1]:<5} {length:>4}  {qualname}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("run", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child, args.run)
        return 0
    table = functions()
    by_system = reached(system_runs(), "system")
    by_tests = reached(tests(), "tests")
    never = sorted(key for key in table if key not in by_system and key not in by_tests)
    tests_only = sorted(key for key in table if key in by_tests and key not in by_system)
    print(f"{len(table)} functions under src/repro")
    report("never-run", never, table)
    report("tests-only", tests_only, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
