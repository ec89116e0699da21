"""Approximate line coverage of src/repro without coverage.py.

Two modes share one line tracer.  It traces line events for files under
``src/repro``, then compares them against the executable-line candidates
from each module's compiled code objects (``co_lines``).

* Default (tests): runs the test suite.  CI pins ``--cov-fail-under`` in
  the coverage job; this mode exists so the pinned number can be
  re-derived where pytest-cov is not installable.  The result tracks
  coverage.py within a couple of percent (docstring and
  ``TYPE_CHECKING`` accounting differ slightly); pin the CI floor a few
  points below what this reports.
* ``--programs``: runs the repository's programs instead of its tests —
  the four perfbench workloads in-process, the paper benches under
  ``pytest --benchmark-disable benchmarks``, every ``examples/*.py``,
  ``benchmarks/bench_scheduler_fleet.py`` and the ``tools/`` dashboards.
  Besides per-file reach it lists every function no program executes:
  code that only tests reach.  pytest-benchmark's fixture calls
  ``sys.settrace(None)`` around each measured round, so the benches run
  with ``--benchmark-disable``; otherwise their scenarios go untraced.

``--fail-under N`` exits 1 when the total is below N percent.

Usage::

    PYTHONPATH=src python tools/measure_coverage.py [pytest args...]
    PYTHONPATH=src python tools/measure_coverage.py --programs [--fail-under N]
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import pathlib
import runpy
import sys
import time
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SRC_PREFIX = str(SRC)

hits: dict[str, set[int]] = {}
#: (filename, first line, name) of every function code object entered
called: set[tuple[str, int, str]] = set()

#: set on function bodies, clear on module and class bodies
_FUNCTION_FLAGS = inspect.CO_OPTIMIZED | inspect.CO_NEWLOCALS


def _tracer(frame, event, arg):
    code = frame.f_code
    filename = code.co_filename
    if not filename.startswith(SRC_PREFIX):
        return None  # do not trace foreign frames at all
    if event == "line":
        hits.setdefault(filename, set()).add(frame.f_lineno)
    elif event == "call":
        called.add((filename, code.co_firstlineno, code.co_name))
    return _tracer


def _code_objects(path: pathlib.Path):
    """Every code object compiled from ``path`` with its enclosing one."""
    stack = [(compile(path.read_text(), str(path), "exec"), None)]
    while stack:
        code, parent = stack.pop()
        yield code, parent
        stack.extend((k, code) for k in code.co_consts if hasattr(k, "co_lines"))


def _is_function(code) -> bool:
    return (code.co_flags & _FUNCTION_FLAGS) == _FUNCTION_FLAGS \
        and not code.co_name.startswith("<")


def _unexecuted_functions(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, qualified name) of each function in ``path`` that never ran.

    A nested function is listed only when its enclosing function ran:
    the outer one already accounts for everything inside it.
    """
    out: list[tuple[int, str]] = []
    for code, parent in _code_objects(path):
        if not _is_function(code):
            continue
        if (str(path), code.co_firstlineno, code.co_name) in called:
            continue
        if parent is not None and _is_function(parent) and \
                (str(path), parent.co_firstlineno, parent.co_name) not in called:
            continue
        out.append((code.co_firstlineno, getattr(code, "co_qualname", code.co_name)))
    return sorted(out)


def _candidate_lines(path: pathlib.Path) -> set[int]:
    lines: set[int] = set()
    for code, _ in _code_objects(path):
        lines.update(ln for _, _, ln in code.co_lines() if ln is not None)
    return lines


# -- the programs -----------------------------------------------------------


def _perfbench_workload(name: str) -> Callable[[], int]:
    def run() -> int:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads  # perfbench's own module

        outcome = workloads.WORKLOADS[name](7, lambda: None, lambda: None)
        return 0 if not outcome.problems else 1
    return run


def _paper_benches() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                            str(ROOT / "benchmarks")]))


def _script(path: pathlib.Path, *args: str) -> Callable[[], int]:
    def run() -> int:
        saved = sys.argv
        sys.argv = [str(path), *args]
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            return 0 if exc.code in (None, 0) else 1
        finally:
            sys.argv = saved
        return 0
    return run


def programs() -> list[tuple[str, Callable[[], int]]]:
    """(label, runner) for every program whose reach is measured."""
    runs: list[tuple[str, Callable[[], int]]] = [
        (f"perfbench {w}", _perfbench_workload(w))
        for w in ("go_storm", "go_onboard", "archive_campaign", "control_wide")
    ]
    runs.append(("pytest --benchmark-disable benchmarks", _paper_benches))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", _script(example)))
    fleet = ROOT / "benchmarks" / "bench_scheduler_fleet.py"
    runs.append(("bench_scheduler_fleet --quick", _script(fleet, "--quick")))
    runs.append(("bench_scheduler_fleet --scale --quick",
                 _script(fleet, "--scale", "--quick")))
    for tool in ("mission_control", "queue_dump"):
        path = ROOT / "tools" / f"{tool}.py"
        runs.append((tool, _script(path)))
        runs.append((f"{tool} --archive", _script(path, "--archive")))
    return runs


def _run_programs() -> int:
    rc = 0
    with open(os.devnull, "w") as devnull:
        for label, run in programs():
            started = time.monotonic()
            with contextlib.redirect_stdout(devnull):
                code = run()
            rc = rc or code
            print(f"[programs] {label}: {'ok' if code == 0 else f'FAILED ({code})'} "
                  f"in {time.monotonic() - started:.1f} s", file=sys.stderr)
    return rc


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--programs", action="store_true",
                        help="trace the repository's programs instead of its tests")
    parser.add_argument("--fail-under", type=float, default=None,
                        help="exit 1 when total reach is below this percentage")
    args, pytest_args = parser.parse_known_args(argv)
    if args.programs and pytest_args:
        parser.error(f"--programs takes no pytest arguments: {pytest_args}")

    sys.settrace(_tracer)
    try:
        if args.programs:
            rc = _run_programs()
        else:
            import pytest

            rc = pytest.main(pytest_args or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    if rc != 0:
        print(f"{'a program' if args.programs else 'pytest'} exited {rc}; "
              "coverage numbers below are partial", file=sys.stderr)

    total = covered = 0
    per_file: list[tuple[float, str, int, int]] = []
    unexecuted: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        cand = _candidate_lines(path)
        got = hits.get(str(path), set()) & cand
        total += len(cand)
        covered += len(got)
        pct = 100.0 * len(got) / len(cand) if cand else 100.0
        name = str(path.relative_to(SRC))
        per_file.append((pct, name, len(got), len(cand)))
        if args.programs:
            unexecuted.extend(f"  {name}:{line} {qualname}"
                              for line, qualname in _unexecuted_functions(path))

    per_file.sort()
    for pct, name, got, cand in per_file:
        print(f"{pct:6.1f}%  {got:5d}/{cand:<5d}  {name}")
    if args.programs:
        print(f"\n{len(unexecuted)} functions no program executes:")
        print("\n".join(unexecuted))
    overall = 100.0 * covered / total if total else 100.0
    print(f"\nTOTAL {overall:.2f}%  ({covered}/{total} executable lines)")
    if args.fail_under is not None and overall < args.fail_under:
        print(f"FAIL: total {overall:.2f}% is below --fail-under {args.fail_under:g}%",
              file=sys.stderr)
        return rc or 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
