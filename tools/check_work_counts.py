#!/usr/bin/env python
"""Gate a traced repo-benchmark run's work counts and outcome exactly.

Work counts (metric updates, spans, events, scheduler events fired)
and the outcome digest (every op's virtual start and end, bytes and
status, plus the full counts dict) are a pure function of workload and
seed, so any difference from the committed baseline is a behaviour or
instrumentation change, never machine noise.  The baseline holds each
workload at two seeds: the default seed 7 and its held-out seed from
``perfbench/plan.json``.  Feed this script the standard output of a
traced run at either::

    python3 perfbench/run.py --workload control_wide --seed 404 --trace 1 --seconds 1 > run.out
    python3 tools/check_work_counts.py BENCH_work_counts.json run.out

It exits 1 and prints one ``MISMATCH`` line per count or digest that
differs, or 2 if the run was not traced, failed, or used a seed or
workload the baseline does not hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check(baseline: dict, output: str) -> tuple[int, list[str]]:
    """(exit code, report lines) for one run's standard output."""
    lines = output.strip().splitlines()
    if len(lines) < 2:
        return 2, ["run output is missing its detail and result lines"]
    detail = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    workload, seed = detail["workload"], detail["seed"]
    if not result["correct"]:
        return 2, [f"{workload}: run was not correct"]
    if not detail["trace"]:
        return 2, [f"{workload}: run was not traced (--trace 1)"]
    pinned = baseline["runs"].get(workload, {}).get(str(seed))
    if pinned is None:
        return 2, [f"baseline holds no counts for {workload} at seed {seed}"]
    code, report = 0, []
    expected = pinned["digest"]
    if detail["digest"] == expected:
        report.append(f"ok        {workload}@{seed} digest = {expected}")
    else:
        code = 1
        report.append(f"MISMATCH  {workload}@{seed} digest: {detail['digest']} "
                      f"!= baseline {expected}")
    for name, expected in sorted(pinned["counts"].items()):
        got = result["metrics"][name]["value"]
        if got == expected:
            report.append(f"ok        {workload}@{seed} {name} = {got}")
        else:
            code = 1
            report.append(f"MISMATCH  {workload}@{seed} {name}: {got} != baseline {expected}")
    return code, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline", type=Path, help="BENCH_work_counts.json")
    parser.add_argument("output", type=Path, help="standard output of perfbench/run.py")
    args = parser.parse_args(argv)
    code, report = check(json.loads(args.baseline.read_text()), args.output.read_text())
    print("\n".join(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
