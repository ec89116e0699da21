"""Compare two sets of benchmark runs of the same workloads.

Save each run's standard output (``run.py`` prints a ``{"perfbench":
...}`` detail line, then the result line) into one file per side, e.g.::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload go_storm --seed $seed >> base.jsonl
    done

then::

    python3 perfbench/compare.py base.jsonl head.jsonl

For every workload and end-to-end metric it prints both medians with
their quartile spread, the change as a share of the base median, and a
verdict against the metric's bound in ``BENCHMARK.json``: ``worse`` when
the head median is worse by more than the bound, ``unresolved`` when the
base's own spread is wider than the bound, ``ok`` otherwise.  Runs of
one seed on both sides must reach the same outcome digest unless the
change alters behaviour; each differing seed is listed.

It refuses (exit 2) to compare runs whose environment stamps differ:
CPU count, CPU model, Python version, or whether numpy and sympy import.
The commit and source digest name the sides and may differ.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

STAMP_KEYS = ("nproc", "cpu", "python", "numpy", "sympy")
BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[tuple[dict, dict]]:
    """(detail, result) pairs from one side's saved output."""
    pairs, detail = [], None
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "perfbench" in obj:
            detail = obj["perfbench"]
        elif "metrics" in obj and detail is not None:
            pairs.append((detail, obj))
            detail = None
    return pairs


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    stamps = {json.dumps({k: d["env"][k] for k in STAMP_KEYS}, sort_keys=True)
              for side in sides for d, _ in side}
    if len(stamps) != 1:
        print("refusing to compare: the runs' environment stamps differ:", file=sys.stderr)
        for stamp in sorted(stamps):
            print("  " + stamp, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    workloads = sorted({d["workload"] for side in sides for d, _ in side if d["trace"] == 0})
    for workload in workloads:
        base, head = ([(d, r) for d, r in side if d["workload"] == workload and d["trace"] == 0]
                      for side in sides)
        print(f"{workload}: {len(base)} base runs, {len(head)} head runs")
        if not base or not head:
            continue
        for name, m in metrics.items():
            b = spread([r["metrics"][name]["value"] for _, r in base])
            h = spread([r["metrics"][name]["value"] for _, r in head])
            change = (h[0] - b[0]) / b[0] if b[0] else 0.0
            worse = change if m["better"] == "lower" else -change
            base_spread = (b[2] - b[1]) / b[0] if b[0] else 0.0
            if worse > m["bound"]:
                verdict, status = "worse", 1
            elif base_spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:16s} base {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}]  "
                  f"head {h[0]:.6g} [{h[1]:.6g}, {h[2]:.6g}]  "
                  f"{change:+.1%} (bound {m['bound']:.0%})  {verdict}")
        base_digest = {d["seed"]: d["digest"] for d, _ in base}
        changed = sorted(d["seed"] for d, _ in head
                         if d["seed"] in base_digest and d["digest"] != base_digest[d["seed"]])
        if changed:
            print(f"  outcome digest changed on seeds {changed}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
