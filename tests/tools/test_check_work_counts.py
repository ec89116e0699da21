"""``tools/check_work_counts.py``: the exact work-count and digest gate."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_work_counts.py"
_spec = importlib.util.spec_from_file_location("check_work_counts", TOOL)
check_work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_work_counts)

BASELINE = {
    "seed": 7,
    "digests": {"control_wide": "d" * 64},
    "workloads": {"control_wide": {"sim.events_fired": 5036, "telemetry.spans": 48000}},
}


def _run_output(*, seed=7, trace=1, digest="d" * 64, events=5036, spans=48000) -> str:
    """Standard output of a run.py run: its detail line, then its result line."""
    detail = {"perfbench": {"workload": "control_wide", "seed": seed, "trace": trace,
                            "digest": digest}}
    result = {"correct": True, "metrics": {
        "sim.events_fired": {"value": events, "unit": "count"},
        "telemetry.spans": {"value": spans, "unit": "count"},
    }}
    return "perfbench: progress noise\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"


@pytest.fixture
def gate(tmp_path):
    baseline = tmp_path / "BENCH_work_counts.json"
    baseline.write_text(json.dumps(BASELINE))

    def run(output: str) -> int:
        out = tmp_path / "run.out"
        out.write_text(output)
        return check_work_counts.main([str(baseline), str(out)])

    return run


def test_equal_counts_and_digest_pass(gate, capsys):
    assert gate(_run_output()) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_one_differing_count_fails(gate, capsys):
    assert gate(_run_output(spans=48001)) == 1
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("MISMATCH")]
    assert "telemetry.spans: 48001 != baseline 48000" in line


def test_differing_digest_fails(gate, capsys):
    assert gate(_run_output(digest="e" * 64)) == 1
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("MISMATCH")]
    assert "control_wide digest" in line


def test_untraced_run_is_refused(gate, capsys):
    assert gate(_run_output(trace=0)) == 2
    assert "not traced" in capsys.readouterr().out


def test_seed_the_baseline_lacks_is_refused(gate, capsys):
    assert gate(_run_output(seed=11)) == 2
    assert "no counts for control_wide at seed 11" in capsys.readouterr().out
