"""The slow-operation log."""

from repro.telemetry.profiling import SlowOpLog


def test_slow_op_log_capacity_and_queries():
    log = SlowOpLog(threshold_s=1.0, capacity=3)
    assert not log.record("quick", 0.0, 0.5)
    for i in range(5):
        assert log.record(f"op-{i}", float(i), 1.0 + i)
    assert len(log) == 3  # ring buffer keeps newest
    assert log.total_recorded == 5
    assert [op.name for op in log] == ["op-2", "op-3", "op-4"]
    assert log.slowest(1)[0].name == "op-4"
    log.clear()
    assert len(log) == 0


def test_threshold_boundary_is_inclusive():
    log = SlowOpLog(threshold_s=2.0)
    assert not log.record("under", 0.0, 1.999999)
    assert log.record("exact", 0.0, 2.0)  # at-threshold ops are slow ops
    assert log.record("over", 0.0, 2.5)
    assert [op.name for op in log] == ["exact", "over"]
    assert log.total_recorded == 2


def test_slow_op_log_records_span_id():
    log = SlowOpLog(threshold_s=0.5)
    assert log.record("spanned", 3.0, 1.0, span_id="span-0007")
    (entry,) = log.entries("spanned")
    assert entry.span_id == "span-0007"
    assert entry.start_time == 3.0
    # record() without a span id leaves it None
    log.record("bare", 4.0, 1.0)
    assert log.entries("bare")[0].span_id is None


def test_slow_op_log_validates_capacity():
    import pytest as _pytest
    with _pytest.raises(ValueError):
        SlowOpLog(threshold_s=1.0, capacity=0)


def test_entries_filters_by_name_prefix():
    log = SlowOpLog(threshold_s=0.0)
    log.record("gridftp.retr", 0.0, 1.0)
    log.record("gridftp.stor", 1.0, 2.0)
    log.record("scheduler.claim", 2.0, 3.0)
    assert len(log.entries("gridftp.")) == 2
    assert len(log.entries("scheduler.")) == 1
    assert len(log.entries()) == 3
    assert [op.name for op in log.slowest(2)] == [
        "scheduler.claim", "gridftp.stor"]