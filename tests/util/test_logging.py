"""The structured event log."""

import pytest

from repro.util.logging import SUBSCRIBER_ERROR_CATEGORY, Event, EventLog


def test_emit_and_len():
    log = EventLog()
    log.emit(1.0, "a.b", "hello", x=1)
    log.emit(2.0, "a.c", "world")
    assert len(log) == 2


def test_select_by_category_prefix():
    log = EventLog()
    log.emit(0.0, "gridftp.command", "m1")
    log.emit(0.0, "gridftp.transfer.complete", "m2")
    log.emit(0.0, "myproxy.issue", "m3")
    assert len(log.select("gridftp")) == 2
    assert len(log.select("gridftp.transfer")) == 1
    assert len(log.select("myproxy.issue")) == 1
    assert len(log.select()) == 3


def test_select_by_field_values():
    log = EventLog()
    log.emit(0.0, "x", "a", server="s1", ok=True)
    log.emit(0.0, "x", "b", server="s2", ok=True)
    log.emit(0.0, "x", "c", server="s1", ok=False)
    assert len(log.select("x", server="s1")) == 2
    assert len(log.select("x", server="s1", ok=True)) == 1


def test_count_and_last():
    log = EventLog()
    assert log.last("x") is None
    log.emit(1.0, "x", "first")
    log.emit(2.0, "x", "second")
    assert log.count("x") == 2
    assert log.last("x").message == "second"


def test_subscribe_sees_future_events():
    log = EventLog()
    seen = []
    log.subscribe(seen.append)
    log.emit(0.0, "cat", "msg")
    assert len(seen) == 1
    assert seen[0].category == "cat"


def test_clear_keeps_subscribers():
    log = EventLog()
    seen = []
    log.subscribe(seen.append)
    log.emit(0.0, "a", "1")
    log.clear()
    assert len(log) == 0
    log.emit(0.0, "a", "2")
    assert len(seen) == 2


def test_events_are_immutable_records():
    log = EventLog()
    ev = log.emit(5.5, "cat", "msg", k="v")
    assert ev.time == 5.5
    assert ev.fields["k"] == "v"
    import dataclasses
    assert dataclasses.is_dataclass(ev)


# -- subscriber safety --------------------------------------------------------


def test_raising_subscriber_does_not_break_delivery():
    log = EventLog()
    seen_before, seen_after = [], []

    def bad(ev):
        raise RuntimeError("collector crashed")

    log.subscribe(seen_before.append)
    log.subscribe(bad)
    log.subscribe(seen_after.append)
    ev = log.emit(1.0, "work", "payload")
    # subscribers before AND after the broken one still got the event
    assert seen_before == [ev]
    assert seen_after == [ev]
    assert log.subscriber_errors == 1
    err = log.last(SUBSCRIBER_ERROR_CATEGORY)
    assert err is not None
    assert "RuntimeError" in err.fields["error"]
    assert err.fields["event_category"] == "work"


def test_subscriber_error_events_are_not_republished():
    log = EventLog()
    calls = []

    def always_raises(ev):
        calls.append(ev.category)
        raise ValueError("again")

    log.subscribe(always_raises)
    log.emit(0.0, "x", "m")
    # the synthetic error event must not recurse into the subscriber
    assert calls == ["x"]
    assert log.count(SUBSCRIBER_ERROR_CATEGORY) == 1


# -- bounded capacity ---------------------------------------------------------


def test_capacity_evicts_oldest_and_counts_drops():
    log = EventLog(capacity=3)
    for i in range(5):
        log.emit(float(i), "tick", f"n{i}")
    assert len(log) == 3
    assert [ev.message for ev in log] == ["n2", "n3", "n4"]
    assert log.dropped_events == 2


def test_default_capacity_is_unbounded():
    log = EventLog()
    for i in range(100):
        log.emit(float(i), "tick", "m")
    assert len(log) == 100
    assert log.dropped_events == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventLog(capacity=0)
    with pytest.raises(ValueError):
        EventLog(capacity=-1)


# -- JSON-lines export --------------------------------------------------------


def test_jsonl_round_trip_preserves_events():
    log = EventLog()
    log.emit(1.5, "a.b", "first", n=3, host="dtn-a")
    log.emit(2.5, "a.c", "second", trace_id="trace-0001", span_id="span-00002")
    text = log.to_jsonl()
    assert len(text.splitlines()) == 2
    back = EventLog.from_jsonl(text)
    assert back == list(log)


def test_jsonl_filters_by_category_and_stringifies_rich_fields():
    log = EventLog()
    log.emit(0.0, "keep.this", "m", blob=object())
    log.emit(0.0, "drop.this", "m")
    text = log.to_jsonl("keep")
    assert len(text.splitlines()) == 1
    (ev,) = EventLog.from_jsonl(text)
    assert ev.category == "keep.this"
    assert isinstance(ev.fields["blob"], str)  # default=str fallback


def test_event_to_dict_omits_unset_trace_keys():
    bare = Event(time=0.0, category="c", message="m")
    assert "trace_id" not in bare.to_dict()
    traced = Event(time=0.0, category="c", message="m",
                   trace_id="trace-0001", span_id="span-00001")
    d = traced.to_dict()
    assert d["trace_id"] == "trace-0001"
    assert Event.from_dict(d) == traced
