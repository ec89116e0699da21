"""Counters, gauges, histograms, and the Prometheus exposition format."""

import pytest

from repro.telemetry.metrics import MetricError, MetricsRegistry


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# -- counters -----------------------------------------------------------------


def test_counter_accumulates_per_labelset(registry):
    c = registry.counter("bytes_total", "bytes", labelnames=("direction",))
    c.inc(100, direction="store")
    c.inc(50, direction="store")
    c.inc(7, direction="retrieve")
    assert c.value(direction="store") == 150
    assert c.value(direction="retrieve") == 7
    assert c.value(direction="other") == 0
    assert c.total() == 157


def test_counter_rejects_decrease(registry):
    c = registry.counter("ops_total")
    with pytest.raises(MetricError):
        c.inc(-1)


def test_counter_label_mismatch_rejected(registry):
    c = registry.counter("x_total", labelnames=("a",))
    with pytest.raises(MetricError):
        c.inc(1, b="nope")
    with pytest.raises(MetricError):
        c.inc(1)  # missing label


def test_get_or_create_shares_series(registry):
    registry.counter("shared_total", labelnames=("k",)).inc(k="v")
    registry.counter("shared_total", labelnames=("k",)).inc(k="v")
    assert registry.counter("shared_total", labelnames=("k",)).value(k="v") == 2


def test_redeclare_with_different_kind_or_labels_fails(registry):
    registry.counter("thing_total", labelnames=("a",))
    with pytest.raises(MetricError):
        registry.gauge("thing_total", labelnames=("a",))
    with pytest.raises(MetricError):
        registry.counter("thing_total", labelnames=("b",))


# -- gauges -----------------------------------------------------------------


def test_gauge_up_down_and_high_water(registry):
    g = registry.gauge("active_channels")
    g.inc()
    g.inc()
    g.inc()
    g.dec()
    assert g.value() == 2
    assert g.high_water() == 3
    g.set(0)
    assert g.value() == 0
    assert g.high_water() == 3


# -- histograms --------------------------------------------------------------


def test_histogram_bucket_edges_are_inclusive(registry):
    h = registry.histogram("dur_seconds", buckets=(1.0, 5.0, 10.0))
    h.observe(1.0)   # exactly on the first edge -> le="1"
    h.observe(1.001)  # just over -> le="5"
    h.observe(10.0)  # exactly on the last edge -> le="10"
    h.observe(99.0)  # overflow -> +Inf only
    counts = h.bucket_counts()
    assert counts[1.0] == 1
    assert counts[5.0] == 2  # cumulative
    assert counts[10.0] == 3
    assert counts[float("inf")] == 4
    assert h.count() == 4
    assert h.sum() == pytest.approx(111.001)


def test_histogram_requires_buckets(registry):
    with pytest.raises(MetricError):
        registry.histogram("bad_seconds", buckets=())


def test_histogram_labelled_series_are_independent(registry):
    h = registry.histogram("t_seconds", buckets=(1.0,), labelnames=("op",))
    h.observe(0.5, op="read")
    h.observe(2.0, op="write")
    assert h.count(op="read") == 1
    assert h.bucket_counts(op="read")[1.0] == 1
    assert h.bucket_counts(op="write")[1.0] == 0


# -- exposition --------------------------------------------------------------


def test_render_prometheus_golden():
    registry = MetricsRegistry()
    c = registry.counter("bytes_transferred_total", "Payload bytes moved",
                         labelnames=("direction", "mode"))
    c.inc(1024, direction="store", mode="E")
    c.inc(512, direction="retrieve", mode="E")
    registry.gauge("active_data_channels", "Open data channels").set(2)
    h = registry.histogram("transfer_duration_seconds", "Transfer durations",
                           buckets=(1.0, 10.0))
    h.observe(0.5)
    h.observe(3.0)
    expected = (
        "# HELP active_data_channels Open data channels\n"
        "# TYPE active_data_channels gauge\n"
        "active_data_channels 2\n"
        "# HELP bytes_transferred_total Payload bytes moved\n"
        "# TYPE bytes_transferred_total counter\n"
        'bytes_transferred_total{direction="retrieve",mode="E"} 512\n'
        'bytes_transferred_total{direction="store",mode="E"} 1024\n'
        "# HELP transfer_duration_seconds Transfer durations\n"
        "# TYPE transfer_duration_seconds histogram\n"
        'transfer_duration_seconds_bucket{le="1"} 1\n'
        'transfer_duration_seconds_bucket{le="10"} 2\n'
        'transfer_duration_seconds_bucket{le="+Inf"} 2\n'
        "transfer_duration_seconds_sum 3.5\n"
        "transfer_duration_seconds_count 2\n"
    )
    assert registry.render_prometheus() == expected


def test_render_prometheus_escapes_label_values(registry):
    registry.counter("odd_total", labelnames=("path",)).inc(path='a"b\\c\nd')
    out = registry.render_prometheus()
    assert 'odd_total{path="a\\"b\\\\c\\nd"} 1' in out


def test_render_table_lists_every_series(registry):
    registry.counter("a_total", labelnames=("k",)).inc(5, k="x")
    registry.gauge("b").set(1.5)
    table = registry.render_table(caption="World metrics")
    assert "World metrics" in table
    assert "a_total" in table and "k=x" in table
    assert "b" in table

    # histogram series show as _count/_sum rows
    registry.histogram("h_seconds", buckets=(1.0,)).observe(0.2)
    table = registry.render_table()
    assert "h_seconds_count" in table
    assert "h_seconds_sum" in table


def test_empty_registry_renders_empty(registry):
    assert registry.render_prometheus() == ""


def test_counter_rejects_nan_on_parent_and_child(registry):
    c = registry.counter("nan_total", labelnames=("k",))
    c.inc(2, k="x")
    with pytest.raises(MetricError):
        c.inc(float("nan"), k="x")
    child = c.labels(k="x")
    with pytest.raises(MetricError):
        child.inc(float("nan"))
    assert c.value(k="x") == 2


# -- label validation ---------------------------------------------------------

# (labelnames the metric declares, labels a call passes)
_BAD_LABELS = [
    pytest.param(("a", "b"), {"a": "1"}, id="missing"),
    pytest.param(("a",), {"a": "1", "b": "2"}, id="extra"),
    pytest.param(("a", "b"), {"a": "1", "c": "2"}, id="misnamed"),
    pytest.param((), {"a": "1"}, id="on-unlabelled"),
]


def _label_calls(registry, labelnames):
    c = registry.counter("v_total", labelnames=labelnames)
    g = registry.gauge("v_level", labelnames=labelnames)
    h = registry.histogram("v_seconds", buckets=(1.0,), labelnames=labelnames)
    return [
        lambda **kw: c.inc(**kw),
        lambda **kw: g.set(1, **kw),
        lambda **kw: g.inc(**kw),
        lambda **kw: g.dec(**kw),
        lambda **kw: h.observe(0.5, **kw),
        c.labels, g.labels, h.labels,
    ]


@pytest.mark.parametrize("labelnames, labels", _BAD_LABELS)
def test_every_update_path_rejects_a_bad_labelset(registry, labelnames, labels):
    for call in _label_calls(registry, labelnames):
        with pytest.raises(MetricError):
            call(**labels)
    assert registry.samples() == []


def test_label_values_are_stringified(registry):
    for call in _label_calls(registry, ("shard", "ok")):
        call(shard=3, ok=True)
    assert registry.counter("v_total", labelnames=("shard", "ok")).value(
        shard="3", ok="True") == 1
    keys = {s.labels for s in registry.samples()}
    assert keys == {(("shard", "3"), ("ok", "True"))}


# -- one store per instrument operation ----------------------------------------


def test_gauge_child_and_parent_share_the_high_water_rule(registry):
    g = registry.gauge("lvl", labelnames=("k",))
    child = g.labels(k="x")
    g.inc(3, k="x")
    child.dec(2)
    child.inc(5)
    g.dec(4, k="x")
    child.set(1.5)
    assert g.value(k="x") == 1.5
    assert g.high_water(k="x") == 6


def test_histogram_nan_lands_in_inf_bucket_on_parent_and_child(registry):
    h = registry.histogram("nan_seconds", buckets=(1.0, 5.0), labelnames=("k",))
    h.observe(float("nan"), exemplar="t-parent", k="p")
    h.labels(k="c").observe(float("nan"), exemplar="t-child")
    for k in ("p", "c"):
        counts = h.bucket_counts(k=k)
        assert counts[1.0] == counts[5.0] == 0
        assert counts[float("inf")] == 1
        assert list(h.exemplars(k=k)) == [float("inf")]


def test_histogram_child_and_parent_bucket_identically(registry):
    h = registry.histogram("b_seconds", buckets=(1.0, 5.0), labelnames=("k",))
    child = h.labels(k="c")
    for v in (0.0, 1.0, 1.0001, 5.0, 7.0, -3.0, float("inf")):
        h.observe(v, k="p")
        child.observe(v)
    assert h.bucket_counts(k="p") == h.bucket_counts(k="c") == {
        1.0: 3, 5.0: 5, float("inf"): 7}
    assert h.count(k="c") == 7
