"""The TCP performance model: the physics behind every throughput claim."""

import math

import pytest

from repro.net.tcp import (
    MATHIS_C,
    TCPModel,
    slow_start_penalty_s,
    tcp_aggregate_rate,
    tcp_stream_rate,
)
from repro.net.topology import PathStats
from repro.util.units import GB, KB, MB, gbps


def make_path(rtt=0.1, bw=gbps(10), loss=0.0):
    return PathStats(
        src="a", dst="b", rtt_s=rtt, bottleneck_bps=bw, loss=loss,
        link_ids=("l1",), hosts=("a", "b"),
    )


def test_window_limit_dominates_on_long_fat_pipe():
    # 64 KiB window / 100 ms RTT = ~5.24 Mb/s, far below 10 Gb/s
    path = make_path(rtt=0.1, bw=gbps(10))
    rate = tcp_stream_rate(path, TCPModel.untuned())
    assert rate == pytest.approx(64 * KB * 8 / 0.1)
    assert rate < gbps(10) / 100


def test_zero_rtt_gives_bottleneck():
    path = make_path(rtt=0.0, bw=gbps(10))
    assert tcp_stream_rate(path, TCPModel.untuned()) == gbps(10)


def test_mathis_limit_with_loss():
    path = make_path(rtt=0.1, bw=gbps(100), loss=1e-4)
    model = TCPModel.tuned(1 * GB)  # window not the constraint
    expected = 1460 * 8 * MATHIS_C / (0.1 * math.sqrt(1e-4))
    assert tcp_stream_rate(path, model) == pytest.approx(expected)


def test_parallel_streams_scale_until_bottleneck():
    path = make_path(rtt=0.1, bw=gbps(1), loss=0.0)
    model = TCPModel.untuned()
    one = tcp_aggregate_rate(path, 1, model)
    eight = tcp_aggregate_rate(path, 8, model)
    assert eight == pytest.approx(8 * one)
    # enough streams saturate the bottleneck and stop scaling
    many = tcp_aggregate_rate(path, 10_000, model)
    assert many == gbps(1)


def test_parallel_streams_requires_positive():
    path = make_path()
    with pytest.raises(ValueError):
        tcp_aggregate_rate(path, 0, TCPModel.untuned())


def test_bigger_window_never_slower():
    path = make_path(rtt=0.05, bw=gbps(10), loss=1e-5)
    small = tcp_stream_rate(path, TCPModel().with_window(64 * KB))
    big = tcp_stream_rate(path, TCPModel().with_window(16 * MB))
    assert big >= small


def test_more_loss_never_faster():
    model = TCPModel.tuned()
    r_low = tcp_stream_rate(make_path(loss=1e-6), model)
    r_high = tcp_stream_rate(make_path(loss=1e-3), model)
    assert r_high <= r_low


def test_slow_start_penalty_grows_with_bdp():
    model = TCPModel.tuned()
    short = slow_start_penalty_s(make_path(rtt=0.01), gbps(1), model)
    long = slow_start_penalty_s(make_path(rtt=0.2), gbps(1), model)
    assert long > short


def test_slow_start_penalty_zero_for_tiny_rates():
    model = TCPModel()
    # steady window below the initial cwnd: no ramp needed
    assert slow_start_penalty_s(make_path(rtt=0.1), 1e5, model) == 0.0


def test_untuned_vs_tuned_headline():
    """The claim that motivates GridFTP: tuned+parallel beats naive 100x+."""
    path = make_path(rtt=0.1, bw=gbps(10), loss=1e-5)
    naive = tcp_aggregate_rate(path, 1, TCPModel.untuned())
    gridftp_like = tcp_aggregate_rate(path, 16, TCPModel.tuned(16 * MB))
    assert gridftp_like / naive > 100
