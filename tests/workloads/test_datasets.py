"""Workload dataset generators."""

from repro.sim.clock import Clock
from repro.storage.data import LiteralData, SyntheticData
from repro.storage.posix import PosixStorage
from repro.workloads.datasets import (
    LITERAL_THRESHOLD,
    FileSpec,
    lots_of_small_files,
    materialize,
)
from repro.util.units import KB


def test_lots_of_small_files():
    specs = lots_of_small_files(count=100, size=100 * KB)
    assert len(specs) == 100
    assert all(s.size == 100 * KB for s in specs)
    assert len({s.path for s in specs}) == 100
    assert isinstance(specs[0].make_data(), LiteralData)


def test_small_files_have_distinct_content():
    specs = lots_of_small_files(count=3, size=1 * KB)
    contents = {s.make_data().read_all() for s in specs}
    assert len(contents) == 3


def test_literal_threshold():
    small = lots_of_small_files(count=1, size=LITERAL_THRESHOLD)[0]
    big = FileSpec(path="/data/huge.dat", size=LITERAL_THRESHOLD + 1, seed=1)
    assert isinstance(small.make_data(), LiteralData)
    assert isinstance(big.make_data(), SyntheticData)


def test_generators_deterministic():
    assert lots_of_small_files(count=10, seed=5) == lots_of_small_files(count=10, seed=5)
    assert lots_of_small_files(count=10, seed=5) != lots_of_small_files(count=10, seed=6)


def test_materialize():
    clock = Clock()
    fs = PosixStorage(clock)
    specs = lots_of_small_files(count=5, size=KB, directory="/data/small")
    materialize(specs, fs)
    for spec in specs:
        assert fs.open_read(spec.path, 0).size == KB
