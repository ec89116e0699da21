"""A seed names exactly one world, whatever optional packages are installed.

The digests below were recorded from the stdlib ``random`` generators.
A generator that switches to another RNG when some package happens to
be importable changes them, and fails here.
"""

import dataclasses
import hashlib
import json

from repro.util.units import KB
from repro.workloads.datasets import climate_mix, hep_mix, lots_of_small_files
from repro.workloads.fleet import FleetModel


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sizes_sha(specs) -> str:
    return _sha(json.dumps([s.size for s in specs]).encode())


def test_climate_mix_sizes_are_pinned():
    assert _sizes_sha(climate_mix(seed=3)) == (
        "04145beb47e0c6c5224e9a35a4024e36774da4b969c31baf40f394e5722f04f5")


def test_hep_mix_sizes_are_pinned():
    assert _sizes_sha(hep_mix(seed=4)) == (
        "a333b6bd6543f56b579eda10e6853270132f5c2781230949e552635f3a69ad73")


def test_small_file_bytes_are_pinned():
    specs = lots_of_small_files(count=3, size=KB)
    blob = b"".join(s.make_data().read_all() for s in specs)
    assert _sha(blob) == (
        "8b85193226e46a63c9cfa8e8238198307d838345d6dd3eb2f77e64413aa1193e")


def test_fleet_day_is_pinned():
    day = FleetModel(seed=1).day(500)
    assert _sha(json.dumps(dataclasses.astuple(day)).encode()) == (
        "0d37c381b8c278e9e1e91a19b9bec576e947a8faa638dd02408efc606bca5107")
