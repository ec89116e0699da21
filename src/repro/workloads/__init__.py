"""Workload synthesis: dataset shapes and the worldwide-fleet generator."""

from repro.workloads.datasets import (
    FileSpec,
    lots_of_small_files,
    materialize,
)
from repro.workloads.fleet import FleetModel, FleetDay

__all__ = [
    "FileSpec",
    "lots_of_small_files",
    "materialize",
    "FleetModel",
    "FleetDay",
]
