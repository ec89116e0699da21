"""Dataset generators.

The paper says Globus GridFTP "is optimized to handle various types of
datasets from a single, huge file to datasets comprising lots of small
files" (Section II.A).  The small-files claim bench and example generate
the lots-of-small-files shape as a list of :class:`FileSpec` (path,
size, content seed) and materialize it into a storage backend; a single
huge file is one ``FileSpec``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.storage.data import LiteralData, SyntheticData
from repro.storage.dsi import DataStorageInterface
from repro.util.units import KB, MB

#: files at or below this size carry literal bytes (full integrity checks);
#: larger files are synthetic (see repro.storage.data)
LITERAL_THRESHOLD = 4 * MB


@dataclass(frozen=True)
class FileSpec:
    """One file of a workload."""

    path: str
    size: int
    seed: int

    def make_data(self):
        """Content object for this spec (literal below the threshold).

        Literal bytes are drawn from :class:`random.Random` seeded with
        the spec's seed, so a seed names exactly one file.
        """
        if self.size <= LITERAL_THRESHOLD:
            return LiteralData(random.Random(self.seed).randbytes(self.size))
        return SyntheticData(seed=self.seed, length=self.size)


def lots_of_small_files(
    count: int = 5000,
    size: int = 100 * KB,
    directory: str = "/data/small",
    seed: int = 2,
) -> list[FileSpec]:
    """The LOSF workload: many identically-small files."""
    return [
        FileSpec(path=f"{directory}/f{i:06d}.dat", size=size, seed=seed * 1_000_003 + i)
        for i in range(count)
    ]


def materialize(specs: list[FileSpec], storage: DataStorageInterface, uid: int = 0) -> None:
    """Create every file of a workload in a storage backend."""
    for spec in specs:
        write = getattr(storage, "write_file", None)
        if write is None:
            raise TypeError(f"backend {storage.name} lacks write_file")
        write(spec.path, spec.make_data(), uid=uid)
