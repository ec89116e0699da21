"""Whether numpy is installed, found without importing it.

Nothing in :mod:`repro` uses numpy; this flag only lets benchmark
environment stamps record whether the package is present.
"""

from __future__ import annotations

import importlib.util

HAS_NUMPY = importlib.util.find_spec("numpy") is not None
