"""Shared test set-up.

Some tests run ``python -m mvcnn`` in a subprocess from a temporary
directory, where a relative ``PYTHONPATH`` entry such as ``src`` no longer
points at the package. Put the absolute source directory first.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
