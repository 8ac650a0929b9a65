"""Loads relaypair from the ``src`` directory of the checkout the benchmark
sits in, never from an installed copy."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(RuntimeError):
    pass


def load():
    package = SRC / "relaypair" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no relaypair sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    rp = importlib.import_module("relaypair")
    if Path(rp.__file__).resolve() != package:
        raise ProgramMissing(f"relaypair was imported from {rp.__file__}, not {package}")
    return rp
