"""Paths and interpreter settings shared by the benchmark
entry points.  Import this before numpy: it pins BLAS to one thread."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "specbench"


def load_specmax():
    """Import specmax from the checkout's ``src``; exit with an error when
    the sources are missing, so no installed copy is measured instead."""
    if not (SRC / "specmax" / "__init__.py").is_file():
        sys.exit(f"error: no specmax sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import specmax

    if Path(specmax.__file__).resolve().parent != SRC / "specmax":
        sys.exit(f"error: imported specmax from {specmax.__file__}, not from {SRC}")
    return specmax


def work_dir() -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return WORK
