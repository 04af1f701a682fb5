"""Benchmark of the multigoal pipeline, driven only through the package's public names.

``run.py`` measures one workload, ``steady.py`` repeats runs to report spreads.
The benchmark always imports ``multigoal`` from the ``src`` directory of the
checkout that holds it, never from an installed copy.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/multigoal`` package to measure."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process; effective only before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it has no package."""
    if not os.path.isfile(os.path.join(SRC, "multigoal", "__init__.py")):
        raise SourceMissing(f"no multigoal package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = sys.modules.get("multigoal")
    if module is not None and not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"multigoal already imported from {module.__file__}, not {SRC}")
