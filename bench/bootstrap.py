"""Process set-up shared by the benchmark's entry points.

Pins BLAS/OpenMP pools to one thread before numpy is imported (the
benchmark is one process doing one operation at a time), and puts the
checkout's own ``src`` first on the import path, so the benchmark always
measures the sources it sits next to and never an installed copy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def bootstrap() -> Path:
    """Prepare this interpreter; exit non-zero if the sources are missing."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "expdiff" / "__init__.py").is_file():
        sys.exit(f"bench: no expdiff sources under {SRC}; "
                 "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import expdiff

    if Path(expdiff.__file__).resolve().parent != SRC / "expdiff":
        sys.exit(f"bench: imported expdiff from {expdiff.__file__}, "
                 f"not from {SRC}")
    return ROOT


def checkout_commit() -> str | None:
    """Commit of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None
