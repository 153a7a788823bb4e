"""Where a bench row was measured: the header every ``BENCH_*.json``
writer puts on its row.

Bench scripts import it as ``from provenance import host_provenance``:
``benchmarks/`` is on ``sys.path`` both when a bench runs as a script
and when pytest collects it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_provenance(engine: str) -> dict:
    """The host, engine and source a row was measured on: ``commit`` is
    the checkout's HEAD and ``src_sha256`` digests ``src/`` as it ran
    (the two differ when the row is measured before its change is
    committed)."""
    root = Path(__file__).resolve().parent.parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"cores": os.cpu_count(), "usable_cores": usable_cores(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "machine": platform.machine(), "engine": engine,
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}
