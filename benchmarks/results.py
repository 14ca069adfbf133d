"""Where benchmark runs write their trajectory files.

Each ``bench_e1*`` module merges its sections into ``BENCH_e*.json``
under ``$BENCH_OUT`` (default: ``.bench_out/`` at the repo root, which
git ignores).  Running the suite therefore never rewrites the committed
``BENCH_e*.json`` files at the repo root: those are the baselines
``benchmarks/diff_trajectory.py`` compares a fresh run against.
Updating a baseline is an explicit copy, e.g.
``cp .bench_out/BENCH_e13.json BENCH_e13.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent


def out_path(name: str) -> Path:
    """``$BENCH_OUT/<name>``, creating the directory."""
    out = Path(os.environ.get("BENCH_OUT") or REPO_ROOT / ".bench_out")
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def record(name: str, section: str, payload: Any, **params: Any) -> None:
    """Merge one section (and the run's parameters) into ``name``."""
    path = out_path(name)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data.update(params)
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
