"""Shared benchmark fixtures.

The full TAG-Bench report is computed once per session and shared by
the Table 1 / Table 2 / Figure 2 benchmarks; each bench file also
writes its regenerated artifact under ``benchmarks/out/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench.runner import BenchmarkReport, run_benchmark
from repro.bench.suite import build_suite
from repro.data import load_all

OUT_DIR = pathlib.Path(__file__).parent / "out"


def write_artifact(name: str, text: str) -> None:
    """Print an artifact and, on a full-size run, write it.

    A smoke run (``REPRO_SMOKE=1``) only prints: the files committed
    under ``benchmarks/out/`` are the full-size ones, and ``make
    artifacts-check`` diffs regenerations against them.
    """
    if os.environ.get("REPRO_SMOKE") != "1":
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / name).write_text(text, encoding="utf-8")
    print("\n" + text)


@pytest.fixture(scope="session")
def full_report() -> BenchmarkReport:
    return run_benchmark(seed=0)


@pytest.fixture(scope="session")
def datasets():
    return load_all(seed=0)


@pytest.fixture(scope="session")
def suite():
    return build_suite()
