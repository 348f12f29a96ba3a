"""Shared fixtures for the benchmark harness.

The Table 2 suite run (50 scenes x 3 variants) is expensive, so it is
computed once per session and shared by every bench that reports on it.
Set ``REPRO_BENCH_ROWS`` to a comma-separated list of benchmark numbers to
restrict the run (e.g. ``REPRO_BENCH_ROWS=9,15,44`` for a smoke pass).

Timings follow the repo's re-baselining convention (see
``repro.bench.core_bench``): each row reports the median over
``REPRO_BENCH_REPEATS`` synthesis runs (default 3), so a single OS
scheduling glitch does not decide a row's timing.  The suite writes
nothing under ``benchmarks/out/``: the committed artefacts there are
refreshed only by ``repro bench --csv ... --json ...``.
"""

import os

import pytest

from repro.bench.runner import run_suite


def pytest_collection_modifyitems(items):
    """Mark every test under ``benchmarks/`` as ``slow``.

    CI runs the blocking job with ``-m "not slow"`` and pushes this whole
    directory into a separate non-blocking job; a plain ``pytest`` still
    collects and runs everything.  (This hook sees the whole session's
    items, so filter to this directory.)
    """
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.fspath).startswith(here):
            item.add_marker(pytest.mark.slow)


def _selected_rows():
    raw = os.environ.get("REPRO_BENCH_ROWS", "").strip()
    if not raw:
        return None
    return [int(part) for part in raw.split(",") if part.strip()]


def _timing_repeats():
    raw = os.environ.get("REPRO_BENCH_REPEATS", "").strip()
    return int(raw) if raw else 3


@pytest.fixture(scope="session")
def suite_results():
    """All Table 2 rows under all three variants (cached per session)."""
    return run_suite(numbers=_selected_rows(), n=10,
                     timing_repeats=_timing_repeats())


@pytest.fixture(scope="session")
def figure1_scene():
    from repro.javamodel.scenes import sequence_of_streams_scene

    return sequence_of_streams_scene()
