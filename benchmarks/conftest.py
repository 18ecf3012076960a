"""Shared helpers for the ``bench_*.py`` sweeps under pytest-benchmark.

Each sweep prints its rows alongside the pytest-benchmark timing of the
harness itself, and runs one round: the interesting output is the
sweep's numbers, not the harness's wall-clock variance.
"""

import pytest


def run_once(benchmark, fn):
    """Benchmark ``fn`` with a single round and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit(title: str, text: str) -> None:
    print(f"\n=== {title} ===")
    print(text)


@pytest.fixture
def bench_once(benchmark):
    """Fixture wrapping :func:`run_once`."""

    def _run(fn):
        return run_once(benchmark, fn)

    return _run
