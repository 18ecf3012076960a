"""Shared helpers for the benchmark harness.

Every benchmark runs one ablation or extension of the paper's evaluation
and prints its rows alongside the pytest-benchmark timing of the harness
itself.  Sweep benchmarks run one
round — the interesting output is the experiment numbers, not the
harness's wall-clock variance.
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
