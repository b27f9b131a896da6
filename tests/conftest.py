"""Shared test helpers."""
import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Call fn(*args, **kwargs) under tracemalloc; returns (its result, peak bytes)."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return run
