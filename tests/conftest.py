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


@pytest.fixture
def field_bytes():
    """Bytes of one float64 field over the horizon: field_bytes(grid, n_steps).

    Memory bounds are stated in this unit, so they read alike across tests.
    """
    return lambda grid, n_steps: 8 * (n_steps + 1) * grid.n_nodes
