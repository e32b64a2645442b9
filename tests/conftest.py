"""Fixtures shared by the test modules: call counters around the names
through which one layer calls another."""

import pytest

import quadmod.counting


class CallCounter:
    """Counts calls of a function while passing them through."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def layer_calls(monkeypatch):
    """Counters wrapped around counting's block_diagonalize and chain_tables."""
    diag = CallCounter(quadmod.counting.block_diagonalize)
    tables = CallCounter(quadmod.counting.chain_tables)
    monkeypatch.setattr(quadmod.counting, "block_diagonalize", diag)
    monkeypatch.setattr(quadmod.counting, "chain_tables", tables)
    return diag, tables
