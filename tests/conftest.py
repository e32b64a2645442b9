"""Fixtures shared by the test modules: call counters around the names
through which one layer calls another."""

from types import SimpleNamespace

import pytest

import quadmod.counting
import quadmod.sampling


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


@pytest.fixture
def root_calls(monkeypatch):
    """Counters wrapped around sampling's lift_sqrt_odd and sqrt_unit_mod_2k,
    the square roots a draw takes."""
    odd = CallCounter(quadmod.sampling.lift_sqrt_odd)
    two = CallCounter(quadmod.sampling.sqrt_unit_mod_2k)
    monkeypatch.setattr(quadmod.sampling, "lift_sqrt_odd", odd)
    monkeypatch.setattr(quadmod.sampling, "sqrt_unit_mod_2k", two)
    return odd, two


@pytest.fixture
def unit_digit_trials(monkeypatch):
    """Trials and rejections of sampling's equal-orders rejection loop,
    the draw_until over the unit digits 1..p-1 that a split and a type I
    head step share (a symbol class's digit, drawn from 0..p-1, is not
    counted): each call of the loop's accept test is a trial, and each
    False a rejection."""
    counts = SimpleNamespace(trials=0, rejects=0)
    draw = quadmod.sampling.draw_until

    def counted(lo, n, accept, rng):
        if lo != 1:
            return draw(lo, n, accept, rng)

        def watched(u):
            ok = accept(u)
            counts.trials += 1
            counts.rejects += not ok
            return ok

        return draw(lo, n, watched, rng)

    monkeypatch.setattr(quadmod.sampling, "draw_until", counted)
    return counts
