"""Tests of the benchmark's output checks: each check must pass on right
outputs and fail on a count off by one, a vector that misses the
congruence, and a primitive vector returned for "nonprimitive".

    PYTHONPATH=src python -m pytest perfbench/test_checks.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from quadmod import PrimePower, RepCounts, counting, form_counts_by_symbol  # noqa: E402

I2 = [[1, 0], [0, 1]]
Q3 = [[2, 1, 0], [1, 2, 1], [0, 1, 4]]


def test_brute_counts_match_a_hand_count():
    # x^2 + y^2 = 1 mod 25: 20 solutions, all primitive
    assert checks.brute_counts(I2, 25, 1, [5]) == (20, 20)
    # mod 15 = 3 * 5 with t = 6: only non-primitive solutions
    assert checks.brute_counts(I2, 15, 6, [3, 5]) == (4, 0)


def test_count_off_by_one_fails():
    total, prim = checks.brute_counts(Q3, 9, 5, [3])
    assert checks.check_counts("c", RepCounts(total, prim, total - prim), total, prim) == []
    assert checks.check_counts("c", RepCounts(total + 1, prim + 1, total - prim), total, prim)
    assert checks.check_counts("c", RepCounts(total, prim - 1, total - prim + 1), total, prim)


def test_partition_identity_catches_one_wrong_entry():
    pp = PrimePower(3, 6)
    table = form_counts_by_symbol(Q3, pp)
    assert checks.check_partition(Q3, 3, 6, table) == []
    g, c = next(iter(table.items()))
    bad = dict(table)
    bad[g] = RepCounts(c.total + 1, c.primitive + 1, c.nonprimitive)
    assert checks.check_partition(Q3, 3, 6, bad)


def test_symbol_and_class_sizes_partition_the_ring():
    for p, k in ((2, 1), (2, 2), (2, 5), (3, 4), (5, 3)):
        seen = {}
        for t in range(p**k):
            g = checks.symbol(p, k, t)
            seen[g] = seen.get(g, 0) + 1
        assert all(checks.class_size(p, k, g) == n for g, n in seen.items())
        assert sum(seen.values()) == p**k


def test_vector_checks():
    m, t = 25, 1
    assert checks.check_vector("v", I2, (0, 1), m, t, [5], "primitive") == []
    assert checks.check_vector("v", I2, (0, 2), m, t, [5], "any")  # misses the congruence
    assert checks.check_vector("v", I2, None, m, t, [5], "any")
    # t = 0 mod 25: (5, 0) is non-primitive, (7, 1) is primitive (49 + 1 = 50)
    assert checks.check_vector("v", I2, (5, 0), m, 0, [5], "nonprimitive") == []
    assert checks.check_vector("v", I2, (7, 1), m, 0, [5], "nonprimitive")
    assert checks.check_vector("v", I2, (5, 0), m, 0, [5], "primitive")


def test_chi_square():
    rng = random.Random(1)
    support = [(i,) for i in range(20)]
    fair = [rng.choice(support) for _ in range(400)]
    assert checks.check_uniform("u", fair, 20) == []
    skewed = fair[:300] + [(0,)] * 100
    assert checks.check_uniform("u", skewed, 20)
    assert checks.check_uniform("u", fair, 10)  # more distinct draws than the support


def test_density_level_and_value():
    s = checks.density_level(I2, 5, 1)
    assert s == 1
    total, _ = checks.brute_counts(I2, 5**s, 1, [5])
    assert checks.density_from_count(total, 5, s, 2) == Fraction(4, 5)


@pytest.fixture
def runner(monkeypatch):
    """A Runner over a small list of count and draw operations; the table
    capture it installs is undone after the test."""
    monkeypatch.setattr(counting, "form_counts_by_symbol", counting.form_counts_by_symbol)
    rng = random.Random(5)
    q = workloads.jordan_form(rng, [3], (0, 0, 1))
    ops = [
        {"op": "count_form", "q": q, "p": 3, "k": 2, "t": 4},
        {"op": "count_form", "q": q, "p": 3, "k": 9, "t": 7},
        {"op": "sample_form", "q": q, "p": 3, "k": 2, "t": 0, "kind": "nonprimitive"},
        {"op": "sample_form", "q": q, "p": 3, "k": 2, "t": 1, "kind": "any"},
    ]
    return worker.Runner("count", 1, ops, traced=False)


def test_runner_passes_right_outputs_and_flags_each_fault(runner):
    lat, _, outs, failures = runner.run_all()
    assert failures == [] and len(lat) == 4
    assert runner.check(outs, failures) == []

    off = list(outs)
    c = off[0]
    off[0] = RepCounts(c.total + 1, c.primitive + 1, c.nonprimitive)
    assert any("op 0" in e for e in runner.check(off, []))

    deep = list(outs)
    c = deep[1]
    deep[1] = RepCounts(c.total - 1, c.primitive - 1, c.nonprimitive)
    assert any("op 1" in e for e in runner.check(deep, []))

    miss = list(outs)
    miss[3] = tuple((v + 1) % 9 for v in outs[3])
    if checks.form_value(runner.ops[3]["q"], miss[3]) % 9 == 1:
        miss[3] = (0,) * len(outs[3])
    assert any("op 3" in e for e in runner.check(miss, []))

    prim = list(outs)
    q = runner.ops[2]["q"]
    prim[2] = next(
        x
        for x in ((a, b, c) for a in range(9) for b in range(9) for c in range(9))
        if checks.form_value(q, x) % 9 == 0 and any(v % 3 for v in x)
    )
    assert any("primitive vector" in e for e in runner.check(prim, []))

    # a failed operation is not checked
    assert runner.check([None] + outs[1:], ["op 0 (count_form): boom"]) == []
