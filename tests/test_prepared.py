"""The prepared pipeline: one diagonalization and one set of tables per
factor, read by every count and draw of the form.

The counts are refereed by enumeration (oracle.solutions_mod), the
one-pass block tables by count_block symbol by symbol, and the draws by
the wrappers' own transcripts: preparing draws no randomness, so draws
from one prepared form equal fresh sample_form calls on the same
generator.
"""

import copy
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import CallCounter

import quadmod.blockdiag
import quadmod.counting
import quadmod.sampling
import quadmod.symbols
from quadmod import (
    PrimePower,
    RepKind,
    count_composite,
    count_factors,
    count_form,
    form_counts_by_symbol,
    local_density,
    prepare,
    sample_composite,
    sample_factors,
    sample_form,
    sample_prepared,
)
from quadmod.blockdiag import TypeI, TypeII
from quadmod.counting import RepCounts, block_table, count_block, symbol_table
from quadmod.modring import INF, legendre
from quadmod.oracle import solutions_mod
from quadmod.symbols import SymbolLayout, class_size, enumerate_symbols, symbol_of

P127 = 2**127 - 1
Q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]


def random_form(rng, n, singular):
    """A symmetric n x n matrix with small entries; a singular one is
    c * v v' (rank at most one), with v = (0) when n = 1."""
    if singular:
        v = [rng.randrange(-3, 4) if n > 1 else 0 for _ in range(n)]
        c = rng.randrange(1, 5)
        return [[c * a * b for b in v] for a in v]
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            q[i][j] = q[j][i] = rng.randrange(-6, 7)
    return q


def small_instances():
    """(form, p^k) with p in {2, 3, 5} and (p^k)^n <= 4096, n <= 4."""
    rng = random.Random(4096)
    out = []
    for p in (2, 3, 5):
        k = 1
        while p**k <= 64:
            pp = PrimePower(p, k)
            for n in range(1, 5):
                if pp.q**n > 4096:
                    break
                out += [(random_form(rng, n, singular), pp) for singular in (False, False, True)]
            k += 1
    return out


SMALL = small_instances()


@pytest.mark.parametrize("q_mat, pp", SMALL, ids=[f"{pp.p}^{pp.k}-n{len(q)}-{i}" for i, (q, pp) in enumerate(SMALL)])
def test_prepared_counts_match_enumeration(q_mat, pp):
    form = prepare(q_mat, pp)
    for t in range(pp.q):
        sols = solutions_mod(q_mat, pp.q, t)
        prim = sum(1 for v in sols if gcd(pp.p, *v) == 1)
        got = form.count(t)
        assert (got.total, got.primitive, got.nonprimitive) == (len(sols), prim, len(sols) - prim), t
        # every public count is the prepared table's entry at t's symbol
        assert got == form.table.get(symbol_of(pp, t), (0, 0, 0)) == count_form(q_mat, pp, t)
    assert form_counts_by_symbol(q_mat, pp) == form.table


def test_composite_count_is_the_product_of_prepared_factors():
    q_mat = [[2, 1], [1, 4]]
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(5, 1)]
    forms = [prepare(q_mat, pp) for pp in factors]
    m = 8 * 9 * 5
    for t in range(0, m, 7):
        sols = solutions_mod(q_mat, m, t)
        prim = sum(1 for v in sols if gcd(m, *v) == 1)
        assert count_factors(forms, t) == count_composite(q_mat, factors, t) == (len(sols), prim, len(sols) - prim)


def test_local_density_reads_the_prepared_count():
    q_mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # det = 1 and t = 1, so the stabilizing level at 2 is s = 1 + ord_2(8) = 4
    form = prepare(q_mat, PrimePower(2, 4))
    assert local_density(q_mat, 2, 1) == Fraction(form.count(1).total, 2 ** (4 * 2))


def random_type1(rng, pp):
    """d = 0, a unit, or p^e times a unit for a random 0 < e < k + 2."""
    roll = rng.randrange(4)
    if roll == 0:
        return TypeI(0)
    u = rng.randrange(1, 10**6) * pp.p + rng.randrange(1, pp.p if pp.p > 2 else 2)
    if roll == 1:
        return TypeI(u)
    return TypeI(u * pp.p ** rng.randrange(1, pp.k + 2))


@pytest.mark.parametrize("p", [2, 3, 5, 13, P127])
def test_block_table_equals_count_block(p):
    rng = random.Random(p % 1000)
    for k in range(1, 10):
        pp = PrimePower(p, k)
        layout = SymbolLayout(pp)
        blocks = [random_type1(rng, pp) for _ in range(8)]
        if p == 2:
            blocks += [
                TypeII(rng.randrange(k + 2), rng.randrange(8), 2 * rng.randrange(8) + 1, rng.randrange(8))
                for _ in range(6)
            ]
        for blk in blocks:
            want = {g: count_block(blk, pp, g) for g in enumerate_symbols(pp) if class_size(pp, g) > 0}
            got = symbol_table(layout, block_table(blk, layout))
            assert got == want and list(got) == list(want), (pp, blk)


def symbol_rep(pp, g):
    """An element of Z/p^k whose symbol is g."""
    if g.ord == INF:
        return 0
    if pp.p == 2:
        return 2**g.ord * g.sgn
    return pp.p**g.ord * next(u for u in range(1, pp.p) if legendre(u, pp.p) == g.sgn)


def dense_even(seed, n):
    """A dense symmetric n x n matrix with an even diagonal, so that
    type II blocks occur mod powers of 2."""
    rng = random.Random(seed)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = 2 * rng.randrange(500)
        for j in range(i):
            q[i][j] = q[j][i] = rng.randrange(1000)
    return q


CROSS_PATH = {
    "Q4-2^60": (Q4, PrimePower(2, 60)),
    "Q4-3^60": (Q4, PrimePower(3, 60)),
    "Q4-5^60": (Q4, PrimePower(5, 60)),
    "Q4-P^30": (Q4, PrimePower(P127, 30)),
    "Q4-P^60": (Q4, PrimePower(P127, 60)),
    "dense-24-2^6": (dense_even(6, 24), PrimePower(2, 6)),
    "diagonal-2^20": ([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 10, 0], [0, 0, 0, 28]], PrimePower(2, 20)),
    "one-type1-3^5": ([[6]], PrimePower(3, 5)),
    "one-type2-2^7": ([[2, 1], [1, 2]], PrimePower(2, 7)),
    "zero-dim-5^3": ([], PrimePower(5, 3)),
}


@pytest.mark.parametrize("q_mat, pp", CROSS_PATH.values(), ids=CROSS_PATH)
def test_count_equals_the_full_top_level(q_mat, pp):
    # count sums the split cells of one target over the head table and
    # the first tail; table builds the whole top level with _convolve
    form = prepare(q_mat, pp)
    table = form.table
    if form.blocks:
        assert list(table) == form.layout.syms
    for g in form.layout.syms:
        assert symbol_of(pp, symbol_rep(pp, g)) == g
        assert form.count(symbol_rep(pp, g)) == table.get(g, RepCounts(0, 0, 0)), g


LEVEL_FORMS = [([[j + 1 if i == j else 0 for j in range(n)] for i in range(n)], PrimePower(3, 4)) for n in range(6)]
LEVEL_FORMS.append((Q4, PrimePower(2, 6)))  # type II blocks among its blocks


@pytest.mark.parametrize("q_mat, pp", LEVEL_FORMS, ids=[f"n{len(q)}-{pp}" for q, pp in LEVEL_FORMS])
def test_prepare_builds_only_the_levels_the_walk_reads(monkeypatch, layer_calls, q_mat, pp):
    _, tables = layer_calls
    convolve = CallCounter(quadmod.counting._convolve)
    monkeypatch.setattr(quadmod.counting, "_convolve", convolve)
    form = prepare(q_mat, pp)
    levels = max(0, len(form.blocks) - 2)
    assert (tables.calls, convolve.calls) == (1 if form.blocks else 0, levels)
    form.count(9)
    assert convolve.calls == levels
    # the top level is built on each read, and not kept
    assert form.table == form.table
    assert convolve.calls == levels + 2 * (len(form.blocks) >= 2)


@pytest.mark.parametrize("q_mat", [Q4, [[1, 2], [2, 1]], []], ids=["Q4", "2x2", "empty"])
def test_prepare_checks_symmetry_once(monkeypatch, q_mat):
    check = CallCounter(quadmod.blockdiag.check_symmetric)
    monkeypatch.setattr(quadmod.counting, "check_symmetric", check)
    monkeypatch.setattr(quadmod.blockdiag, "check_symmetric", check)
    for pp in (PrimePower(2, 5), PrimePower(3, 4)):
        check.calls = 0
        prepare(q_mat, pp)
        assert check.calls == 1, pp


@pytest.mark.parametrize("kind", list(RepKind))
def test_sample_form_prepares_once(layer_calls, kind):
    diag, tables = layer_calls
    sample_form(Q4, PrimePower(3, 4), 7, kind, random.Random(1))
    assert (diag.calls, tables.calls) == (1, 1)


@pytest.mark.parametrize("kind", list(RepKind))
def test_sample_composite_prepares_once_per_factor(layer_calls, kind):
    diag, tables = layer_calls
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(13, 1)]
    sample_composite(Q4, factors, 14, kind, random.Random(2))
    assert (diag.calls, tables.calls) == (3, 3)


@pytest.mark.parametrize("kind", list(RepKind))
def test_prepared_draws_repeat_the_wrapper_transcripts(kind):
    pp = PrimePower(2, 6)
    form = prepare(Q4, pp)
    rng_a, rng_b = random.Random(11), random.Random(11)
    for t in (0, 12, 40):
        for _ in range(5):
            assert sample_prepared(form, t, kind, rng_a) == sample_form(Q4, pp, t, kind, rng_b)
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(P127, 1)]
    forms = [prepare(Q4, pp) for pp in factors]
    for t in (0, 14, 78):
        for _ in range(5):
            assert sample_factors(forms, t, kind, rng_a) == sample_composite(Q4, factors, t, kind, rng_b)


def container_sizes():
    """Sizes of every container and cache held by the three modules."""
    sizes = {}
    for mod in (quadmod.counting, quadmod.sampling, quadmod.symbols):
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set, tuple)):
                sizes[mod.__name__, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[mod.__name__, name] = value.cache_info().currsize
    return sizes


def test_layout_is_local_to_one_prepared_form():
    # the layout is fixed once prepared (near cells are computed by rule,
    # not stored), and no module-level container grows across calls
    before = container_sizes()
    rng = random.Random(3)
    pp = PrimePower(3, 6)
    form = prepare(Q4, pp)
    layout_state = copy.deepcopy(vars(form.layout))
    for t in range(0, 40, 3):
        sample_prepared(form, t, RepKind.ANY, rng)
        sample_prepared(form, t, RepKind.PRIMITIVE, rng)
    assert vars(form.layout) == layout_state
    for _ in range(3):
        count_form(Q4, pp, 5)
        sample_form(Q4, pp, 5, RepKind.PRIMITIVE, rng)
        sample_composite(Q4, [PrimePower(2, 5), pp], 5, RepKind.NONPRIMITIVE, rng)
    assert prepare(Q4, pp).layout is not form.layout
    assert container_sizes() == before
