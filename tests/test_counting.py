import hashlib
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import dp_reference
import pytest
from conftest import CallCounter
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmod import counting, gauss
from quadmod.blockdiag import TypeI, TypeII, block_diagonalize, blocks_to_matrix
from quadmod.counting import (
    RepCounts,
    SingularForm,
    ZeroTarget,
    _scaled_type2_counts,
    _type2_seeds,
    block_cells,
    chain_tables,
    count_composite,
    count_factors,
    count_form,
    form_counts_by_symbol,
    local_density,
    prepare,
    symbol_table,
)
from quadmod.modring import INF, DomainError, PrimePower, legendre, valuation
from quadmod.oracle import histogram_counts, solutions_mod
from quadmod.sampling import RepKind, sample_prepared
from quadmod.symbols import SYMBOL_ZERO, SymbolLayout, class_size, enumerate_symbols, symbol_of
from test_symbols import dense_split_size


def _counts(prim, nprim):
    return RepCounts(prim + nprim, prim, nprim)


def count_type1(d, pp, sym_t):
    """Per-symbol referee: solutions x of d*x^2 = t mod p^k, with
    symbol(t) = sym_t.

    t = 0: every x with 2*ord(x) + ord(d) >= k works.  t != 0: writing
    x = p^e * y with y a unit needs ord(t) - ord(d) = 2e >= 0 and the
    unit parts to agree as squares: equal Legendre signs for odd p, and
    cop(d) = cop(t) modulo min(8, 2^(k - ord t)) for p = 2.  Then y has
    `mult` roots (2 for odd p; for p = 2, 4 once three bits of the unit
    part are visible, else k - ord t) and (ord t + ord d)/2 free digits,
    giving mult * p^((ord t + ord d)/2) solutions, primitive exactly
    when e = 0.
    """
    p, k = pp.p, pp.k
    ord_d, cop_d = valuation(pp, d % pp.q)
    o, s = sym_t
    if o == INF:
        if ord_d == INF:
            return _counts((p - 1) * p ** (k - 1), p ** (k - 1))
        # x = 0 mod p^ceil((k - ord d)/2), leaving floor((k + ord d)/2) digits
        return _counts(0, p ** ((k + ord_d) // 2))
    if ord_d == INF or o < ord_d or (o - ord_d) % 2:
        return RepCounts(0, 0, 0)
    if p == 2:
        if (s - cop_d) % min(8, 2 ** (k - o)):
            return RepCounts(0, 0, 0)
        mult = 4 if k - o >= 3 else k - o
    elif s != legendre(cop_d, p):
        return RepCounts(0, 0, 0)
    else:
        mult = 2
    reps = mult * p ** ((o + ord_d) // 2)
    return _counts(reps, 0) if o == ord_d else _counts(0, reps)


def count_type2(blk, k, sym_t):
    """Per-symbol referee: solutions of 2^(ell+1)*(a x^2 + b xy + c y^2)
    = t mod 2^k.

    The form value is always divisible by 2^(ell+1); once that much is
    known the scaled equation lives in Z/2^(k-ell-1).  When ell+1 >= k
    the form vanishes identically mod 2^k.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    ell = blk.ell
    ord_t, sgn_t = sym_t
    if ell + 1 >= k:
        if ord_t == INF:
            return _counts(4**k - 4 ** (k - 1), 4 ** (k - 1))
        return _counts(0, 0)
    if ord_t != INF and ord_t < ell + 1:
        return _counts(0, 0)
    k2 = k - ell - 1
    t2 = 0 if ord_t == INF else sgn_t % 2 ** (k - ord_t) << (ord_t - ell - 1)  # a target of symbol sym_t, over 2^(ell+1)
    prim, nprim = _scaled_type2_counts(_type2_seeds(blk.a, blk.b, blk.c), t2, k2)
    scale = 4 ** (ell + 1)
    return _counts(prim * scale, nprim * scale)


def count_block(blk, pp, sym_t):
    """Counts for a single block at a target symbol."""
    if isinstance(blk, TypeI):
        return count_type1(blk.d, pp, sym_t)
    return count_type2(blk, pp.k, sym_t)


I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
Q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]


def test_count_type1_odd_examples():
    pp = PrimePower(5, 2)
    assert count_type1(1, pp, symbol_of(pp, 1)) == (2, 2, 0)
    pp = PrimePower(3, 2)
    assert count_type1(1, pp, symbol_of(pp, 0)) == (3, 0, 3)
    pp = PrimePower(5, 1)
    assert count_type1(1, pp, symbol_of(pp, 2)) == (0, 0, 0)


def test_count_type1_two_examples():
    two3 = PrimePower(2, 3)
    assert count_type1(1, two3, symbol_of(two3, 1)) == (4, 4, 0)
    assert count_type1(1, PrimePower(2, 2), symbol_of(PrimePower(2, 2), 1)) == (2, 2, 0)
    assert count_type1(1, two3, symbol_of(two3, 0)) == (2, 0, 2)


def test_count_type1_brute():
    rng = random.Random(2)
    for p, kmax in ((2, 5), (3, 3), (5, 2), (7, 2)):
        for k in range(1, kmax + 1):
            pp = PrimePower(p, k)
            for _ in range(6):
                d = rng.randrange(pp.q)
                per_t = histogram_counts([[d]], pp)
                for t in range(pp.q):
                    g = symbol_of(pp, t)
                    got = count_type1(d, pp, g)
                    assert got == per_t[t], (p, k, d, t)


def test_count_type2_examples():
    hyp = TypeII(0, 0, 1, 0)  # 2 x y
    two2 = PrimePower(2, 2)
    assert count_type2(hyp, 2, symbol_of(two2, 2)) == (4, 4, 0)
    assert count_type2(hyp, 2, symbol_of(two2, 1)) == (0, 0, 0)
    for k in (1, 2, 3, 4):
        blk = TypeII(k - 1, 1, 1, 1)  # scale kills everything mod 2^k
        got = count_type2(blk, k, symbol_of(PrimePower(2, k), 0))
        assert got.nonprimitive == 4 ** (k - 1)
        assert got.primitive == 4**k - 4 ** (k - 1)


def test_count_type2_brute():
    rng = random.Random(3)
    for k in range(1, 6):
        pp = PrimePower(2, k)
        for _ in range(8):
            ell = rng.randrange(k)
            a, c = rng.randrange(8), rng.randrange(8)
            b = 2 * rng.randrange(8) + 1
            blk = TypeII(ell, a, b, c)
            mat = [[v % pp.q for v in row] for row in blk.matrix()]
            per_t = histogram_counts(mat, pp)
            for t in range(pp.q):
                assert count_type2(blk, k, symbol_of(pp, t)) == per_t[t], (k, blk, t)


def test_count_form_examples():
    assert count_form(I2, PrimePower(5, 1), 1) == (4, 4, 0)
    assert count_form(I2, PrimePower(2, 3), 2) == (16, 16, 0)
    assert count_form(I3, PrimePower(3, 1), 0) == (9, 8, 1)


def test_count_form_totals_partition():
    # totals over all t cover the whole space (Z/9)^2
    pp = PrimePower(3, 2)
    from quadmod.symbols import class_size

    table = form_counts_by_symbol(I2, pp)
    assert sum(class_size(pp, g) * c.total for g, c in table.items()) == pp.q ** 2
    assert sum(count_form(I2, pp, t).total for t in range(pp.q)) == pp.q ** 2


@st.composite
def form_instances(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kmax = {2: 4, 3: 3, 5: 2, 7: 1}[p]
    k = draw(st.integers(min_value=1, max_value=kmax))
    n = draw(st.integers(min_value=1, max_value=3))
    pp = PrimePower(p, k)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_value=0, max_value=pp.q - 1))
            mat[i][j] = v
            mat[j][i] = v
    return pp, mat


@given(form_instances())
@settings(max_examples=60, deadline=None)
def test_count_form_matches_oracle(inst):
    pp, mat = inst
    if pp.q ** len(mat) > 2**16:
        return
    per_t = histogram_counts(mat, pp)
    for t in range(pp.q):
        assert count_form(mat, pp, t) == per_t[t], (pp, mat, t)


@given(form_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_count_form_unit_square_invariance(inst, data):
    pp, mat = inst
    t = data.draw(st.integers(min_value=0, max_value=pp.q - 1))
    u = data.draw(st.integers(min_value=1, max_value=pp.q - 1))
    if u % pp.p == 0:
        u += 1
    assert count_form(mat, pp, t) == count_form(mat, pp, t * u * u % pp.q)



@st.composite
def enumerable_forms(draw):
    """(pp, Q, t) with q^n <= 4096: entries of every p-order, singular
    forms (a repeated row and column), an even diagonal at p = 2 (type II
    pivots), and targets 0 or divisible by p as often as units."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=4))
    kmax = max(e for e in range(1, 13) if p ** (e * n) <= 4096)
    k = draw(st.integers(min_value=1, max_value=kmax))
    pp = PrimePower(p, k)
    q = pp.q
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_value=0, max_value=q - 1)) * p ** draw(st.integers(0, k)) % q
            mat[i][j] = mat[j][i] = v
    if p == 2 and draw(st.booleans()):
        for i in range(n):
            mat[i][i] = 2 * mat[i][i] % q
    if n > 1 and draw(st.booleans()):
        for i in range(n):
            mat[i][n - 1] = mat[n - 1][i] = mat[0][i]
        mat[n - 1][n - 1] = mat[0][0]
    t = draw(st.one_of(st.just(0), st.integers(0, q - 1).map(lambda x: p * x % q), st.integers(0, q - 1)))
    return pp, mat, t


@given(enumerable_forms())
@settings(max_examples=300, deadline=None)
def test_count_form_matches_enumeration(inst):
    pp, mat, t = inst
    assert pp.q ** len(mat) <= 4096
    sols = solutions_mod(mat, pp.q, t)
    primitive = sum(1 for x in sols if any(c % pp.p for c in x))
    counts = count_form(mat, pp, t)
    assert (counts.total, counts.primitive) == (len(sols), primitive), (pp, mat, t)

def test_local_density_examples():
    assert local_density([[1]], 5, 1) == 2
    assert local_density(I2, 5, 1) == Fraction(4, 5)
    assert local_density([[1]], 3, 3) == 0
    with pytest.raises(SingularForm):
        local_density([[1, 1], [1, 1]], 5, 1)
    with pytest.raises(ZeroTarget):
        local_density([[1]], 5, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_density_of_the_form_in_no_variables(p):
    # Q(x) = 0 for the one x, and s > ord_p t, so t is no value mod p^s:
    # the density is 0, taken exactly although p^(s(n-1)) is a fraction
    for t in (1, -1, 2, 7, p, p**3, -(p**5) * 11):
        density = local_density([], p, t)
        assert type(density) is Fraction and density == 0, t


@pytest.mark.parametrize("p", [1, -1, 0, 4])
def test_local_density_rejects_a_non_prime_p(p):
    # checked before the stabilizing loop, which would never end for p = +-1
    with pytest.raises(DomainError):
        local_density([[1]], p, 1)


def test_local_density_stabilized():
    # at s and above, counts scale by p^(n-1) per level, so the ratio is flat
    from quadmod.blockdiag import integer_det

    for q_mat, p, t in ((I2, 5, 2), (I2, 3, 6), ([[2, 1], [1, 3]], 7, 1), (I3, 3, 4)):
        alpha = local_density(q_mat, p, t)
        n = len(q_mat)
        det = integer_det(q_mat)
        s = 1
        arg = 8 * t * det
        while arg % p == 0:
            s += 1
            arg //= p
        for extra in (1, 2):
            pp = PrimePower(p, s + extra)
            assert Fraction(count_form(q_mat, pp, t).total, p ** ((s + extra) * (n - 1))) == alpha


def test_count_composite_examples():
    assert count_composite([[1]], [PrimePower(3, 1), PrimePower(5, 1)], 1).total == 4
    pp = PrimePower(7, 2)
    assert count_composite(I2, [pp], 3) == count_form(I2, pp, 3)
    got = count_composite(I2, [PrimePower(3, 2), PrimePower(5, 1)], 2)
    brute = sum(1 for x in range(45) for y in range(45) if (x * x + y * y) % 45 == 2)
    assert got.total == brute
    assert got.total == count_form(I2, PrimePower(3, 2), 2).total * count_form(I2, PrimePower(5, 1), 2).total


def test_count_composite_validation():
    with pytest.raises(DomainError):
        count_composite([[1]], [], 1)
    with pytest.raises(DomainError):
        count_composite([[1]], [PrimePower(3, 1), PrimePower(3, 2)], 1)


def test_count_composite_gcd_brute():
    from math import gcd

    rng = random.Random(4)
    for facs in ([PrimePower(3, 1), PrimePower(5, 1)], [PrimePower(2, 2), PrimePower(3, 1)]):
        q = 1
        for pp in facs:
            q *= pp.q
        for _ in range(4):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            mat = [[a, b], [b, c]]
            t = rng.randrange(q)
            sols = [
                (x, y)
                for x in range(q)
                for y in range(q)
                if (a * x * x + 2 * b * x * y + c * y * y) % q == t
            ]
            prim = sum(1 for v in sols if gcd(q, *v) == 1)
            got = count_composite(mat, facs, t)
            assert got == (len(sols), prim, len(sols) - prim), (facs, mat, t)


def recursive_scaled_type2(a, b, c, t2, k2):
    """Reference: the two-bits-down recursion, read off its definition."""
    if k2 == 0:
        return (0, 1)
    prim = sum(2 ** (k2 - 1) for x0, y0 in ((0, 1), (1, 0), (1, 1)) if (a * x0 + b * x0 * y0 + c * y0 - t2) % 2 == 0)
    nprim = 0
    if k2 == 1:
        nprim = 1 if t2 % 2 == 0 else 0
    elif t2 % 4 == 0:
        p2, n2 = recursive_scaled_type2(a, b, c, (t2 // 4) % 2 ** (k2 - 2), k2 - 2)
        nprim = 4 * (p2 + n2)
    return prim, nprim


def test_scaled_type2_count_matches_recursion():
    for a, b, c in ((0, 1, 0), (1, 1, 1), (1, 3, 2), (2, 1, 3), (3, 5, 3)):
        for k2 in range(41):
            targets = {0} | {2**o * u % 2**k2 for o in range(k2) for u in (1, 3, 5, 7)}
            for t2 in targets:
                got = _scaled_type2_counts(_type2_seeds(a, b, c), t2, k2)
                assert got == recursive_scaled_type2(a, b, c, t2, k2), (a, b, c, t2, k2)


def type2_cells_by_order(cls, layout):
    """block_cells of the type II block of class cls, built order by
    order: one _scaled_type2_counts per order, at t2 = 2^(ord - ell - 1)
    and at t2 = 0 for the zero symbol, at each symbol of the order in
    the layout's iteration order."""
    k = layout.pp.k
    if cls.ell + 1 >= k:
        return [(SYMBOL_ZERO, 4**k, 4 ** (k - 1))]
    k2, scale, seeds, cells = k - cls.ell - 1, 4 ** (cls.ell + 1), _type2_seeds(cls.a, cls.b, cls.c), []
    by_order = {}
    for g in layout:
        by_order.setdefault(min(g.ord, k), []).append(g)
    for o in (k, *range(cls.ell + 1, k)):
        prim, np_ = _scaled_type2_counts(seeds, 1 << (o - cls.ell - 1) if o < k else 0, k2)
        if prim + np_:
            for g in by_order[o]:
                cells.append((g, scale * (prim + np_), scale * np_))
    return cells


@pytest.mark.parametrize("k", [*range(1, 9), 24, 60])
def test_type2_cells_in_one_pass_match_the_per_order_counts(k):
    # block_cells makes a type II block's cells below the top order in
    # one pass; they equal the per-order construction for every class:
    # each scale ell, and each parity of a and c (b is odd)
    layout = SymbolLayout(PrimePower(2, k))
    for ell in range(k + 1):
        for a in (0, 1, 2, 3):
            for c in (0, 1, 2, 3):
                cls = TypeII(ell, a, 1 + 2 * (a + c) % 4, c)
                assert block_cells(cls, layout) == type2_cells_by_order(cls, layout), (k, cls)


def test_type2_count_deep_modulus_partition():
    # 1200 levels of the two-bits-down reduction at t = 0: deeper than
    # the interpreter's stack allows a recursion to go
    pp = PrimePower(2, 2400)
    table = form_counts_by_symbol([[2, 1], [1, 2]], pp)
    assert sum(c.total * class_size(pp, g) for g, c in table.items()) == 4**2400
    assert sum(c.primitive * class_size(pp, g) for g, c in table.items()) == 4**2400 - 4**2399
    zero = count_form([[2, 1], [1, 2]], pp, 0)
    assert zero.total == table[symbol_of(pp, 0)].total > 0


P127 = 2**127 - 1


def symbol_chain_tables(blocks, pp):
    """The tables of every block and of every suffix blocks[j:], as
    symbol dicts: chain_tables' head cells and tail Levels, the last
    block's cells, each cell list spread over the layout
    (dp_reference.dense), and the Level of all the blocks, each Level
    read at every symbol of the layout (symbol_table)."""
    layout = SymbolLayout(pp)
    classes = dp_reference.table_classes(blocks, pp)
    per_block, tails = chain_tables(classes, layout)
    top = gauss.Level(pp, sum(blk.dim for blk in blocks), gauss.block_tallies(gauss.block_classes(blocks, pp), pp.p))
    per_block.append(block_cells(classes[-1], layout))
    heads = [dp_reference.table_dict(layout, dp_reference.dense(cells, layout)) for cells in per_block]
    return heads, [symbol_table(layout, t) for t in (top, *tails)]


def reference_chain_tables(blocks, pp):
    """chain_tables by the dense convolution: every (g1, g2) pair of every
    target, weighted by the reference split size of test_symbols."""
    syms = [g for g in enumerate_symbols(pp) if class_size(pp, g) > 0]
    split = {(g, g1, g2): dense_split_size(pp, g, g1, g2) for g in syms for g1 in syms for g2 in syms}
    per_block = [{g: count_block(blk, pp, g) for g in syms} for blk in blocks]
    suffix = [per_block[-1]]
    for head in reversed(per_block[:-1]):
        tail = suffix[0]
        level = {}
        for g in syms:
            total = nprim = 0
            for g1 in syms:
                for g2 in syms:
                    s = split[g, g1, g2]
                    total += s * head[g1].total * tail[g2].total
                    nprim += s * head[g1].nonprimitive * tail[g2].nonprimitive
            level[g] = RepCounts(total, total - nprim, nprim)
        suffix.insert(0, level)
    return per_block, suffix


def random_blocks(rng, pp, first):
    """1 to 5 blocks led by `first`, the others type I of a random order
    (d = 0 at order k) or, at p = 2, type II of a random scale."""
    p, k = pp.p, pp.k
    blocks = [first]
    for _ in range(rng.randrange(5)):
        if p == 2 and rng.random() < 0.4:
            blocks.append(type2_block(rng, rng.randrange(k + 1)))
        else:
            e = rng.randrange(k + 1)
            blocks.append(TypeI(unit(rng, p) * p**e % pp.q))
    return tuple(blocks)


def type2_block(rng, ell):
    return TypeII(ell, rng.randrange(8), 2 * rng.randrange(8) + 1, rng.randrange(8))


def unit(rng, p):
    while True:
        u = rng.randrange(1, 10**6)
        if u % p:
            return u


DP_GRID = [
    PrimePower(p, k)
    for p, kmax in ((2, 8), (3, 4), (5, 4), (7, 4), (13, 4), (P127, 4))
    for k in range(1, kmax + 1)
]


@pytest.mark.parametrize("pp", DP_GRID, ids=str)
def test_chain_tables_match_dense_reference(pp):
    # one tuple led by a type I block of every order (d = 0 at order k)
    # and, at p = 2, one led by a type II block of every scale ell <= k
    rng = random.Random(pp.p * 100 + pp.k)
    firsts = [TypeI(unit(rng, pp.p) * pp.p**e % pp.q) for e in range(pp.k + 1)]
    if pp.p == 2:
        firsts += [type2_block(rng, ell) for ell in range(pp.k + 1)]
    for first in firsts:
        blocks = random_blocks(rng, pp, first)
        assert symbol_chain_tables(blocks, pp) == reference_chain_tables(blocks, pp), (pp, blocks)


@st.composite
def block_chains(draw, primes=(2, 2, 2, 3, 5, 13, P127), kmax=6, min_blocks=1):
    """min_blocks to 5 blocks mod p^k, k <= kmax: type I with d = 0, a
    unit or p^e times a unit (0 < e <= k + 1), and at p = 2 type II of
    any scale.  By default p = 2, whose level kernel has the most cases,
    is drawn three times as often as each odd prime."""
    pp = PrimePower(draw(st.sampled_from(primes)), draw(st.integers(1, kmax)))
    unit = st.integers(1, 10**6).filter(lambda u: u % pp.p)
    kinds = ["zero", "unit", "scaled"] + (["type2"] if pp.p == 2 else [])
    blocks = []
    for _ in range(draw(st.integers(min_blocks, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "type2":
            ell, a, c = draw(st.integers(0, pp.k)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
            blocks.append(TypeII(ell, a, 2 * draw(st.integers(0, 7)) + 1, c))
        elif kind == "zero":
            blocks.append(TypeI(0))
        else:
            e = 0 if kind == "unit" else draw(st.integers(1, pp.k + 1))
            blocks.append(TypeI(draw(unit) * pp.p**e))
    return tuple(blocks), pp


@given(block_chains())
@example(((TypeII(0, 1, 1, 1), TypeI(1), TypeI(2)), PrimePower(2, 1)))
@example(((TypeI(3), TypeII(1, 0, 1, 0), TypeI(2), TypeI(0)), PrimePower(2, 2)))
@example(((TypeI(5), TypeI(6), TypeII(0, 1, 3, 2)), PrimePower(2, 3)))
@settings(max_examples=150, deadline=None)
def test_position_tables_read_as_dicts_equal_the_dense_reference(chain):
    # p = 2 with k <= 3 leaves some formal symbols empty, which have no
    # position; the dict view must still list exactly the inhabited ones
    blocks, pp = chain
    assert symbol_chain_tables(blocks, pp) == reference_chain_tables(blocks, pp)


@given(block_chains((2, 3, 5, P127), kmax=8, min_blocks=2))
@example(((TypeI(1), TypeI(3)), PrimePower(2, 1)))
@example(((TypeI(1), TypeII(0, 1, 1, 1), TypeI(0)), PrimePower(2, 3)))
@example(((TypeI(3), TypeI(5), TypeI(6)), PrimePower(3, 2)))
@settings(max_examples=150, deadline=None)
def test_nonprimitive_levels_follow_from_the_totals(chain):
    # a non-primitive x = p y has x'Qx = p^2 y'Qy, so each level's
    # non-primitive list is read off its totals: the referee's chain
    # runs its level kernel once per level, and what it derives equals
    # the kernel run on the non-primitive lists, and enumeration
    blocks, pp = chain
    layout = SymbolLayout(pp)
    level = dp_reference._level_two if pp.p == 2 else dp_reference._level_odd
    kernel = CallCounter(level)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp_reference, level.__name__, kernel)
        per_block, suffix = dp_reference.dp_chain_tables(blocks, layout)
    assert kernel.calls == len(blocks) - 1
    for j in range(len(blocks) - 1):
        assert suffix[j][1] == level(layout, per_block[j][1], suffix[j + 1][1]), j
    m = sum(blk.dim for blk in blocks)
    if pp.q**m <= 4096:
        q_mat = [[x % pp.q for x in row] for row in blocks_to_matrix(blocks)]
        for t, counts in enumerate(histogram_counts(q_mat, pp)):
            i = dp_reference.Positions(layout).index[symbol_of(pp, t)]
            assert (suffix[0][0][i], suffix[0][1][i]) == (counts.total, counts.nonprimitive), t


def jordan_blocks(seed, p, profile):
    rng = random.Random(seed)
    return tuple(TypeI(unit(rng, p) * p**e) for e in profile)


def dense_even_form(seed, n):
    rng = random.Random(seed)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = 2 * rng.randrange(500)
        for j in range(i):
            q[i][j] = q[j][i] = rng.randrange(1000)
    return q


# sha256 of repr(chain_tables(blocks, pp)), recorded before the count
# tables folded the far split cells into running sums
CHAIN_TABLE_DIGESTS = {
    "2^24": (
        lambda: jordan_blocks(24, 2, (0, 0, 1, 2)),
        PrimePower(2, 24),
        "ab189bccf0c120370c64ddf7b57a3ff38043b36c642c792a116932a437e2b9ac",
    ),
    "3^60": (
        lambda: jordan_blocks(60, 3, (0, 0, 1, 2)),
        PrimePower(3, 60),
        "1d595b34901347054701f958240786b7ec6f220d18e65ebdc40dd208b092a58f",
    ),
    "5^60": (
        lambda: jordan_blocks(61, 5, (0, 0, 1, 2)),
        PrimePower(5, 60),
        "bb56ca852c2320e22160de6e673b2fe98b3e5b3e52b8b9ba7baa4e531a3125cb",
    ),
    "P127^30": (
        lambda: jordan_blocks(30, P127, (0, 0, 1, 2)),
        PrimePower(P127, 30),
        "f0a7b4cb5dd5d3d7c8beadf8aa847f5e14a0d457d0f9b1fbe722a600b6ca5e4e",
    ),
    "dense-24-2^6": (
        lambda: block_diagonalize(dense_even_form(6, 24), PrimePower(2, 6)).blocks,
        PrimePower(2, 6),
        "c6bce1abcf051b07961e58d267040ab99f6bafce8c02afb720de450069675588",
    ),
}


@pytest.mark.parametrize("make, pp, digest", CHAIN_TABLE_DIGESTS.values(), ids=CHAIN_TABLE_DIGESTS)
def test_chain_tables_golden_digests(make, pp, digest):
    blocks = make()
    if pp.q == 2**6:
        assert any(isinstance(blk, TypeII) for blk in blocks)
    assert hashlib.sha256(repr(symbol_chain_tables(blocks, pp)).encode()).hexdigest() == digest


@st.composite
def stable_level_instances(draw, exponents=st.integers(1, 60)):
    """(Q, p^k, t): Q = E'DE with D a direct sum of Jordan blocks in
    n <= 4 variables (d = 0, a unit, or p^e times a unit with e <= k + 1,
    and type II blocks at p = 2) and E a product of up to three integer
    shears, so singular and dense forms both occur; t = 0, or a unit
    times +-p^o with o <= k + 1, so targets of every order, t = 0 mod
    p^k among them; and a prime power of another prime, for a
    composite.  k is drawn from exponents."""
    p = draw(st.sampled_from((2, 3, 5, 7, P127)))
    pp = PrimePower(p, draw(exponents))
    n = draw(st.integers(1, 4))
    unit = st.integers(1, 10**6).filter(lambda u: u % p)
    blocks, dim = [], 0
    while dim < n:
        kind = draw(st.sampled_from(["zero", "unit", "scaled"] + (["type2"] if p == 2 and n - dim >= 2 else [])))
        if kind == "type2":
            ell, a, c = draw(st.integers(0, pp.k)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
            blocks.append(TypeII(ell, a, 2 * draw(st.integers(0, 7)) + 1, c))
        elif kind == "zero":
            blocks.append(TypeI(0))
        else:
            e = 0 if kind == "unit" else draw(st.integers(1, pp.k + 1))
            blocks.append(TypeI(draw(unit) * p**e))
        dim += blocks[-1].dim
    q = blocks_to_matrix(blocks)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-5, 5))
        for row in q:  # column i += c column j, then row i += c row j
            row[i] += c * row[j]
        q[i] = [x + c * y for x, y in zip(q[i], q[j])]
    sign = draw(st.sampled_from((1, -1)))
    t = draw(st.one_of(st.just(0), st.builds(lambda u, o: sign * u * p**o, unit, st.integers(0, pp.k + 1))))
    other = draw(st.sampled_from([f for f in (2, 3, 5, 7, P127) if f != p]))
    return q, pp, t, PrimePower(other, draw(st.integers(1, 12)))


def is_int_counts(c):
    return all(type(x) is int for x in c)


@given(stable_level_instances())
@example(([[2, 1], [1, 2]], PrimePower(2, 60), 4, PrimePower(3, 5)))
@example(([[1]], PrimePower(2, 10), 1, PrimePower(3, 1)))  # 4 roots of 1 mod 2^10, 2 mod 2^2
@example(([[0, 0], [0, 3]], PrimePower(3, 40), -3, PrimePower(2, 7)))
@example(([[4, 2, 0], [2, 4, 0], [0, 0, 5]], PrimePower(2, 33), 5 * 2**31, PrimePower(P127, 3)))
@settings(max_examples=200, deadline=None)
def test_counts_at_the_stable_level_equal_the_full_level(inst):
    # count_form and count_composite count at t's stable level and scale
    # up; the full-level prepared count is the referee
    q, pp, t, pp2 = inst
    got = count_form(q, pp, t)
    assert got == prepare(q, pp).count(t) and is_int_counts(got), (q, pp, t)
    factors = [pp, pp2]
    got = count_composite(q, factors, t)
    assert got == count_factors([prepare(q, f) for f in factors], t) and is_int_counts(got), (q, factors, t)


def gauss_sum_instances(test):
    """Runs test over stable_level_instances at k up to 60, with a
    larger share of k <= 4, after fixed examples: type II, singular and
    scaled blocks, and zero targets."""
    for inst in (
        ([[0, 0], [0, 0]], PrimePower(2, 5), 0, PrimePower(3, 1)),
        ([[2, 1], [1, 2]], PrimePower(2, 7), 2**5 * 3, PrimePower(3, 1)),
        ([[0, 1], [1, 0]], PrimePower(2, 1), 1, PrimePower(3, 1)),
        ([[80]], PrimePower(2, 7), 400, PrimePower(3, 1)),
        ([[5]], PrimePower(2, 9), 80, PrimePower(3, 1)),
        ([[7 * 8]], PrimePower(2, 9), 7 * 2**5, PrimePower(3, 1)),
        ([[3, 0, 0], [0, 9, 0], [0, 0, 0]], PrimePower(3, 60), -(3**7), PrimePower(2, 1)),
        ([[P127 + 1, 0], [0, P127**2]], PrimePower(P127, 3), 5 * P127**2, PrimePower(2, 1)),
    ):
        test = example(inst)(test)
    return given(stable_level_instances(st.one_of(st.integers(1, 4), st.integers(1, 60))))(test)


@gauss_sum_instances
@settings(max_examples=300, deadline=None)
def test_gauss_sum_count_equals_the_tables(inst):
    # count(t) sums the Fourier terms of the blocks' Gauss sums; the
    # referees are the entry at t's symbol of the full top level (table),
    # which sums the same terms by prefix sums over j for every symbol
    # at once, and enumeration where the cube is small
    q, pp, t, _ = inst
    form = prepare(q, pp)
    got = form.count(t)
    g = symbol_of(pp, t)
    assert got == form.table.get(g, (0, 0, 0)) and is_int_counts(got), (q, pp, t)
    if pp.q ** len(q) <= 2**16:
        assert got == histogram_counts(q, pp)[t % pp.q], (q, pp, t)


@gauss_sum_instances
@settings(max_examples=150, deadline=None)
def test_tables_equal_the_dynamic_program(inst):
    # every tail Level that chain_tables makes, at every suffix of the
    # walk's blocks after the first, read at every position, and every
    # entry of the top level (table) equal the split-convolution
    # program's (dp_reference); the form's own tails are read from the
    # top position down, so their terms are taken all at once
    q, pp, _, _ = inst
    form = prepare(q, pp)
    walk = tuple(form.blocks[j] for j in form.walk_order)
    layout, form_per_block, form_tails = form.walk()
    want_per_block, want_suffix = dp_reference.dp_chain_tables(walk, layout)
    per_block, tails = chain_tables(dp_reference.table_classes(walk, pp), layout)
    assert [dp_reference.dense(cells, layout) for cells in per_block] == want_per_block[:-1], (q, pp)
    assert [dp_reference.level_lists(tail, layout) for tail in tails] == want_suffix[1:], (q, pp)
    down = range(len(dp_reference.Positions(layout)) - 1, -1, -1)
    read = [dp_reference.level_lists(tail, layout, down) for tail in form_tails]
    assert form_per_block == per_block and read == want_suffix[1:], (q, pp)
    assert form.table == dp_reference.table_dict(layout, want_suffix[0]), (q, pp)
    assert all(is_int_counts(lst) for level in want_suffix + read for lst in level)
    assert all(is_int_counts(c) for c in form.table.values())


@pytest.mark.parametrize("n", [12, 24, 64])
@pytest.mark.parametrize("pp", [PrimePower(2, 6), PrimePower(3, 4), PrimePower(5, 2)], ids=str)
def test_gauss_sum_count_of_dense_forms(pp, n):
    # dense forms, whose blocks at p = 2 include type II ones, at a target
    # of every inhabited symbol
    form = prepare(dense_even_form(n, n), pp)
    table, layout = form.table, form.walk()[0]
    for g in layout:
        t = 0 if g.ord == INF else pp.p**g.ord * next(u for u in range(1, 8) if symbol_of(pp, u * pp.p**g.ord) == g)
        assert form.count(t) == table[g], g


@pytest.mark.parametrize("p", [2, 3, 5, P127])
def test_a_level_of_one_block_is_its_block_table(p):
    # the walk's last tail is a Level of one block: at every position it
    # equals the block's closed-form cells spread over the layout, in
    # ints, so a position the cells leave out holds 0, for every block
    # class at k <= 8, d = 0 mod p^k among them, and at p = 2 type II
    # blocks of every scale and parity, the anisotropic ones (a c odd)
    # among them; the cells' positions strictly increase and hold no 0
    for k in range(1, 9):
        pp = PrimePower(p, k)
        layout = SymbolLayout(pp)
        classes = [(INF, 0), *((e, u) for e in range(k) for u in ((1, 3, 5, 7) if p == 2 else (1, -1)))]
        if p == 2:
            classes += [TypeII(ell, a, 1, c) for ell in range(k + 1) for a in (0, 1) for c in (0, 1)]
        for cls in classes:
            (tallies,) = gauss.suffix_tallies((cls,), p)
            got = dp_reference.level_lists(gauss.Level(pp, 2 if isinstance(cls, TypeII) else 1, tallies), layout)
            cells = block_cells(cls, layout)
            assert got == dp_reference.dense(cells, layout) and all(is_int_counts(lst) for lst in got), (pp, cls)
            index = dp_reference.Positions(layout).index
            positions = [index[g] for g, _, _ in cells]
            assert positions == sorted(set(positions)) and all(tot for _, tot, _ in cells), (pp, cls)
    if p == 2:
        # an anisotropic block has no solution at every other order
        layout = SymbolLayout(PrimePower(2, 8))
        orders = {g.ord for g, _, _ in block_cells(TypeII(0, 1, 1, 1), layout)}
        assert orders == {1, 3, 5, 7, INF}


@pytest.mark.parametrize("kind", [RepKind.ANY, RepKind.PRIMITIVE])
def test_a_first_draw_at_a_big_prime_holds_under_four_levels(kind):
    # a draw reads its tails only where its scans reach, so the first
    # draw of a dense form mod (2^127 - 1)^60 holds less than four full
    # levels of the form at its peak (building every tail in full took
    # about eleven)
    form = prepare(dense_even_form(16, 24), PrimePower(P127, 60))
    tracemalloc.start()
    try:
        assert sample_prepared(form, 7, kind, random.Random(1)) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    level = sum(sys.getsizeof(c.total) + sys.getsizeof(c.nonprimitive) for c in form.table.values())
    assert peak < 4 * level, (peak, level)


def test_a_sum_that_is_no_count_raises(monkeypatch):
    # a Gauss-sum total that p^k does not divide, or that is not
    # rational, is an error, never a rounded count: in a count, in every
    # entry of a table and at every position of every tail Level
    term = gauss._term

    def with_term(j0, e0, w0):
        """The Fourier terms, with w0 p^e0 added to the term of j0."""

        def patched(pp, n, tallies, j):
            got = term(pp, n, tallies, j)
            if j == j0:
                e, w = (e0, (0,) * 8) if got is None else got
                low = min(e, e0)
                got = low, tuple(a * pp.p ** (e - low) + b * pp.p ** (e0 - low) for a, b in zip(w, w0))
            return got

        monkeypatch.setattr(gauss, "_term", patched)

    def irrational(pp, n, tallies, j):
        """The Fourier terms, with the first one not rational."""
        if j == 1:
            raise ArithmeticError("a Gauss-sum term is not rational")
        return term(pp, n, tallies, j)

    for pp in (PrimePower(3, 5), PrimePower(2, 6)):
        # p^den does not divide the sums, then every sum is negative
        for j, e, w in ((1, 0, (1,) * 8), (1, 40, (-1,) * 8)):
            with_term(j, e, w)
            form = prepare(Q4, pp)
            with pytest.raises(ArithmeticError):
                form.count(7)
            with pytest.raises(ArithmeticError):
                count_form(Q4, pp, 7)
            with pytest.raises(ArithmeticError):
                form.table
            layout, _, tails = form.walk()
            assert tails
            for tail in tails:
                for g in layout:
                    with pytest.raises(ArithmeticError):
                        tail.at(*g)
            monkeypatch.setattr(gauss, "_term", term)
        # an irrational term raises at every read that reaches it, the
        # second read of one entry as the first
        monkeypatch.setattr(gauss, "_term", irrational)
        form = prepare(Q4, pp)
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                form.count(7)
            with pytest.raises(ArithmeticError):
                form.walk()[2][0].at(0, 1)
        monkeypatch.setattr(gauss, "_term", term)
    # zeta + zeta^-1 over a = 1, 3, 5, 7 is 2 sqrt2: rational only times sqrt2
    with pytest.raises(ArithmeticError):
        gauss._zeta_sum(0, 0, 1, 0)
    assert gauss._zeta_sum(0, 0, 1, 1) == 4


@st.composite
def level_tallies(draw):
    """(p^k, n, tallies): the Tallies of 0 to 5 blocks mod p^k, p in
    {2, 3, 5, 7} and k <= 14, of every order, p^k | d among them, and at
    p = 2 type II blocks of every scale and parity."""
    pp = PrimePower(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 14)))
    p = pp.p
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        if p == 2 and draw(st.booleans()):
            a, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            blocks.append(TypeII(draw(st.integers(0, pp.k)), a, 2 * draw(st.integers(0, 7)) + 1, c))
        else:
            u = draw(st.integers(1, 10**4).filter(lambda u: u % p))
            blocks.append(TypeI(u * p ** draw(st.integers(0, pp.k))))
    n = sum(blk.dim for blk in blocks)
    return pp, n, gauss.block_tallies(gauss.block_classes(tuple(blocks), pp), p)


@given(level_tallies())
@example((PrimePower(2, 9), 1, (((0, 1, 1),), ())))  # one block at p = 2: a term at j = 2 of 2^(k+1)
@example((PrimePower(3, 9), 1, (((0, 1, 1),), ())))  # one unit block at odd p: a term at j = 1 of p^k
@settings(max_examples=300, deadline=None)
def test_every_term_is_a_multiple_of_the_unit(inst):
    # a Level keeps its sums in units of p^unit, fixed when it is made:
    # no term of any form falls below it
    pp, n, tallies = inst
    unit = gauss.Level(pp, n, tallies)._unit
    terms = [gauss._term(pp, n, tallies, j) for j in range(1, pp.k + 1)]
    lows = [e for e, _ in filter(None, terms)]
    assert all(e >= unit for e in lows), (unit, lows)


def test_counts_build_no_table(monkeypatch, tmp_path):
    # every count reads the blocks' Gauss sums only; a draw builds its
    # form's layout and tables on its first read, and later draws of the
    # form reuse them
    tables = CallCounter(counting.chain_tables)
    layouts = CallCounter(counting.SymbolLayout)
    monkeypatch.setattr(counting, "chain_tables", tables)
    monkeypatch.setattr(counting, "SymbolLayout", layouts)
    for pp in (PrimePower(2, 60), PrimePower(3, 60), PrimePower(P127, 30)):
        for t in (7, 7 * pp.p**3, 0):
            count_form(Q4, pp, t)
    count_form(dense_even_form(6, 24), PrimePower(2, 6), 8)
    count_composite(Q4, [PrimePower(2, 5), PrimePower(3, 4), PrimePower(P127, 2)], 7)
    local_density(Q4, 3, 7)
    count_factors([prepare(Q4, pp) for pp in (PrimePower(2, 5), PrimePower(5, 3))], 7)
    from quadmod.cli import main

    for instance in ({"q": Q4, "p": "3", "k": 40, "t": "7"}, {"q": Q4, "factors": [{"p": 2, "k": 9}, {"p": 5, "k": 2}], "t": 7}):
        path = tmp_path / "q4.json"
        path.write_text(json.dumps(instance))
        assert main(["count", str(path)]) == 0
    assert (tables.calls, layouts.calls) == (0, 0)

    form = prepare(Q4, PrimePower(3, 6))
    rng = random.Random(17)
    assert sample_prepared(form, 7, RepKind.ANY, rng) is not None
    assert (tables.calls, layouts.calls) == (1, 1)
    for t, kind in ((7, RepKind.PRIMITIVE), (9, RepKind.NONPRIMITIVE), (0, RepKind.ANY)):
        sample_prepared(form, t, kind, rng)
        form.count(t)
    assert (tables.calls, layouts.calls) == (1, 1)


@pytest.mark.parametrize("pp", [PrimePower(2, 9), PrimePower(7, 3), PrimePower(P127, 2)], ids=str)
def test_counts_of_the_empty_form(pp):
    # no variables: the empty vector, of value 0 and non-primitive
    for t in (0, pp.q, -5 * pp.q):
        for got in (count_form([], pp, t), count_composite([], [pp], t)):
            assert got == (1, 0, 1) and is_int_counts(got), t
    for t in (1, -pp.p, pp.p ** (pp.k - 1)):
        for got in (count_form([], pp, t), count_composite([], [pp], t)):
            assert got == (0, 0, 0) and is_int_counts(got), t


def hex_digest(counts):
    return hashlib.sha256(":".join(f"{x:x}" for x in counts).encode()).hexdigest()


# Q4's counts at t, p^3 t and 0, recorded with the counts taken at the
# full level k: exact where they are short, else the sha256 of their
# hex digits (hex_digest)
Q4_COUNTS = {
    "3^60": (
        PrimePower(3, 60),
        7,
        (
            (
                67713198262992348746035313529436054889266490135462397088001391773295233193807144906312,
                67713198262992348746035313529436054889266490135462397088001391773295233193807144906312,
                0,
            ),
            (
                100315849278507183327459723747312673910024429830314662352594654478955901027862436898240,
                90284264350656464994713751372581406519021986847283196117335189031060310925076193208416,
                10031584927850718332745972374731267391002442983031466235259465447895590102786243689824,
            ),
            (
                101569797394488523119052970293555078900594924799722535688832219313365691248198100324001,
                90284264350656464994713751372581406519021986847283196117335189031060310925076193208416,
                11285533043832058124339218920973672381572937952439339571497030282305380323121907115585,
            ),
        ),
    ),
    "5^60": (
        PrimePower(5, 60),
        7,
        (
            (
                783036536159822943205235293110785706684139710968275985731036374656366789351698347266747535222464193793712183833122253417968750,
                783036536159822943205235293110785706684139710968275985731036374656366789351698347266747535222464193793712183833122253417968750,
                0,
            ),
            (
                6264292289278583545641882344886285653473117687746207885848290997250934314813586778133980281779713550349697470664978027343750,
                0,
                6264292289278583545641882344886285653473117687746207885848290997250934314813586778133980281779713550349697470664978027343750,
            ),
            (
                752316384526264005099991383822237233803945956334136013765601092018187046051025390625,
                0,
                752316384526264005099991383822237233803945956334136013765601092018187046051025390625,
            ),
        ),
    ),
    "2^60": (
        PrimePower(2, 60),
        8,
        (
            (
                4980610507814138789664627838238504846760902147096707072,
                4597486622597666575075041081450927550856217366550806528,
                383123885216472214589586756787577295904684780545900544,
            ),
            (
                5986310706507378352962293074805895248510699696029696000,
                4597486622597666575075041081450927550856217366550806528,
                1388824083909711777887251993354967697654482329478889472,
            ),
            (
                6129982163463555428116476125461573242859728247613030400,
                4597486622597666575075041081450927550856217366550806528,
                1532495540865888853041435044010645692003510881062223872,
            ),
        ),
    ),
    "P^30": (
        PrimePower(P127, 30),
        7,
        (
            "61812462b9c2fcbb178d28424adb983e754e23926544e5ce615b595a07fffa41",
            "8b2b64f91bc3ad3e35e9f82842ba55795bcf15b56d4b0cc62f2f9da311055ab5",
            "a34c00cfaedc68bfe1d97661033868e2c6c0c7fbb3f12466cb546febe662c1c6",
        ),
    ),
    "P^60": (
        PrimePower(P127, 60),
        7,
        (
            "f4a3af98ff1b582e86c4c79684a02207c9c598534706e376e851c25bc5f257ac",
            "7006f9150f6b59e804d0aad00885707a63de0daefa1266eea5188c36fc06a108",
            "6a8790d56b9211a882b7ca604d5dd9203c53e78739f78ee448281a340240d048",
        ),
    ),
}


@pytest.mark.parametrize("pp, t, pins", Q4_COUNTS.values(), ids=Q4_COUNTS)
def test_q4_counts_match_the_full_level_pins(pp, t, pins):
    for target, pin in zip((t, t * pp.p**3, 0), pins):
        for got in (count_form(Q4, pp, target), count_composite(Q4, [pp], target)):
            assert (hex_digest(got) if isinstance(pin, str) else got) == pin, target
