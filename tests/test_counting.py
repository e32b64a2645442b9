import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmod.blockdiag import TypeI, TypeII, block_diagonalize
from quadmod.counting import (
    RepCounts,
    SingularForm,
    ZeroTarget,
    _count_scaled_type2,
    chain_tables,
    count_block,
    count_composite,
    count_form,
    count_type1,
    count_type2,
    form_counts_by_symbol,
    local_density,
    symbol_table,
)
from quadmod.modring import DomainError, PrimePower
from quadmod.oracle import histogram_counts, solutions_mod
from quadmod.symbols import SymbolLayout, class_size, enumerate_symbols, symbol_of
from test_symbols import dense_split_size

I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


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
                assert _count_scaled_type2(a, b, c, t2, k2) == recursive_scaled_type2(a, b, c, t2, k2), (a, b, c, t2, k2)


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
    """chain_tables(blocks, pp) with each table read through symbol_table."""
    layout = SymbolLayout(pp)
    per_block, suffix = chain_tables(blocks, pp, layout)
    return [symbol_table(layout, t) for t in per_block], [symbol_table(layout, t) for t in suffix]


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
def block_chains(draw):
    """1 to 5 blocks mod p^k, k <= 6: type I with d = 0, a unit or p^e
    times a unit (0 < e <= k + 1), and at p = 2 type II of any scale.
    p = 2, whose level kernel has the most cases, is drawn three times
    as often as each odd prime."""
    pp = PrimePower(draw(st.sampled_from([2, 2, 2, 3, 5, 13, P127])), draw(st.integers(1, 6)))
    unit = st.integers(1, 10**6).filter(lambda u: u % pp.p)
    kinds = ["zero", "unit", "scaled"] + (["type2"] if pp.p == 2 else [])
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
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
