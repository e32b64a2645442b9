import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod.blockdiag import TypeII
from quadmod.counting import (
    RepCounts,
    SingularForm,
    ZeroTarget,
    _count_scaled_type2,
    count_composite,
    count_form,
    count_type1_odd,
    count_type1_two,
    count_type2,
    form_counts_by_symbol,
    local_density,
)
from quadmod.modring import DomainError, PrimePower
from quadmod.oracle import histogram_counts, solutions_mod
from quadmod.symbols import class_size, enumerate_symbols, symbol_of

I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_count_type1_odd_examples():
    pp = PrimePower(5, 2)
    assert count_type1_odd(1, pp, symbol_of(pp, 1)) == (2, 2, 0)
    pp = PrimePower(3, 2)
    assert count_type1_odd(1, pp, symbol_of(pp, 0)) == (3, 0, 3)
    pp = PrimePower(5, 1)
    assert count_type1_odd(1, pp, symbol_of(pp, 2)) == (0, 0, 0)


def test_count_type1_two_examples():
    two3 = PrimePower(2, 3)
    assert count_type1_two(1, 3, symbol_of(two3, 1)) == (4, 4, 0)
    assert count_type1_two(1, 2, symbol_of(PrimePower(2, 2), 1)) == (2, 2, 0)
    assert count_type1_two(1, 3, symbol_of(two3, 0)) == (2, 0, 2)


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
                    got = count_type1_two(d, k, g) if p == 2 else count_type1_odd(d, pp, g)
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
