import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod.modring import PrimePower
from quadmod.sqroots import (
    NonResidue,
    NotASquare,
    is_square,
    lift_sqrt_odd,
    sqrt_unit_mod_2k,
    sqrt_unit_mod_p,
)


def test_is_square_examples():
    assert is_square(PrimePower(7, 1), 2)  # 3^2 = 9 = 2 mod 7
    assert not is_square(PrimePower(5, 2), 5)  # odd order
    assert is_square(PrimePower(2, 4), 9)
    assert is_square(PrimePower(3, 2), 0)


@given(st.sampled_from([(2, 11), (3, 6), (5, 4), (7, 3), (11, 3), (13, 2)]), st.data())
@settings(max_examples=60)
def test_is_square_matches_exhaustive(pk, data):
    p, kmax = pk
    k = data.draw(st.integers(min_value=1, max_value=kmax))
    pp = PrimePower(p, k)
    squares = {x * x % pp.q for x in range(pp.q)}
    for t in range(pp.q):
        assert is_square(pp, t) == (t in squares), (p, k, t)


def test_sqrt_unit_mod_p_examples():
    rng = random.Random(0)
    assert sqrt_unit_mod_p(13, 4, rng) == (2, 11)
    assert sqrt_unit_mod_p(7, 2, rng) == (3, 4)
    with pytest.raises(NonResidue):
        sqrt_unit_mod_p(5, 2, rng)


def test_sqrt_unit_mod_p_all_small_primes():
    rng = random.Random(1)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for t in range(1, p):
            sq = {x * x % p for x in range(1, p)}
            if t in sq:
                r1, r2 = sqrt_unit_mod_p(p, t, rng)
                assert r1 < r2 and (r1 + r2) % p == 0
                assert r1 * r1 % p == t and r2 * r2 % p == t
            else:
                with pytest.raises(NonResidue):
                    sqrt_unit_mod_p(p, t, rng)


def test_lift_sqrt_odd_examples():
    rng = random.Random(0)
    assert lift_sqrt_odd(PrimePower(5, 2), 24, rng) == (7, 18)
    assert lift_sqrt_odd(PrimePower(3, 2), 4, rng) == (2, 7)
    assert lift_sqrt_odd(PrimePower(7, 1), 4, rng) == (2, 5)


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=120)
def test_lift_sqrt_odd_roots_square_back(p, k, data):
    pp = PrimePower(p, k)
    x = data.draw(st.integers(min_value=1, max_value=pp.q - 1))
    if x % p == 0:
        x += 1
    t = x * x % pp.q
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
    r1, r2 = lift_sqrt_odd(pp, t, rng)
    assert r1 * r1 % pp.q == t
    assert r2 * r2 % pp.q == t
    assert (r1 + r2) % pp.q == 0 and r1 != r2
    assert x % pp.q in (r1, r2)


def test_sqrt_unit_mod_2k_examples():
    assert sqrt_unit_mod_2k(3, 1) == (1, 3, 5, 7)
    assert sqrt_unit_mod_2k(2, 1) == (1, 3)
    assert sqrt_unit_mod_2k(4, 9) == (3, 5, 11, 13)
    assert sqrt_unit_mod_2k(1, 1) == (1,)
    with pytest.raises(NotASquare):
        sqrt_unit_mod_2k(4, 5)
    with pytest.raises(NotASquare):
        sqrt_unit_mod_2k(3, 3)


def test_sqrt_unit_mod_2k_exhaustive_small():
    for k in range(1, 12):
        q = 2**k
        roots_of = {}
        for x in range(1, q, 2):
            roots_of.setdefault(x * x % q, []).append(x)
        for t in range(1, q, 2):
            if t in roots_of:
                got = sqrt_unit_mod_2k(k, t)
                assert list(got) == sorted(roots_of[t]), (k, t)
                assert len(got) == {1: 1, 2: 2}.get(k, 4)
            else:
                with pytest.raises(NotASquare):
                    sqrt_unit_mod_2k(k, t)


ODD_PRIMES_TO_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@pytest.mark.parametrize("p", ODD_PRIMES_TO_50)
def test_lift_sqrt_odd_matches_sympy(p):
    sympy_sqrt_mod = pytest.importorskip("sympy.ntheory.residue_ntheory").sqrt_mod
    rng = random.Random(p)
    for k in (1, 2, 3):
        pp = PrimePower(p, k)
        units = [t for t in range(pp.q) if t % p]
        if len(units) > 2000:
            units = rng.sample(units, 2000)
        for t in units:
            expected = sorted(sympy_sqrt_mod(t, pp.q, all_roots=True))
            if expected:
                assert list(lift_sqrt_odd(pp, t, rng)) == expected, (p, k, t)
            else:
                with pytest.raises(NonResidue):
                    lift_sqrt_odd(pp, t, rng)


def test_sqrt_unit_mod_2k_matches_sympy():
    sympy_sqrt_mod = pytest.importorskip("sympy.ntheory.residue_ntheory").sqrt_mod
    for k in range(1, 11):
        for t in range(1, 2**k, 2):
            expected = sorted(sympy_sqrt_mod(t, 2**k, all_roots=True))
            if expected:
                assert list(sqrt_unit_mod_2k(k, t)) == expected, (k, t)
            else:
                with pytest.raises(NotASquare):
                    sqrt_unit_mod_2k(k, t)
