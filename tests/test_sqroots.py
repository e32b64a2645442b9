import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod.modring import PrimePower
from quadmod.sqroots import (
    NonResidue,
    NotASquare,
    lift_sqrt_odd,
    sqrt_unit_mod_2k,
    sqrt_unit_mod_p,
)


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
    with pytest.raises(NotASquare):  # past the 4300-digit cap on int -> str
        sqrt_unit_mod_2k(20000, 3 + 8 * 10**5000)


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


P127 = 2**127 - 1  # = 3 mod 4
P127_5 = 85070591730234615865843651857942052973  # = 5 mod 8
ROOT_BRANCHES = [(3, 3), (7, 3), (P127, 3), (5, 5), (13, 5), (P127_5, 5), (17, 1), (41, 1)]


@pytest.mark.parametrize("p, residue", ROOT_BRANCHES, ids=[f"{p % 8}mod8-{p.bit_length()}bit" for p, _ in ROOT_BRANCHES])
def test_root_branches_match_sympy(p, residue):
    # each branch of sqrt_unit_mod_p (p = 3 mod 4, 5 mod 8, 1 mod 8) and
    # the lift above it, against an independent root finder; only the
    # Tonelli-Shanks branch may read the generator
    sympy_sqrt_mod = pytest.importorskip("sympy.ntheory.residue_ntheory").sqrt_mod
    assert p % 8 == residue or (residue == 3 and p % 4 == 3)
    rng = random.Random(p)
    for k in (1, 2, 8, 30, 60) if p > 2**64 else (1, 2, 5, 9):
        pp = PrimePower(p, k)
        for _ in range(8):
            x = rng.randrange(1, pp.q)
            t = x * x % pp.q
            if t % p == 0:
                continue
            state = rng.getstate()
            assert list(lift_sqrt_odd(pp, t, rng)) == sorted(sympy_sqrt_mod(t, pp.q, all_roots=True)), (p, k, t)
            assert residue == 1 or rng.getstate() == state
            if k == 1:
                assert list(sqrt_unit_mod_p(p, t, rng)) == sorted(sympy_sqrt_mod(t, p, all_roots=True))
    non_residues = [t for t in range(2, 60) if t % p and sympy_sqrt_mod(t, p) is None][:4]
    assert non_residues
    for t in non_residues:
        state = rng.getstate()
        with pytest.raises(NonResidue):
            sqrt_unit_mod_p(p, t, rng)
        with pytest.raises(NonResidue):
            lift_sqrt_odd(PrimePower(p, 3), t + p, rng)
        assert residue == 1 or rng.getstate() == state
