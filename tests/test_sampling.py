import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadmod.modring
import quadmod.sampling
from quadmod.blockdiag import TypeII
from quadmod.counting import _count_scaled_type2, count_composite, prepare
from quadmod.modring import INF, DomainError, PrimePower, uniform_below
from quadmod.oracle import chi_square_uniform, enumerate_reps
from quadmod.sampling import (
    RepKind,
    _sample_scaled_type2,
    sample_composite,
    sample_form,
    sample_prepared,
    sample_split,
    sample_symbol_elem,
    sample_type1,
    sample_type2,
)
from quadmod.symbols import PkSymbol, class_size, enumerate_symbols, split_class_size, symbol_of

I2 = [[1, 0], [0, 1]]


def draws(fn, n, seed=0):
    rng = random.Random(seed)
    return Counter(fn(rng) for _ in range(n))


def assert_uniform_over(fn, want, seed=0):
    """Support equality plus a chi-square fit over 100 draws per element."""
    want = set(want)
    got = draws(fn, 100 * len(want), seed)
    assert set(got) == want
    stat, ok = chi_square_uniform(list(got.values()), len(want))
    if not ok:  # one fresh-seed retry keeps the false-positive rate tiny
        got = draws(fn, 100 * len(want), seed + 1)
        assert set(got) == want
        stat, ok = chi_square_uniform(list(got.values()), len(want))
    assert ok, float(stat)


def test_sample_symbol_elem_examples():
    rng = random.Random(1)
    assert sample_symbol_elem(PrimePower(7, 2), PkSymbol(INF, 0), rng) == 0
    assert sample_symbol_elem(PrimePower(3, 1), PkSymbol(0, -1), rng) == 2
    assert_uniform_over(
        lambda r: sample_symbol_elem(PrimePower(2, 4), PkSymbol(0, 1), r), {1, 9}
    )
    with pytest.raises(DomainError):
        sample_symbol_elem(PrimePower(2, 3), PkSymbol(2, 3), rng)  # empty class


@given(st.sampled_from([(2, 4), (3, 3), (5, 2), (7, 1)]), st.data())
@settings(max_examples=40, deadline=None)
def test_sample_symbol_elem_lands_in_class(pk, data):
    p, kmax = pk
    k = data.draw(st.integers(min_value=1, max_value=kmax))
    pp = PrimePower(p, k)
    t = data.draw(st.integers(min_value=0, max_value=pp.q - 1))
    g = symbol_of(pp, t)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    for _ in range(8):
        assert symbol_of(pp, sample_symbol_elem(pp, g, rng)) == g


def test_sample_split_examples():
    rng = random.Random(0)
    pp = PrimePower(5, 1)
    for _ in range(25):
        assert sample_split(pp, 1, PkSymbol(0, -1), PkSymbol(0, -1), rng) == (3, 3)
    # empty split
    assert sample_split(PrimePower(2, 2), 1, PkSymbol(0, 1), PkSymbol(0, 1), rng) is None


def test_sample_split_uniform_mixed_orders():
    pp = PrimePower(3, 2)
    g1, g2 = PkSymbol(0, 1), PkSymbol(0, -1)
    want = {
        (a, (3 - a) % 9)
        for a in range(9)
        if symbol_of(pp, a) == g1 and symbol_of(pp, (3 - a) % 9) == g2
    }
    assert want
    assert_uniform_over(lambda r: sample_split(pp, 3, g1, g2, r), want)


def test_sample_split_uniform_equal_orders():
    # equal orders forces the odd-p rejection/brute path
    pp = PrimePower(7, 2)
    g1 = PkSymbol(0, 1)
    g2 = PkSymbol(0, -1)
    want = {
        (a, (1 - a) % 49)
        for a in range(49)
        if symbol_of(pp, a) == g1 and symbol_of(pp, (1 - a) % 49) == g2
    }
    assert_uniform_over(lambda r: sample_split(pp, 1, g1, g2, r), want)


def test_sample_split_rejection_path_large_prime():
    # p > 7 goes through rejection sampling
    pp = PrimePower(13, 1)
    g1 = g2 = PkSymbol(0, 1)
    want = {
        (a, (1 - a) % 13)
        for a in range(13)
        if symbol_of(pp, a) == g1 and symbol_of(pp, (1 - a) % 13) == g2
    }
    assert len(want) == 2
    assert_uniform_over(lambda r: sample_split(pp, 1, g1, g2, r), want)


def test_sample_type1_examples():
    assert_uniform_over(
        lambda r: sample_type1(1, PrimePower(5, 2), 1, RepKind.PRIMITIVE, r), {1, 24}
    )
    assert_uniform_over(
        lambda r: sample_type1(1, PrimePower(3, 2), 0, RepKind.NONPRIMITIVE, r), {0, 3, 6}
    )
    rng = random.Random(0)
    assert sample_type1(1, PrimePower(5, 1), 2, RepKind.ANY, rng) is None


def test_sample_type1_matches_enumeration():
    rng = random.Random(5)
    for p, kmax in ((2, 4), (3, 3), (5, 2)):
        for k in range(1, kmax + 1):
            pp = PrimePower(p, k)
            for d in range(pp.q):
                for t in range(pp.q):
                    sols, counts = enumerate_reps([[d]], pp, t)
                    prim = {v[0] for v in sols if v[0] % p}
                    nonprim = {v[0] for v in sols if v[0] % p == 0}
                    for kind, want in (
                        (RepKind.ANY, prim | nonprim),
                        (RepKind.PRIMITIVE, prim),
                        (RepKind.NONPRIMITIVE, nonprim),
                    ):
                        if not want:
                            assert sample_type1(d, pp, t, kind, rng) is None
                        else:
                            for _ in range(3):
                                assert sample_type1(d, pp, t, kind, rng) in want


def test_sample_type2_examples():
    hyp = TypeII(0, 0, 1, 0)
    assert_uniform_over(
        lambda r: sample_type2(hyp, 2, 2, RepKind.ANY, r),
        {(1, 1), (1, 3), (3, 1), (3, 3)},
    )
    rng = random.Random(0)
    assert sample_type2(hyp, 2, 1, RepKind.ANY, rng) is None
    # degenerate scale: the form is 0, non-primitive pairs are the even ones
    blk = TypeII(2, 1, 1, 1)
    want = {(x, y) for x in (0, 2, 4, 6) for y in (0, 2, 4, 6)}
    assert_uniform_over(lambda r: sample_type2(blk, 3, 0, RepKind.NONPRIMITIVE, r), want)


def test_sample_type2_matches_enumeration():
    rng = random.Random(6)
    for k in (1, 2, 3, 4):
        pp = PrimePower(2, k)
        for blk in (TypeII(0, 0, 1, 0), TypeII(0, 1, 1, 1), TypeII(1, 0, 1, 0), TypeII(0, 1, 3, 2)):
            mat = [[v % pp.q for v in row] for row in blk.matrix()]
            for t in range(pp.q):
                sols, _ = enumerate_reps(mat, pp, t)
                prim = {v for v in sols if v[0] % 2 or v[1] % 2}
                nonprim = set(sols) - prim
                for kind, want in (
                    (RepKind.ANY, set(sols)),
                    (RepKind.PRIMITIVE, prim),
                    (RepKind.NONPRIMITIVE, nonprim),
                ):
                    if not want:
                        assert sample_type2(blk, k, t, kind, rng) is None
                    else:
                        for _ in range(3):
                            assert sample_type2(blk, k, t, kind, rng) in want


def test_sample_form_examples():
    assert_uniform_over(lambda r: sample_form([[1]], PrimePower(3, 1), 1, RepKind.ANY, r), {(1,), (2,)})
    sols, _ = enumerate_reps(I2, PrimePower(5, 1), 1)
    assert_uniform_over(lambda r: sample_form(I2, PrimePower(5, 1), 1, RepKind.ANY, r), sols)
    rng = random.Random(0)
    out = sample_form(I2, PrimePower(5, 1), 3, RepKind.ANY, rng)
    assert out is None or sum(x * x for x in out) % 5 == 3
    # count decides: 3 = 4 + 4 mod 5, so solutions do exist
    assert out is not None


def test_sample_form_off_diagonal_uniform():
    mat = [[2, 1], [1, 2]]
    pp = PrimePower(3, 2)
    for t in (0, 1, 3):
        sols, counts = enumerate_reps(mat, pp, t)
        if counts.primitive:
            want = {v for v in sols if any(c % 3 for c in v)}
            assert_uniform_over(lambda r, w=want: sample_form(mat, pp, t, RepKind.PRIMITIVE, r), want)


def test_sample_form_deterministic_under_seed():
    out1 = [sample_form(I2, PrimePower(2, 4), 2, RepKind.ANY, random.Random(9)) for _ in range(1)]
    out2 = [sample_form(I2, PrimePower(2, 4), 2, RepKind.ANY, random.Random(9)) for _ in range(1)]
    assert out1 == out2
    seq1 = [sample_form(I2, PrimePower(2, 4), 2, RepKind.ANY, random.Random(11)) for _ in range(6)]
    rng = random.Random(11)
    seq2 = [sample_form(I2, PrimePower(2, 4), 2, RepKind.ANY, rng) for _ in range(6)]
    assert seq1[0] == seq2[0]


def test_sample_composite_examples():
    facs = [PrimePower(3, 1), PrimePower(5, 1)]
    assert_uniform_over(
        lambda r: sample_composite([[1]], facs, 1, RepKind.ANY, r), {(1,), (4,), (11,), (14,)}
    )
    rng = random.Random(0)
    assert sample_composite([[1]], facs, 7, RepKind.ANY, rng) is None


def test_sample_form_zero_dimension():
    # the empty vector is the one solution of the empty form: value 0,
    # non-primitive; it is returned without a draw
    rng = random.Random(5)
    state = rng.getstate()
    for pp in (PrimePower(2, 3), PrimePower(3, 1)):
        for t in (0, pp.q):
            assert sample_form([], pp, t, RepKind.ANY, rng) == ()
            assert sample_form([], pp, t, RepKind.NONPRIMITIVE, rng) == ()
            assert sample_form([], pp, t, RepKind.PRIMITIVE, rng) is None
        for kind in RepKind:
            assert sample_form([], pp, 1, kind, rng) is None
    assert rng.getstate() == state


def test_sample_composite_zero_dimension():
    facs = [PrimePower(2, 1), PrimePower(3, 1)]
    rng = random.Random(5)
    assert sample_composite([], facs, 0, RepKind.ANY, rng) == ()
    assert sample_composite([], facs, 6, RepKind.NONPRIMITIVE, rng) == ()
    assert sample_composite([], facs, 0, RepKind.PRIMITIVE, rng) is None
    for kind in RepKind:
        assert sample_composite([], facs, 3, kind, rng) is None


def test_sample_composite_validation_matches_count():
    for facs, message in (([], "at least one prime power"), ([PrimePower(3, 1), PrimePower(3, 2)], "duplicate primes")):
        with pytest.raises(DomainError, match=message):
            sample_composite([[1]], facs, 1, RepKind.ANY, random.Random(0))
        with pytest.raises(DomainError, match=message):
            count_composite([[1]], facs, 1)


def test_sample_composite_nonprimitive_means_some_prime():
    # non-primitive mod 15 = divisible by 3 or 5 somewhere, not necessarily both
    facs = [PrimePower(3, 1), PrimePower(5, 1)]
    want = {(x,) for x in range(15) if x * x % 15 == 6}
    # 6 and 9 are units mod 5 but divisible by 3: non-primitive overall
    assert want == {(6,), (9,)}
    assert_uniform_over(lambda r: sample_composite([[1]], facs, 6, RepKind.NONPRIMITIVE, r), want)
    rng = random.Random(2)
    for _ in range(20):
        v = sample_composite(I2, facs, 3, RepKind.NONPRIMITIVE, rng)
        from math import gcd

        assert v is not None and gcd(15, *v) > 1


def test_sample_composite_single_factor_matches_form():
    pp = PrimePower(7, 1)
    got = draws(lambda r: sample_composite(I2, [pp], 2, RepKind.ANY, r), 400, seed=3)
    sols, _ = enumerate_reps(I2, pp, 2)
    assert set(got) == set(sols)


def recursive_sample_scaled_type2(a, b, c, t2, k2, want_prim, rng):
    """Reference: the sampler as a recursion, one call per two bits."""
    q2 = 2**k2
    if want_prim:
        seeds = [s for s in ((0, 1), (1, 0), (1, 1)) if (a * s[0] + b * s[0] * s[1] + c * s[1] - t2) % 2 == 0]
        y1, y2 = seeds[uniform_below(len(seeds), rng)]
        for j in range(1, k2):
            r = ((t2 - a * y1 * y1 - b * y1 * y2 - c * y2 * y2) >> j) & 1
            if y1 % 2:
                b1 = uniform_below(2, rng)
                b2 = (r - y2 * b1) % 2
            else:
                b2 = uniform_below(2, rng)
                b1 = r
            y1 += b1 << j
            y2 += b2 << j
        return y1 % q2, y2 % q2
    if k2 == 1:
        return 0, 0
    m = k2 - 2
    if m == 0:
        z1, z2 = uniform_below(2, rng), uniform_below(2, rng)
    else:
        t4 = (t2 // 4) % 2**m
        p4, n4 = _count_scaled_type2(a, b, c, t4, m)
        inner_prim = uniform_below(p4 + n4, rng) < p4
        w1, w2 = recursive_sample_scaled_type2(a, b, c, t4, m, inner_prim, rng)
        z1 = w1 + (uniform_below(2, rng) << m)
        z2 = w2 + (uniform_below(2, rng) << m)
    return 2 * z1 % q2, 2 * z2 % q2


def test_scaled_type2_sampler_matches_recursion():
    # same draws in the same order, so the same transcript, at k <= 40
    for a, b, c in ((0, 1, 0), (1, 1, 1), (2, 1, 3)):
        for k2 in range(1, 41):
            for t2 in {0, 4 % 2**k2, 2 ** (k2 - 1), 2 ** (2 * (k2 // 3)) % 2**k2, 3 * 2 ** (k2 // 2) % 2**k2}:
                p, n = _count_scaled_type2(a, b, c, t2, k2)
                for want_prim, size in ((True, p), (False, n)):
                    if size == 0:
                        continue
                    seed = f"{a}{b}{c}:{t2}:{k2}:{want_prim}"
                    r1, r2 = random.Random(seed), random.Random(seed)
                    got = _sample_scaled_type2(a, b, c, t2, k2, want_prim, r1)
                    assert got == recursive_sample_scaled_type2(a, b, c, t2, k2, want_prim, r2)
                    assert r1.getstate() == r2.getstate()


def test_sample_form_tests_no_known_prime_again(monkeypatch):
    # every smaller modulus a draw works in reuses the prime already tested
    big = PrimePower(85070591730234615865843651857942052973, 8)
    two = PrimePower(2, 9)
    calls = []
    original = quadmod.modring.is_probable_prime
    monkeypatch.setattr(quadmod.modring, "is_probable_prime", lambda n: calls.append(n) or original(n))
    q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]
    rng = random.Random(8)
    for t in (7, 0, 3 * big.p**2):
        x = sample_form(q4, big, t, RepKind.ANY, rng)
        assert sum(q4[i][j] * x[i] * x[j] for i in range(4) for j in range(4)) % big.q == t % big.q
    for q_mat, t in (([[1, 0], [0, 3]], 4), ([[2, 1], [1, 2]], 6)):  # type I, type II blocks mod 2^k
        assert sample_form(q_mat, two, t, RepKind.ANY, rng) is not None
    assert calls == []


def test_chain_walk_splits_without_checking_again(monkeypatch):
    # the walk only picks cells of non-zero weight, so it splits them
    # with the private core: no split_class_size check, and the target
    # symbol it carries is the symbol of the target it splits
    checks = []
    original = quadmod.sampling.split_class_size
    monkeypatch.setattr(quadmod.sampling, "split_class_size", lambda *a: checks.append(a) or original(*a))
    split = quadmod.sampling._split
    steps = []

    def checked_split(pp, t, g, g1, g2, rng):
        assert g == symbol_of(pp, t)
        steps.append(g)
        return split(pp, t, g, g1, g2, rng)

    monkeypatch.setattr(quadmod.sampling, "_split", checked_split)
    q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]
    rng = random.Random(9)
    for pp in (PrimePower(2, 7), PrimePower(3, 4), PrimePower(13, 2), PrimePower(2**127 - 1, 2)):
        form = prepare(q4, pp)
        for t in (0, 1, 6, pp.p**2 * 5):
            for kind in RepKind:
                x = sample_prepared(form, t, kind, rng)
                if x is not None:
                    assert sum(q4[i][j] * x[i] * x[j] for i in range(4) for j in range(4)) % pp.q == t % pp.q
    assert checks == [] and len(steps) > 50
    # the public split still checks its cell, and answers None on a zero one
    pp = PrimePower(3, 2)
    for t in range(pp.q):
        g = symbol_of(pp, t)
        for g1 in enumerate_symbols(pp):
            for g2 in enumerate_symbols(pp):
                state = rng.getstate()
                pair = sample_split(pp, t, g1, g2, rng)
                if split_class_size(pp, g, g1, g2) == 0:
                    assert pair is None and rng.getstate() == state, (t, g1, g2)
                else:
                    a, b = pair
                    assert (symbol_of(pp, a), symbol_of(pp, b), (a + b) % pp.q) == (g1, g2, t)
    assert checks
