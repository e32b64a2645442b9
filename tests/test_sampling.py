import random
from collections import Counter

import pytest
from conftest import CallCounter
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_helpers import block_matrix

import quadmod.counting
import quadmod.modring
import quadmod.sampling
import quadmod.sqroots
from quadmod.blockdiag import TypeI, TypeII
from quadmod.counting import (
    PreparedForm,
    _scaled_type2_counts,
    _type2_seeds,
    count_composite,
    count_factors,
    count_form,
    prepare,
)
from quadmod.modring import INF, DomainError, PrimePower, uniform_below
from quadmod.oracle import chi_square_uniform, enumerate_reps
from quadmod.sampling import (
    RepKind,
    _sample_scaled_type2,
    sample_composite,
    sample_factors,
    sample_form,
    sample_prepared,
    sample_split,
    sample_symbol_elem,
)
from quadmod.sqroots import sqrt_unit_mod_p
from quadmod.symbols import PkSymbol, class_size, enumerate_symbols, split_class_size, symbol_of

I2 = [[1, 0], [0, 1]]
Q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]


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


@pytest.mark.parametrize(
    "p, k, t, s1, s2",
    [(3, 2, 1, -1, -1), (5, 2, 2, 1, -1), (7, 2, 1, 1, -1), (13, 1, 1, 1, 1), (13, 2, 2, -1, 1)],
    ids=["3^2", "5^2", "7^2", "13^1", "13^2"],
)
def test_sample_split_uniform_equal_orders(p, k, t, s1, s2):
    # a, b and t of one order: a's unit digit goes through the rejection
    # loop the type I head step also runs, then a's higher digits are free
    pp = PrimePower(p, k)
    g1, g2 = PkSymbol(0, s1), PkSymbol(0, s2)
    want = {
        (a, (t - a) % pp.q)
        for a in range(pp.q)
        if symbol_of(pp, a) == g1 and symbol_of(pp, (t - a) % pp.q) == g2
    }
    assert len(want) == split_class_size(pp, symbol_of(pp, t), g1, g2) > 0
    assert_uniform_over(lambda r: sample_split(pp, t, g1, g2, r), want)


class StuckRng:
    """random.Random(seed), except that its first `stuck` randrange calls
    return `value`."""

    def __init__(self, seed, stuck, value):
        self.rng, self.stuck, self.value = random.Random(seed), stuck, value

    def randrange(self, n):
        if self.stuck:
            self.stuck -= 1
            return self.value
        return self.rng.randrange(n)


@pytest.mark.parametrize("stuck", [64, 64 * 64])
def test_rejection_loops_have_no_cap(stuck):
    # every stuck answer is rejected: in a cell with g1 = (0, +1), a's
    # unit digit 1 + 2 = 3 and the class digit 3 are non-residues mod 7,
    # and the non-residue candidate 2 + 0 = 2 is a square mod 17.  Each
    # loop goes on until the answers come unstuck, and then returns
    pp, t, g1 = PrimePower(7, 2), 26, PkSymbol(0, 1)
    a, b = sample_split(pp, t, g1, g1, StuckRng(7, stuck, 2))
    assert (symbol_of(pp, a), symbol_of(pp, b), (a + b) % pp.q) == (g1, g1, t)
    assert symbol_of(pp, sample_symbol_elem(pp, g1, StuckRng(7, stuck, 3))) == g1
    assert sqrt_unit_mod_p(17, 2, StuckRng(7, stuck, 0)) == (6, 11)


def one_block(blk, pp):
    """The prepared form of blk's matrix mod p^k: the block itself,
    or, where the matrix vanishes mod p^k, zero blocks."""
    return prepare([[v % pp.q for v in row] for row in block_matrix(blk)], pp)


def test_sample_type1_examples():
    # one-block forms d x^2: the chain walk has no step, and the block
    # is solved directly
    form = prepare([[1]], PrimePower(5, 2))
    assert_uniform_over(lambda r: sample_prepared(form, 1, RepKind.PRIMITIVE, r), {(1,), (24,)})
    form = prepare([[1]], PrimePower(3, 2))
    assert_uniform_over(lambda r: sample_prepared(form, 0, RepKind.NONPRIMITIVE, r), {(0,), (3,), (6,)})
    rng = random.Random(0)
    assert sample_prepared(prepare([[1]], PrimePower(5, 1)), 2, RepKind.ANY, rng) is None


def test_sample_type1_matches_enumeration():
    rng = random.Random(5)
    for p, kmax in ((2, 4), (3, 3), (5, 2)):
        for k in range(1, kmax + 1):
            pp = PrimePower(p, k)
            for d in range(pp.q):
                form = prepare([[d]], pp)
                assert len(form.blocks) == 1
                for t in range(pp.q):
                    sols, counts = enumerate_reps([[d]], pp, t)
                    prim = {v for v in sols if v[0] % p}
                    nonprim = {v for v in sols if v[0] % p == 0}
                    for kind, want in (
                        (RepKind.ANY, prim | nonprim),
                        (RepKind.PRIMITIVE, prim),
                        (RepKind.NONPRIMITIVE, nonprim),
                    ):
                        if not want:
                            assert sample_prepared(form, t, kind, rng) is None
                        else:
                            for _ in range(3):
                                assert sample_prepared(form, t, kind, rng) in want


def test_sample_type2_examples():
    hyp = TypeII(0, 0, 1, 0)
    form = one_block(hyp, PrimePower(2, 2))
    assert form.blocks == (hyp,)
    assert_uniform_over(
        lambda r: sample_prepared(form, 2, RepKind.ANY, r),
        {(1, 1), (1, 3), (3, 1), (3, 3)},
    )
    rng = random.Random(0)
    assert sample_prepared(form, 1, RepKind.ANY, rng) is None
    # degenerate scale: the form is 0, non-primitive pairs are the even ones
    form = one_block(TypeII(2, 1, 1, 1), PrimePower(2, 3))
    assert [type(blk) for blk in form.blocks] == [TypeII]
    want = {(x, y) for x in (0, 2, 4, 6) for y in (0, 2, 4, 6)}
    assert_uniform_over(lambda r: sample_prepared(form, 0, RepKind.NONPRIMITIVE, r), want)


def test_sample_type2_matches_enumeration():
    rng = random.Random(6)
    for k in (1, 2, 3, 4):
        pp = PrimePower(2, k)
        for blk in (TypeII(0, 0, 1, 0), TypeII(0, 1, 1, 1), TypeII(1, 0, 1, 0), TypeII(0, 1, 3, 2)):
            mat = [[v % pp.q for v in row] for row in block_matrix(blk)]
            form = one_block(blk, pp)
            assert [type(b) for b in form.blocks] == ([TypeII] if blk.ell < k else [TypeI, TypeI])
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
                        assert sample_prepared(form, t, kind, rng) is None
                    else:
                        for _ in range(3):
                            assert sample_prepared(form, t, kind, rng) in want


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


ONE_FACTOR, TWO_FACTORS = [PrimePower(3, 2)], [PrimePower(2, 3), PrimePower(3, 2)]
KIND_SAMPLERS = {
    "sample_form": lambda kind, rng: sample_form([[1]], ONE_FACTOR[0], 0, kind, rng),
    "sample_prepared": lambda kind, rng: sample_prepared(prepare([[1]], ONE_FACTOR[0]), 0, kind, rng),
    "sample_prepared_zero_dim": lambda kind, rng: sample_prepared(prepare([], ONE_FACTOR[0]), 0, kind, rng),
    "sample_composite": lambda kind, rng: sample_composite([[1]], TWO_FACTORS, 0, kind, rng),
    "sample_factors": lambda kind, rng: sample_factors([prepare([[1]], pp) for pp in TWO_FACTORS], 3, kind, rng),
    "sample_prepared_type2": lambda kind, rng: sample_prepared(one_block(TypeII(0, 0, 1, 0), PrimePower(2, 2)), 2, kind, rng),
}


@pytest.mark.parametrize("name", KIND_SAMPLERS)
@pytest.mark.parametrize("kind", ["primitive", None, 10**5000], ids=["str", "None", "int-of-5001-digits"])
def test_samplers_reject_a_kind_that_is_not_a_repkind(name, kind):
    # a string or None is neither coerced nor read as ANY: every public
    # sampler raises before its first draw.  (Read as ANY, x^2 = 0 mod 9
    # would give the non-primitive (0,), (3,) or (6,); PRIMITIVE gives None.)
    assert sample_form([[1]], ONE_FACTOR[0], 0, RepKind.PRIMITIVE, random.Random(1)) is None
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(DomainError, match="RepKind"):
        KIND_SAMPLERS[name](kind, rng)
    assert rng.getstate() == state


def test_sample_composite_single_factor_matches_form():
    pp = PrimePower(7, 1)
    got = draws(lambda r: sample_composite(I2, [pp], 2, RepKind.ANY, r), 400, seed=3)
    sols, _ = enumerate_reps(I2, pp, 2)
    assert set(got) == set(sols)
    # a composite of one factor is the prime-power call, draw for draw:
    # the same vectors, counts and final RNG state, empty classes included
    for q_mat in (Q4, I2):
        for pp in (PrimePower(2, 6), PrimePower(3, 4), PrimePower(5, 3), PrimePower(2**127 - 1, 2)):
            for kind in RepKind:
                rng_a, rng_b = random.Random(17), random.Random(17)
                for t in (0, 1, 2, 7, 8, 12, 25, 36):
                    assert count_form(q_mat, pp, t) == count_composite(q_mat, [pp], t), (pp, t)
                    for _ in range(3):
                        want = sample_form(q_mat, pp, t, kind, rng_a)
                        assert sample_composite(q_mat, [pp], t, kind, rng_b) == want, (pp, kind, t)
                assert rng_a.getstate() == rng_b.getstate(), (pp, kind)


@pytest.mark.parametrize("wide_first", [False, True], ids=["narrow-first", "wide-first"])
def test_prepared_factors_of_different_dimensions_are_rejected(wide_first):
    # x^2 mod 3 and x^2 + y^2 mod 5 are not one form mod 15: counting
    # them multiplied two unrelated counts, and drawing from them
    # returned a 1-tuple or raised IndexError.  Both functions raise
    # before any count or draw
    forms = [prepare([[1]], PrimePower(3, 1)), prepare(I2, PrimePower(5, 1))]
    if wide_first:
        forms.reverse()
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(DomainError, match="numbers of variables"):
        count_factors(forms, 1)
    for kind in RepKind:
        with pytest.raises(DomainError, match="numbers of variables"):
            sample_factors(forms, 1, kind, rng)
    assert rng.getstate() == state


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
        p4, n4 = _scaled_type2_counts(_type2_seeds(a, b, c), t4, m)
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
                p, n = _scaled_type2_counts(_type2_seeds(a, b, c), t2, k2)
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
    # with the private core, or draws a type I head's x directly: no
    # split_class_size check, and the target symbol each step carries is
    # the symbol of the target it splits
    checks = []
    original = quadmod.sampling.split_class_size
    monkeypatch.setattr(quadmod.sampling, "split_class_size", lambda *a: checks.append(a) or original(*a))
    split, head = quadmod.sampling._split, quadmod.sampling._sample_head_type1
    steps = []

    def checked_split(pp, t, g, g1, g2, rng):
        assert g == symbol_of(pp, t)
        steps.append(g)
        return split(pp, t, g, g1, g2, rng)

    def checked_head(d, pp, t, g, g1, g2, rng):
        assert g == symbol_of(pp, t)
        steps.append(g)
        return head(d, pp, t, g, g1, g2, rng)

    monkeypatch.setattr(quadmod.sampling, "_split", checked_split)
    monkeypatch.setattr(quadmod.sampling, "_sample_head_type1", checked_head)
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


def test_root_free_heads_reach_every_solution(monkeypatch):
    # the exact-law support check of the CRT criterion (every solution
    # seen, none outside), on instances that take every branch of the
    # root-free head step
    head = quadmod.sampling._sample_head_type1
    taken = Counter()

    def counted(d, pp, t, g, g1, g2, rng):
        branch = "p=2" if pp.p == 2 else "equal" if g1.ord == g.ord else "unequal"
        taken[branch, pp.p] += 1
        return head(d, pp, t, g, g1, g2, rng)

    monkeypatch.setattr(quadmod.sampling, "_sample_head_type1", counted)
    rng = random.Random(12)
    cases = [
        ([[1, 0], [0, 3]], PrimePower(2, 4)),
        ([[1, 0, 0], [0, 5, 0], [0, 0, 2]], PrimePower(2, 3)),
        (I2, PrimePower(3, 2)),
        ([[1, 0], [0, 2]], PrimePower(3, 3)),
        ([[1, 0], [0, 3]], PrimePower(7, 1)),
        (I2, PrimePower(11, 1)),
        ([[2, 0], [0, 1]], PrimePower(13, 1)),
    ]
    for mat, pp in cases:
        for t in range(0, pp.q, max(1, pp.q // 16)):
            sols = set(enumerate_reps(mat, pp, t)[0])
            prim = {v for v in sols if any(c % pp.p for c in v)}
            for kind, want in ((RepKind.ANY, sols), (RepKind.PRIMITIVE, prim), (RepKind.NONPRIMITIVE, sols - prim)):
                if not want:
                    assert sample_form(mat, pp, t, kind, rng) is None
                    continue
                seen = set()
                for _ in range(15 * len(want)):
                    x = sample_form(mat, pp, t, kind, rng)
                    assert x in want, (mat, pp, t, kind, x)
                    seen.add(x)
                assert seen == want, (mat, pp, t, kind)
    assert taken["p=2", 2] and taken["unequal", 3] and taken["unequal", 7], taken
    assert all(taken["equal", p] for p in (3, 7, 11, 13)), taken


# a head case is identified by its bare prime, a split case by split-p
EQUAL_ORDERS_CALLERS = [pytest.param("head", p, id=str(p)) for p in (3, 7, 11, 13)] + [
    pytest.param("split", p, id=f"split-{p}") for p in (3, 7, 11, 13)
]


@pytest.mark.parametrize("caller, p", EQUAL_ORDERS_CALLERS)
def test_equal_orders_head_rejects_at_the_exact_rate(monkeypatch, unit_digit_trials, caller, p):
    # the one rejection loop of a cell with ord g1 = ord g2 = ord g, from
    # both its callers.  A type I head redraws y's unit digit y0 until
    # the tail's unit digit ct - cd*y0^2 is non-zero with g2's sign; a
    # split redraws a's unit digit a1 until a1 has g1's sign and ct - a1
    # is non-zero with g2's.  Each trial in a cell is rejected with the
    # share of digits in 1..p-1 that fail, enumerated here with Euler's
    # criterion; the rejects over all trials must sit within 5 sigma of
    # the sum of those shares
    stats = unit_digit_trials
    expected = variance = 0.0

    def euler(b):
        b %= p
        return 0 if b == 0 else 1 if pow(b, (p - 1) // 2, p) == 1 else -1

    def account(trials, fails):
        nonlocal expected, variance
        rate = sum(map(fails, range(1, p))) / (p - 1)
        expected += trials * rate
        variance += trials * rate * (1 - rate)

    head = quadmod.sampling._sample_head_type1

    def watched(d, pp, t, g, g1, g2, rng):
        before = stats.trials
        out = head(d, pp, t, g, g1, g2, rng)
        trials = stats.trials - before
        if g1.ord != g.ord:
            assert trials == 0
            return out
        cd = d
        while cd % p == 0:
            cd //= p
        ct = t // p**g.ord % p
        account(trials, lambda y0: euler(ct - cd * y0 * y0) != g2.sgn)
        return out

    rng = random.Random(p)
    pp = PrimePower(p, 2)
    targets = [t for t in range(1, pp.q) if t % p]
    if caller == "head":
        monkeypatch.setattr(quadmod.sampling, "_sample_head_type1", watched)
        form = prepare(Q4, pp)
        for _ in range(1500):
            sample_prepared(form, targets[uniform_below(len(targets), rng)], RepKind.ANY, rng)
    else:
        units = (PkSymbol(0, 1), PkSymbol(0, -1))
        cells = [
            (t, g1, g2)
            for t in targets
            for g1 in units
            for g2 in units
            if split_class_size(pp, symbol_of(pp, t), g1, g2)
        ]
        for _ in range(6000):
            t, g1, g2 = cells[uniform_below(len(cells), rng)]
            before = stats.trials
            # a cell with one good digit in six takes six trials on
            # average, and its loop has no cap: every trial counts
            a, b = sample_split(pp, t, g1, g2, rng)
            assert (symbol_of(pp, a), symbol_of(pp, b), (a + b) % pp.q) == (g1, g2, t)
            account(stats.trials - before, lambda a1: euler(a1) != g1.sgn or euler(t - a1) != g2.sgn)
    assert stats.trials > 1000, stats.trials
    assert abs(stats.rejects - expected) <= 5 * variance**0.5, (stats.rejects, expected, variance)


def test_benchmark_root_spans_see_calls(monkeypatch):
    # the benchmark's tracer times square roots by wrapping these names
    # and skips a name a module lacks; a rename must fail here instead
    calls = {}
    for module, name in (
        (quadmod.sampling, "lift_sqrt_odd"),
        (quadmod.sampling, "sqrt_unit_mod_2k"),
        (quadmod.sqroots, "sqrt_unit_mod_p"),
    ):
        calls[name] = CallCounter(getattr(module, name))
        monkeypatch.setattr(module, name, calls[name])
    rng = random.Random(3)
    p127 = 85070591730234615865843651857942052973
    for q_mat, pp in ((I2, PrimePower(p127, 2)), ([[1, 0], [0, 3]], PrimePower(2, 7))):
        for t in range(1, 9):
            sample_form(q_mat, pp, t, RepKind.ANY, rng)
    assert calls["lift_sqrt_odd"].calls and calls["sqrt_unit_mod_2k"].calls
    assert calls["sqrt_unit_mod_p"].calls == calls["lift_sqrt_odd"].calls



@pytest.mark.parametrize("profile", [(0, 0, 1), (0, 0, 1, 1)], ids=["001", "0011"])
@pytest.mark.parametrize("kind", [RepKind.ANY, RepKind.PRIMITIVE])
def test_a_draw_at_a_big_prime_takes_one_root(root_calls, profile, kind):
    # the walk peels the blocks highest order first, so a head's tail
    # has an order at most the head's: at a target prime to p a head
    # takes no root except in a cell of weight about 1/p, and a draw
    # takes one square root, the last block's
    odd, two = root_calls
    p127 = 85070591730234615865843651857942052973
    pp = PrimePower(p127, 4)
    diag = [d * p127**e for d, e in zip((1, 2, 3, 5), profile)]
    form = prepare([[v if i == j else 0 for j in range(len(diag))] for i, v in enumerate(diag)], pp)
    rng = random.Random(f"one root:{profile}:{kind.value}")
    for t in (1, 2, 3, 7, 10**30 + 1, pp.q - 1):
        for _ in range(5):
            odd.calls = 0
            x = sample_prepared(form, t, kind, rng)
            assert sum(d * v * v for d, v in zip(diag, x)) % pp.q == t
            assert odd.calls == 1, (t, odd.calls)
    assert two.calls == 0


@pytest.mark.parametrize(
    "q_mat, pp, t", [(I2, PrimePower(13, 2), 1), (Q4, PrimePower(3, 4), 7)], ids=["I2-13^2", "Q4-3^4"]
)
def test_a_forced_class_choice_draws_nothing(q_mat, pp, t):
    # where the non-primitive class is empty, ANY must take the primitive
    # class without a draw, so its draws are PRIMITIVE's from one seed
    form = prepare(q_mat, pp)
    assert form.count(t).nonprimitive == 0 < form.count(t).primitive
    any_rng, prim_rng = random.Random(21), random.Random(21)
    for _ in range(20):
        assert sample_prepared(form, t, RepKind.ANY, any_rng) == sample_prepared(form, t, RepKind.PRIMITIVE, prim_rng)
    assert any_rng.getstate() == prim_rng.getstate()


def test_a_forced_factor_branch_draws_nothing():
    # a NONPRIMITIVE composite draw branches per factor between "this
    # factor non-primitive" and "primitive, constraint pending".  Mod
    # 13^2 at t = 9 the first branch is empty, and at the last factor the
    # second, so neither takes a draw: the composite draw is a PRIMITIVE
    # draw mod 13^2 and a NONPRIMITIVE one mod 3^4, from one generator
    i3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    forms = [prepare(i3, PrimePower(13, 2)), prepare(i3, PrimePower(3, 4))]
    t = 9
    assert forms[0].count(t).nonprimitive == 0 and forms[1].count(t).primitive and forms[1].count(t).nonprimitive
    rng, ref = random.Random(8), random.Random(8)
    for _ in range(10):
        x = sample_factors(forms, t, RepKind.NONPRIMITIVE, rng)
        a = sample_prepared(forms[0], t, RepKind.PRIMITIVE, ref)
        b = sample_prepared(forms[1], t, RepKind.NONPRIMITIVE, ref)
        assert tuple(v % 169 for v in x) == a and tuple(v % 81 for v in x) == b
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("kind", list(RepKind))
def test_draws_count_each_factor_once(monkeypatch, kind):
    # the count that weighs a factor also sets its walk's first total,
    # and t's symbol, taken once, is the walk's first symbol
    counter = CallCounter(PreparedForm.count)
    monkeypatch.setattr(PreparedForm, "count", lambda form, t: counter(form, t))
    symbols = CallCounter(quadmod.sampling.symbol_of)
    monkeypatch.setattr(quadmod.sampling, "symbol_of", symbols)  # counting takes no symbols
    q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(13, 1)]
    rng = random.Random(4)
    drawn = 0
    for t in (0, 1, 6, 14, 36, 78, 117):
        for draw, per_call in (
            (lambda: sample_form(q4, PrimePower(3, 4), t, kind, rng), 1),
            (lambda: sample_composite(q4, factors, t, kind, rng), 3),
            (lambda: sample_factors([prepare(q4, pp) for pp in factors], t, kind, rng), 3),
        ):
            counter.calls = symbols.calls = 0
            drawn += draw() is not None
            assert counter.calls == symbols.calls == per_call, (t, per_call)
    assert drawn >= 9


def test_walk_raises_when_a_tail_disagrees_with_its_level():
    # each step after the first draws below the tail's entry for its
    # class; a tail entry larger than the cells below it sends the next
    # scan past its last cell, which is an error, not a silent pick of
    # that cell.  At t = 36, p^2 | t and both classes are non-empty, so
    # both kinds reach the tampered tail, a Level whose every entry is
    # read 2 10^40 too large in total and 10^40 in non-primitive count
    q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]
    mixed = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]  # a type II block and two type I
    for q_mat, pp in ((q4, PrimePower(3, 4)), (mixed, PrimePower(2, 6))):
        form = prepare(q_mat, pp)
        tails = form.walk()[2]
        assert len(tails) >= 2
        assert 36 % pp.p**2 == 0 and form.count(36).primitive and form.count(36).nonprimitive
        tail, at = tails[0], tails[0].at
        tail.at = lambda o, s, at=at: (at(o, s)[0] + 2 * 10**40, at(o, s)[1] + 10**40)
        for kind in (RepKind.PRIMITIVE, RepKind.NONPRIMITIVE):
            with pytest.raises(RuntimeError, match="past its last cell"):
                sample_prepared(form, 36, kind, random.Random(5))
