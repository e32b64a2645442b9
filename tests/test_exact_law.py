"""An exact-law referee: every draw is certified at exactly 1/N.

A draw reads its randomness as a sequence of randrange(n) calls.  The
referee enumerates those sequences depth first with a stub RandomSource
that replays a prefix of answers and answers every later call with 0,
recording the size of each call.  A leaf's probability is the product
of its answers' shares, as a Fraction.

Answers are grouped into runs, so that a draw below a big count costs
one branch per outcome, not one per answer.  For each answer of a call,
the rest of the draw is run with every later answer 0, which gives a
signature: the later call sizes and the output.  A run is a maximal
stretch of answers with one signature, found by exponential and then
binary search, and it weighs its length over n.  This one rule covers
the walk's draw below a class count (whose runs are its cells), the
threshold of an ANY draw, the branch of a composite NONPRIMITIVE draw,
the descent of a type II block and a square root's non-residue, whose
roots do not depend on it.

The rejection loops go through modring.draw_until, which the referee
replaces with its exact law: one randrange over the accepted values.
That draw_until returns the first accepted answer, with one randrange
per trial and no cap, is checked in test_modring.py.

The solution sets come from the brute-force oracle; each solution of
the requested kind must come out with probability exactly 1/N, at
exactly one leaf.
"""

import functools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

import quadmod.sampling
import quadmod.sqroots
from quadmod import PrimePower, RepKind, prepare, sample_factors, sample_split, sample_symbol_elem
from quadmod.oracle import nonprimitive_composite, solutions_mod
from quadmod.symbols import enumerate_symbols, symbol_of


class Replay:
    """randrange answers: the prefix's, then 0; records every call's n."""

    def __init__(self, prefix):
        self.prefix, self.sizes = prefix, []

    def randrange(self, n):
        i = len(self.sizes)
        self.sizes.append(n)
        return self.prefix[i] if i < len(self.prefix) else 0


def exact_draw_until(lo, n, accept, rng):
    """The law of modring.draw_until: uniform over the accepted values."""
    accepted = [v for v in range(lo, lo + n) if accept(v)]
    return accepted[rng.randrange(len(accepted))]


@pytest.fixture
def exact_loops(monkeypatch):
    for module in (quadmod.sampling, quadmod.sqroots):
        monkeypatch.setattr(module, "draw_until", exact_draw_until)


def runs(n, signature):
    """(start, end, signature) of each run of the answers 0..n-1 of one
    call, in order, where signature(b) is the signature of answer b."""
    sig = functools.cache(signature)
    a = 0
    while a < n:
        # the run from a ends before hi: lo is in it, hi is not (or is n)
        lo, step = a, 1
        while lo + step < n and sig(lo + step) == sig(a):
            lo += step
            step *= 2
        hi = min(lo + step, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if sig(mid) == sig(a) else (lo, mid)
        yield a, hi, sig(a)
        a = hi


def exact_law(draw):
    """({output: probability}, {output: leaves}) of draw(rng)."""

    def signature(prefix):
        rng = Replay(prefix)
        out = draw(rng)
        return tuple(rng.sizes), out

    law, leaves = Counter(), Counter()
    stack = [((), Fraction(1), signature(()))]
    while stack:
        prefix, weight, (sizes, out) = stack.pop()
        j = len(prefix)
        if len(sizes) == j:
            law[out] += weight
            leaves[out] += 1
            continue
        n = sizes[j]
        for a, end, sig in runs(n, lambda b: signature(prefix + (b,))):
            stack.append((prefix + (a,), weight * Fraction(end - a, n), sig))
    return law, leaves


def assert_uniform(draw, want):
    """draw's exact law is uniform over the set want, one leaf each
    (or None with certainty when want is empty)."""
    law, leaves = exact_law(draw)
    if not want:
        assert law == {None: 1}, law
        return
    assert set(law) == want, (len(law), len(want), list(set(law) ^ want)[:5])
    bad = {x: w for x, w in law.items() if w != Fraction(1, len(want))}
    assert not bad, (len(want), sorted(bad.items())[:5])
    assert set(leaves.values()) == {1}, leaves.most_common(3)


def of_kind(sols, m, kind):
    if kind is RepKind.ANY:
        return set(sols)
    return {x for x in sols if nonprimitive_composite(x, m) == (kind is RepKind.NONPRIMITIVE)}


def class_targets(pp):
    """The least target of each non-empty symbol class mod p^k."""
    least = {}
    for t in reversed(range(pp.q)):
        least[symbol_of(pp, t)] = t
    return list(least.values())


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


A3 = [[1, 0, 0], [0, 3, 0], [0, 0, 1]]
B3 = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
C3 = [[2, 1, 0], [1, 4, 1], [0, 1, 6]]
TYPE2_UNIT = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]  # a type II block and a unit block at 2
TYPE2_EVEN = [[4, 1, 0], [1, 2, 0], [0, 0, 3]]
HYPERBOLIC = [[0, 1], [1, 0]]

# (name, form, (p, k) per factor, targets); None takes every symbol
# class's least target
CASES = [
    ("I2 mod 7^2", identity(2), [(7, 2)], None),
    ("I2 mod 5^2", identity(2), [(5, 2)], None),
    ("I2 mod 2^4", identity(2), [(2, 4)], None),
    ("I2 mod 17", identity(2), [(17, 1)], None),
    ("x^2+3y^2+z^2 mod 5^2", A3, [(5, 2)], [2, 5, 0]),
    ("I3 mod 7^2", identity(3), [(7, 2)], [3, 7]),
    ("I3 mod 3^3", identity(3), [(3, 3)], [1, 3, 9, 0]),
    ("I3 mod 2^5", identity(3), [(2, 5)], [3, 2, 4, 0]),
    ("x^2+y^2+2z^2 mod 3^3", B3, [(3, 3)], [2, 6, 9, 0]),
    ("C3 mod 11", C3, [(11, 1)], None),
    ("type II + unit mod 2^3", TYPE2_UNIT, [(2, 3)], None),
    ("type II + unit mod 2^4", TYPE2_UNIT, [(2, 4)], None),
    ("type II + 3 mod 2^4", TYPE2_EVEN, [(2, 4)], None),
    ("hyperbolic mod 2^5", HYPERBOLIC, [(2, 5)], None),
    ("I2 mod 3^2*5", identity(2), [(3, 2), (5, 1)], [0, 9, 18, 5, 1, 2, 3]),
    ("I2 mod 5^2*13", identity(2), [(5, 2), (13, 1)], [25, 2, 5]),
    ("I2 mod 3^2*2^3", identity(2), [(3, 2), (2, 3)], [0, 9, 36, 1, 2, 4]),
]


@pytest.mark.parametrize("name, form, factors, targets", CASES, ids=[c[0] for c in CASES])
def test_draws_are_exactly_uniform(exact_loops, name, form, factors, targets):
    pps = [PrimePower(p, k) for p, k in factors]
    forms = [prepare(form, pp) for pp in pps]
    m = math.prod(pp.q for pp in pps)
    for t in targets if targets is not None else class_targets(pps[0]):
        sols = solutions_mod(form, m, t)
        for kind in RepKind:
            want = of_kind(sols, m, kind)
            assert_uniform(lambda rng: sample_factors(forms, t, kind, rng), want)


@pytest.mark.parametrize("p, k", [(3, 2), (7, 2), (17, 1)])
def test_splits_and_symbol_classes_are_exactly_uniform(exact_loops, p, k):
    # the equal-orders split loop, which the walk does not reach, and
    # the digit loop of a symbol class
    pp = PrimePower(p, k)
    for g1 in enumerate_symbols(pp):
        want = {x for x in range(pp.q) if symbol_of(pp, x) == g1}
        assert_uniform(lambda rng: sample_symbol_elem(pp, g1, rng), want)
    for t in class_targets(pp):
        cells = defaultdict(set)
        for a in range(pp.q):
            b = (t - a) % pp.q
            cells[symbol_of(pp, a), symbol_of(pp, b)].add((a, b))
        for (g1, g2), want in cells.items():
            assert_uniform(lambda rng: sample_split(pp, t, g1, g2, rng), want)
