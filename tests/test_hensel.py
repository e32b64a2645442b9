"""A uniformity referee for draws at deep moduli, by Hensel projection.

At k = 60 the oracle cannot enumerate the solutions of x'Qx = t mod p^k,
so the law of the draws is checked through x mod p^j for a small j.  A
solution class c mod p^j at which the gradient of x'Qx is a unit has
the same number of lifts, p^(n-1) per level, to every level above the
one where that starts.  So over such classes, the law of x mod p^j
under uniform draws at k = 60 is the law of x mod p^j over the
solutions at a small level k0, which this module enumerates level by
level with numpy.  Hensel's lemma gives the premise where the half
gradient Qc is a unit mod p, from k0 = j for odd p and k0 = j + 3 for
p = 2; the premise is checked as well: each reference is enumerated at
k0 and k0 + 1 and used only at the classes of unit half gradient whose
counts grow by p^(n-1) between them.  Nothing here shares code with the
count tables or the chain walk.

A non-primitive draw x is p y, with y mod p^(k-1) a uniform solution
of y'Qy = t / p^2 mod p^(k-2), so its y follows the reference of that
target over all the solutions.  Beyond the fixed primitive cases,
hypothesis draws forms E'DE in 2 to 4 variables (D with type II blocks
at p = 2), targets of every small order and k up to 60, for the kinds
ANY and NONPRIMITIVE.

A draw mod a composite q = q_1 q_2 is, by the CRT, a pair of draws, one
mod each factor, so its projection to each factor follows that factor's
reference, and the same premise check applies.
"""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadmod import PrimePower, RepKind, prepare, sample_composite, sample_prepared

A3 = [[2, 1, 0], [1, 4, 1], [0, 1, 6]]  # det 40: unimodular at 3 and 7
B3 = [[1, 1, 0], [1, 2, 1], [0, 1, 3]]  # det 2: a non-unit block at 2
MIXED = [[2, 1, 0], [1, 4, 0], [0, 0, 5]]  # a type II block and a type I at 2
# (form, p, j, t): targets of order 0, of a deep order, and zero
CASES = {
    "A3-3^60-j1": (A3, 3, 1, 7),
    "A3-3^60-j2-deep": (A3, 3, 2, 7 * 3**5),
    "A3-7^60-j1": (A3, 7, 1, 7),
    "B3-2^60-j2": (B3, 2, 2, 7),
    "B3-2^60-j3": (B3, 2, 3, 2**7 + 1),
    "B3-3^60-j1-zero": (B3, 3, 1, 0),
    "type2-2^60-j3-deep": (MIXED, 2, 3, 5 * 2**8),
}
# (form, ((p, j) by factor), t): each factor at k = 60
COMPOSITE_CASES = {
    "B3-2^60*3^60": (B3, ((2, 2), (3, 1)), 7),
    "A3-5^60*7^60": (A3, ((5, 1), (7, 1)), 7),
}
K = 60
DRAWS = 4000
COMPOSITE_DRAWS = 3000
HYPOTHESIS_DRAWS = 2000
ALPHA = 1e-6


def solutions(q_mat, p, k0, t):
    """Every x mod p^k0 with x'Qx = t mod p^k0, as rows: the solutions
    mod p^(i+1) are the lifts x + p^i d, d a digit vector, of those mod
    p^i that still solve."""
    n = len(q_mat)
    q = np.array(q_mat, dtype=np.int64)
    digits = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    sols = np.zeros((1, n), dtype=np.int64)
    for i in range(k0):
        cand = (sols[:, None, :] + p**i * digits[None, :, :]).reshape(-1, n)
        values = np.einsum("ij,jk,ik->i", cand, q, cand)
        sols = cand[(values - t) % p ** (i + 1) == 0]
    return sols


def projected(q_mat, p, j, k0, t, primitive=True):
    """The primitive solutions mod p^k0 (all of them when not primitive),
    counted by their class mod p^j."""
    sols = solutions(q_mat, p, k0, t)
    if primitive:
        sols = sols[(sols % p != 0).any(axis=1)]
    return Counter(map(tuple, (sols % p**j).tolist()))


def chi_square_p_value(observed, weights):
    """Upper-tail p-value of Pearson's statistic of the observed counts
    against shares proportional to weights, by the Wilson-Hilferty
    normal approximation."""
    n, w = sum(observed), sum(weights)
    stat = sum((o - n * x / w) ** 2 / (n * x / w) for o, x in zip(observed, weights))
    df = len(observed) - 1
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


def reference(q_mat, p, j, t, primitive=True):
    """The primitive solutions (all of them when not primitive) mod p^k0
    by class mod p^j, k0 = j (j + 3 at p = 2), and the classes c of unit
    half gradient Qc whose counts grow by p^(n-1) from k0 to k0 + 1,
    where the reference holds."""
    low_k0 = j if p > 2 else j + 3
    low, high = (projected(q_mat, p, j, k0, t, primitive) for k0 in (low_k0, low_k0 + 1))
    q = np.array(q_mat, dtype=np.int64)
    unit = [c for c in sorted(low) if (q @ np.array(c) % p).any()]
    return low, [c for c in unit if high[c] == p ** (len(q_mat) - 1) * low[c]]


def check_projection(draws, p, j, low, stable):
    """The draws mod p^j against the reference at its stable classes."""
    got = Counter(tuple(x % p**j for x in v) for v in draws)
    # a solution mod p^60 reduces to one mod p^k0: no draw outside the reference
    assert set(got) <= set(low), set(got) - set(low)
    inside = [got[c] for c in stable]
    assert len(stable) >= 2 and sum(inside) >= len(draws) // 2, (len(stable), len(low), sum(inside))
    pv = chi_square_p_value(inside, [low[c] for c in stable])
    assert pv >= ALPHA, (pv, len(stable))


@pytest.mark.parametrize("q_mat, p, j, t", CASES.values(), ids=CASES)
def test_deep_primitive_draws_follow_the_hensel_projection(q_mat, p, j, t):
    low, stable = reference(q_mat, p, j, t)
    form = prepare(q_mat, PrimePower(p, K))
    rng = random.Random(f"hensel:{p}:{j}:{t}")
    check_projection([sample_prepared(form, t, RepKind.PRIMITIVE, rng) for _ in range(DRAWS)], p, j, low, stable)


@pytest.mark.parametrize("q_mat, factors, t", COMPOSITE_CASES.values(), ids=COMPOSITE_CASES)
def test_deep_composite_draws_follow_the_hensel_projection_of_each_factor(q_mat, factors, t):
    # a primitive draw mod the product is primitive mod each factor, and
    # its residue mod each p^k is a uniform primitive solution there
    pps = [PrimePower(p, K) for p, _ in factors]
    rng = random.Random(f"hensel-crt:{'*'.join(map(str, pps))}:{t}")
    draws = [sample_composite(q_mat, pps, t, RepKind.PRIMITIVE, rng) for _ in range(COMPOSITE_DRAWS)]
    for p, j in factors:
        check_projection(draws, p, j, *reference(q_mat, p, j, t))


def depth(p, n):
    """The j of a drawn instance: the largest j <= 3 whose reference has
    at most 150 classes mod p^j and enumerates at most 3e5 candidates at
    its top level, or 1."""
    small = [j for j in (2, 3) if p ** (j * (n - 1)) <= 150 and p ** ((n - 1) * (j if p > 2 else j + 3) + n) <= 3e5]
    return max(small, default=1)


@st.composite
def hensel_instances(draw, p, kind):
    """(Q, j, t, k) mod p: Q = E'DE in n = 2 to 4 variables, D a direct
    sum of type I blocks (a unit, or p times one) and, at p = 2, type II
    blocks 2^l [[2a, b], [b, 2c]] with b odd, E a product of up to three
    integer shears; t = 0 or a unit times p^o, o <= 3 (o >= 2 for a
    non-primitive draw); and 3 + the top level of the reference <= k <= 60."""
    n = draw(st.integers(2, 4))
    d = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if p == 2 and i + 1 < n and draw(st.booleans()):
            scale, b = 2 ** draw(st.integers(0, 1)), 2 * draw(st.integers(0, 3)) + 1
            d[i][i], d[i + 1][i + 1] = 2 * scale * draw(st.integers(0, 3)), 2 * scale * draw(st.integers(0, 3))
            d[i][i + 1] = d[i + 1][i] = scale * b
            i += 2
        else:
            d[i][i] = draw(st.integers(1, 4 * p).filter(lambda v: v % p)) * p ** draw(st.sampled_from((0, 0, 1)))
            i += 1
    e = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        (r, c), m = draw(st.permutations(range(n)))[:2], draw(st.integers(-2, 2))
        e[r] = [x + m * y for x, y in zip(e[r], e[c])]
    q_mat = [[sum(e[a][r] * d[a][b] * e[b][c] for a in range(n) for b in range(n)) for c in range(n)] for r in range(n)]
    o = draw(st.sampled_from((None, 2, 3) if kind is RepKind.NONPRIMITIVE else (None, 0, 1, 2, 3)))
    t = 0 if o is None else draw(st.sampled_from((1, -1))) * draw(st.integers(1, p * p).filter(lambda v: v % p)) * p**o
    j = depth(p, n)
    return q_mat, j, t, draw(st.integers((j if p > 2 else j + 3) + 4, K))


@pytest.mark.parametrize("kind", [RepKind.ANY, RepKind.NONPRIMITIVE], ids=lambda kind: kind.value)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
def test_deep_draws_of_every_kind_follow_the_hensel_projection(p, kind, data):
    # a non-primitive draw p y is checked through y, against the reference
    # of y'Qy = t / p^2 over all its solutions
    q_mat, j, t, k = data.draw(hensel_instances(p, kind))
    nonprimitive = kind is RepKind.NONPRIMITIVE
    low, stable = reference(q_mat, p, j, t // p**2 if nonprimitive else t, False)
    weights = [low[c] for c in stable]
    # the premise leaves at least two classes, holding most of the law,
    # each expecting at least five draws
    assume(len(stable) >= 2 and sum(weights) >= 0.6 * sum(low.values()))
    assume(HYPOTHESIS_DRAWS * min(weights) >= 5 * sum(weights))
    form = prepare(q_mat, PrimePower(p, k))
    rng = random.Random(f"hensel:{q_mat}:{p}:{t}:{k}:{kind.value}")
    draws = [sample_prepared(form, t, kind, rng) for _ in range(HYPOTHESIS_DRAWS)]
    if nonprimitive:
        assert all(x % p == 0 for v in draws for x in v)
        draws = [tuple(x // p for x in v) for v in draws]
    check_projection(draws, p, j, low, stable)
