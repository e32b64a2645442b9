"""A uniformity referee for draws at deep moduli, by Hensel projection.

At k = 60 the oracle cannot enumerate the solutions of x'Qx = t mod p^k,
so the law of the draws is checked through x mod p^j for a small j.  A
solution class c mod p^j at which the gradient of x'Qx is a unit has
the same number of lifts, p^(n-1) per level, to every level above the
one where that starts.  So over such classes, the law of x mod p^j
under uniform primitive draws at k = 60 is the law of x mod p^j over
the primitive solutions at a small level k0, which this module
enumerates level by level with numpy.  The premise is checked, not
assumed: each reference is enumerated at two small levels (k0 = j + 1
and j + 2 for odd p, j + 3 and j + 4 for p = 2) and used only at the
classes whose counts grow by p^(n-1) between them.  Nothing here shares
code with the count tables or the chain walk.

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


def projected(q_mat, p, j, k0, t):
    """The primitive solutions mod p^k0, counted by their class mod p^j."""
    sols = solutions(q_mat, p, k0, t)
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


def reference(q_mat, p, j, t):
    """The primitive solutions mod p^k0 by class mod p^j, k0 = j + 1
    (j + 3 at p = 2), and the classes whose counts grow by p^(n-1) from
    k0 to k0 + 1, where the reference holds."""
    low_k0 = j + 1 if p > 2 else j + 3
    low, high = (projected(q_mat, p, j, k0, t) for k0 in (low_k0, low_k0 + 1))
    return low, [c for c in sorted(low) if high[c] == p ** (len(q_mat) - 1) * low[c]]


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
