"""A symmetry referee for the top digits of deep draws.

A projection mod p^j (test_hensel) cannot see a draw's top digits.  For
a diagonal form, negating one coordinate maps the solutions of x'Dx = t
one to one onto themselves, and keeps each solution's class, primitive
or not.  So under the uniform law the draws with x_i != 0 (and, for
p = 2, x_i != q/2, the one other value that negation fixes) fall below
q/2 and above it equally often: Binomial(N, 1/2) for each coordinate i.
The check reads nothing but the drawn vectors.
"""

import math
import random

import pytest

from quadmod import PrimePower, RepKind, prepare, sample_prepared

# (diagonal, p^k, t, kind, draws): unit and scaled blocks, each with a
# target that leaves the last block a unit target most of the time
CASES = {
    "3^60": ([1, 2, 7], PrimePower(3, 60), 5, RepKind.ANY, 2000),
    "5^60": ([1, 3 * 5, 2], PrimePower(5, 60), 3, RepKind.PRIMITIVE, 2000),
    "7^60": ([3, 1], PrimePower(7, 60), 1, RepKind.ANY, 2000),
    "2^60": ([1, 3, 5, 7], PrimePower(2, 60), 7, RepKind.ANY, 2000),
}


def two_sided_binomial(low: int, high: int) -> float:
    """P(|X - m/2| >= |low - m/2|) for X ~ Binomial(m, 1/2), m = low + high."""
    m = low + high
    tail = sum(math.comb(m, j) for j in range(min(low, high) + 1))
    return min(1.0, 2 * tail / 2**m)


@pytest.mark.parametrize("diagonal, pp, t, kind, draws", CASES.values(), ids=CASES)
def test_each_coordinate_is_as_often_above_half_the_modulus_as_below(diagonal, pp, t, kind, draws):
    n = len(diagonal)
    form = prepare([[d if i == j else 0 for j in range(n)] for i, d in enumerate(diagonal)], pp)
    rng = random.Random(f"top digits {pp}")
    low, high = [0] * n, [0] * n
    for _ in range(draws):
        x = sample_prepared(form, t, kind, rng)
        assert sum(d * v * v for d, v in zip(diagonal, x)) % pp.q == t
        for i, v in enumerate(x):
            if 0 < 2 * v < pp.q:
                low[i] += 1
            elif 2 * v > pp.q:
                high[i] += 1
    for i in range(n):
        assert low[i] + high[i] > draws // 2, (i, low, high)
        assert two_sided_binomial(low[i], high[i]) > 1e-6, (i, low, high)
