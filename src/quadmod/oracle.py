"""Brute-force enumeration and uniformity testing.

This module is the referee: nothing here shares logic with the
counting or sampling code.  Solutions are found by exhausting the
whole cube (Z/m)^n with vectorized arithmetic, and empirical sampling
distributions are judged with an exact-rational Pearson chi-square
statistic against embedded critical values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .counting import RepCounts
from .modring import DomainError, PrimePower

DEFAULT_BUDGET = 2**24


class BudgetExceeded(DomainError):
    """The enumeration cube is larger than the configured budget."""


class InsufficientSamples(DomainError):
    """Fewer than 5 observations per support cell."""


# Upper 0.001 quantiles of the chi-square distribution; index df-1,
# df = 1..255.  Fixed table so the referee has no runtime dependency on
# a stats package.
CHI2_CRIT_001 = (
    10.8276, 13.8155, 16.2662, 18.4668, 20.5150, 22.4577, 24.3219, 26.1245,
    27.8772, 29.5883, 31.2641, 32.9095, 34.5282, 36.1233, 37.6973, 39.2524,
    40.7902, 42.3124, 43.8202, 45.3147, 46.7970, 48.2679, 49.7282, 51.1786,
    52.6197, 54.0520, 55.4760, 56.8923, 58.3012, 59.7031, 61.0983, 62.4872,
    63.8701, 65.2472, 66.6188, 67.9852, 69.3465, 70.7029, 72.0547, 73.4020,
    74.7449, 76.0838, 77.4186, 78.7495, 80.0767, 81.4003, 82.7204, 84.0371,
    85.3506, 86.6608, 87.9680, 89.2722, 90.5734, 91.8718, 93.1675, 94.4605,
    95.7510, 97.0388, 98.3242, 99.6072, 100.8879, 102.1662, 103.4424, 104.7163,
    105.9881, 107.2579, 108.5256, 109.7913, 111.0551, 112.3169, 113.5769, 114.8351,
    116.0915, 117.3462, 118.5991, 119.8503, 121.1000, 122.3480, 123.5944, 124.8392,
    126.0826, 127.3244, 128.5648, 129.8037, 131.0412, 132.2773, 133.5121, 134.7455,
    135.9776, 137.2084, 138.4379, 139.6661, 140.8931, 142.1189, 143.3435, 144.5670,
    145.7892, 147.0104, 148.2304, 149.4493, 150.6671, 151.8838, 153.0995, 154.3141,
    155.5277, 156.7403, 157.9518, 159.1624, 160.3721, 161.5807, 162.7885, 163.9953,
    165.2011, 166.4061, 167.6102, 168.8133, 170.0156, 171.2171, 172.4177, 173.6174,
    174.8164, 176.0145, 177.2118, 178.4083, 179.6040, 180.7989, 181.9930, 183.1864,
    184.3791, 185.5710, 186.7621, 187.9526, 189.1423, 190.3313, 191.5196, 192.7072,
    193.8941, 195.0803, 196.2659, 197.4508, 198.6350, 199.8186, 201.0015, 202.1838,
    203.3655, 204.5465, 205.7270, 206.9068, 208.0860, 209.2646, 210.4426, 211.6200,
    212.7969, 213.9732, 215.1489, 216.3240, 217.4986, 218.6726, 219.8460, 221.0190,
    222.1914, 223.3632, 224.5345, 225.7053, 226.8756, 228.0454, 229.2146, 230.3834,
    231.5516, 232.7194, 233.8866, 235.0534, 236.2197, 237.3855, 238.5508, 239.7157,
    240.8801, 242.0440, 243.2075, 244.3705, 245.5330, 246.6951, 247.8568, 249.0180,
    250.1788, 251.3392, 252.4991, 253.6586, 254.8177, 255.9763, 257.1346, 258.2924,
    259.4498, 260.6068, 261.7634, 262.9197, 264.0755, 265.2309, 266.3859, 267.5405,
    268.6948, 269.8486, 271.0021, 272.1552, 273.3080, 274.4603, 275.6123, 276.7639,
    277.9152, 279.0661, 280.2166, 281.3668, 282.5167, 283.6661, 284.8153, 285.9640,
    287.1125, 288.2606, 289.4084, 290.5558, 291.7029, 292.8496, 293.9961, 295.1422,
    296.2879, 297.4334, 298.5785, 299.7233, 300.8678, 302.0120, 303.1559, 304.2994,
    305.4427, 306.5856, 307.7282, 308.8706, 310.0126, 311.1543, 312.2958, 313.4369,
    314.5777, 315.7183, 316.8586, 317.9985, 319.1382, 320.2776, 321.4168, 322.5556,
    323.6942, 324.8324, 325.9704, 327.1082, 328.2456, 329.3828, 330.5197,)


def _value_grid(q_mat, m: int, step: int = 1) -> np.ndarray:
    """x'Qx mod m for every x in the sublattice (step*Z/m)^n, as an
    n-dimensional array indexed by x/step."""
    n = len(q_mat)
    side = m // step
    vals = np.zeros((side,) * n, dtype=np.int64)
    coords = np.arange(side, dtype=np.int64) * step
    for i in range(n):
        shape = [1] * n
        shape[i] = side
        xi = coords.reshape(shape)
        vals += (q_mat[i][i] % m) * ((xi * xi) % m)
        for j in range(i + 1, n):
            shape_j = [1] * n
            shape_j[j] = side
            xj = coords.reshape(shape_j)
            vals += (2 * q_mat[i][j] % m) * ((xi * xj) % m)
    vals %= m
    return vals


def value_histogram(q_mat, m: int, step: int = 1, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Histogram over t of |{x in (step*Z/m)^n : x'Qx = t mod m}|."""
    n = len(q_mat)
    if (m // step) ** n > budget:
        raise BudgetExceeded("(m/step)^n exceeds the budget")
    vals = _value_grid(q_mat, m, step)
    return np.bincount(vals.ravel(), minlength=m)


def solutions_mod(q_mat, m: int, t: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All x in (Z/m)^n with x'Qx = t mod m, in odometer (lexicographic) order."""
    n = len(q_mat)
    if m**n > budget:
        raise BudgetExceeded("m^n exceeds the budget")
    vals = _value_grid(q_mat, m)
    hits = np.argwhere(vals == t % m)
    return [tuple(int(c) for c in row) for row in hits]


def enumerate_reps(
    q_mat, pp: PrimePower, t: int, budget: int = DEFAULT_BUDGET
) -> tuple[list[tuple[int, ...]], RepCounts]:
    """All solutions mod p^k, partitioned by primitivity (a component unit)."""
    sols = solutions_mod(q_mat, pp.q, t, budget)
    prim = sum(1 for v in sols if any(c % pp.p for c in v))
    return sols, RepCounts(len(sols), prim, len(sols) - prim)


def histogram_counts(q_mat, pp: PrimePower, budget: int = DEFAULT_BUDGET) -> list[RepCounts]:
    """RepCounts for every target t mod p^k at once (vectorized exhaustion).

    Non-primitive vectors are exactly the sublattice p*(Z/p^k)^n, so
    their histogram comes from a second, much smaller exhaustion.
    """
    q = pp.q
    totals = value_histogram(q_mat, q, 1, budget)
    sub = value_histogram(q_mat, q, pp.p, budget)
    return [RepCounts(int(a), int(a) - int(c), int(c)) for a, c in zip(totals, sub)]


def nonprimitive_composite(v: Iterable[int], q: int) -> bool:
    """Non-primitive mod q: some prime divisor of q divides every component."""
    return gcd(q, *v) != 1 if q > 1 else False


def chi_square_uniform(
    observed: Sequence[int], expected_support_size: int
) -> tuple[Fraction, bool]:
    """Pearson statistic of a histogram against the uniform law, with a
    pass verdict at significance 0.001.

    `observed` lists per-cell counts; cells beyond len(observed) are
    zeros.  The statistic is exact; the verdict compares it to the
    critical value at support-1 degrees of freedom.
    """
    s = expected_support_size
    if s < 1:
        raise DomainError("support must be non-empty")
    if len(observed) > s:
        raise DomainError("more cells than the declared support")
    n_obs = sum(observed)
    if n_obs < 5 * s:
        raise InsufficientSamples(f"need >= {5 * s} observations, got {n_obs}")
    if s == 1:
        return Fraction(0), True
    if s - 1 > len(CHI2_CRIT_001):
        raise DomainError(f"no critical value for {s - 1} degrees of freedom")
    expect = Fraction(n_obs, s)
    stat = sum((Fraction(int(o)) - expect) ** 2 for o in observed) / expect
    stat += (s - len(observed)) * expect  # empty tail cells contribute E each
    return stat, stat < CHI2_CRIT_001[s - 2]
