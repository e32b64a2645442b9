"""A global referee for local_density: Siegel's formula.

For a positive-definite integral form Q in n variables that is alone in
its genus, Siegel's formula (C. L. Siegel, "Über die analytische Theorie
der quadratischen Formen", Ann. of Math. 36, 1935) gives the number of
x in Z^n with x'Qx = t from the local densities:

    r_Q(t) = eps alpha_inf(t) prod over p of alpha_p(t),

with eps = 1/2 for n = 2 and 1 above, and alpha_inf(t) = pi^(n/2)
t^(n/2 - 1) / (Gamma(n/2) sqrt(det Q)).  Take n = 2 s even.  At every
p not dividing 2 t det Q, alpha_p(t) = 1 - chi(p) p^(-s), with chi the
Kronecker character of the fundamental discriminant D of (-1)^s det Q,
so the product over those p is 1 / L(s, chi) with the factors at the
p dividing 2 t det Q taken out.  As chi(-1) = (-1)^s,

    L(s, chi) = (-1)^(1 + floor(s / 2)) sqrt|D| / 2 (2 pi / |D|)^s B_(s, chi) / s!,

with B_(s, chi) the generalized Bernoulli number, and the powers of pi
cancel, leaving a rational number times sqrt(det Q |D|), an integer.
local_density supplies alpha_p at the p dividing 2 t det Q.  Nothing
here shares code with the library but local_density itself.

Each form's one-class premise is checked by counting its lattice points
of norm t by enumeration for small t; where a closed form of r_Q(t) is
classical (divisor sums), the prediction is also compared with it at
larger t, on the form after a unimodular change of basis.
"""

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod import local_density


def det(q_mat):
    """The determinant, by elimination over the rationals."""
    a, value = [[Fraction(v) for v in row] for row in q_mat], Fraction(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot], value = a[pivot], a[i], -value
        value *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return int(value)


def divisors(t):
    return [d for d in range(1, t + 1) if t % d == 0]


def prime_factors(m):
    """The primes dividing m > 0, by trial division."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + ([m] if m > 1 else [])


def kronecker(d, m):
    """The Kronecker symbol (d / m) for m > 0."""
    value = 1
    for p in prime_factors(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if p == 2:
            chi = 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
        else:
            r = pow(d % p, (p - 1) // 2, p)
            chi = 0 if r == 0 else 1 if r == 1 else -1
        value *= chi**e
    return value


def fundamental(d):
    """The fundamental discriminant of the square class of d != 0."""
    core, sign, d = 1, 1 if d > 0 else -1, abs(d)
    for p in prime_factors(d):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        core *= p ** (e % 2)
    core *= sign
    return core if core % 4 == 1 else 4 * core


@cache
def bernoulli(m):
    """B_m, with B_1 = -1/2, from sum over j <= m of C(m + 1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def bernoulli_poly(m, x):
    return sum(math.comb(m, j) * bernoulli(j) * x ** (m - j) for j in range(m + 1))


def bernoulli_char(m, d):
    """The generalized Bernoulli number B_(m, chi) of chi = (d / .), d a
    fundamental discriminant of conductor f = |d|:
    f^(m - 1) times the sum over a = 1..f of chi(a) B_m(a / f)."""
    f = abs(d)
    return f ** (m - 1) * sum(kronecker(d, a) * bernoulli_poly(m, Fraction(a, f)) for a in range(1, f + 1))


def siegel_count(q_mat, t):
    """r_Q(t) by Siegel's formula, for Q positive definite, alone in its
    genus, in an even number n = 2 s of variables."""
    n = len(q_mat)
    s, dq = n // 2, det(q_mat)
    d = fundamental((-1) ** s * dq)
    root = math.isqrt(dq * abs(d))
    assert root * root == dq * abs(d)
    # alpha_inf(t) / L(s, chi): the powers of pi cancel, and Gamma(s) = (s - 1)!
    value = Fraction((-1) ** (1 + s // 2) * 2 * s * t ** (s - 1) * abs(d) ** s, 2**s * root) / bernoulli_char(s, d)
    for p in prime_factors(2 * t * dq):
        value *= local_density(q_mat, p, t) / (1 - Fraction(kronecker(d, p), p**s))
    return value / 2 if n == 2 else value


def lattice_counts(q_mat, top):
    """r_Q(t) for t = 0..top, by enumerating the x with x'Qx <= top
    (Fincke and Pohst): x'Qx = sum over i of a_ii (x_i + sum over j > i
    of a_ij x_j)^2, so each coordinate, the last first, ranges over an
    interval set by what the later ones leave of the bound."""
    n = len(q_mat)
    a = [[float(v) for v in row] for row in q_mat]
    for i in range(n):
        for j in range(i + 1, n):
            a[j][i], a[i][j] = a[i][j], a[i][j] / a[i][i]
        for k in range(i + 1, n):
            for m in range(k, n):
                a[k][m] -= a[k][i] * a[i][m]
    counts, x = [0] * (top + 1), [0] * n

    def walk(i, left):
        if i < 0:
            counts[round(top - left)] += 1
            return
        c = -sum(a[i][j] * x[j] for j in range(i + 1, n))
        r = math.sqrt(max(left, 0.0) / a[i][i]) + 1e-9
        for xi in range(math.ceil(c - r), math.floor(c + r) + 1):
            x[i] = xi
            walk(i - 1, left - a[i][i] * (xi - c) ** 2)
        x[i] = 0

    walk(n - 1, top + 1e-9)
    return counts


def chi_sum(d, t):
    """The sum over the divisors e of t of (d / e)."""
    return sum(kronecker(d, e) for e in divisors(t))


# Gram matrices of root lattices (their Cartan matrices)
E8 = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E6 = [
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, -1],
    [0, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 2],
]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def sigma(t, k=1):
    return sum(d**k for d in divisors(t))


# name: (Q, the largest t counted by enumeration, r_Q(t) in closed form or None)
FORMS = {
    # square discriminants
    "I4": (identity(4), 24, lambda t: 8 * sigma(t) - (32 * sigma(t // 4) if t % 4 == 0 else 0)),
    "I8": (identity(8), 8, lambda t: 16 * sum((-1) ** (t + d) * d**3 for d in divisors(t))),
    "E8": (E8, 8, lambda t: 240 * sigma(t // 2, 3) if t % 2 == 0 else 0),
    "D4": (D4, 24, lambda t: 24 * sum(d for d in divisors(t // 2) if d % 2) if t % 2 == 0 else 0),
    # non-square discriminants: -4, -3, -8, 5 and -3
    "I2": (identity(2), 60, lambda t: 4 * chi_sum(-4, t)),
    "A2": ([[2, 1], [1, 2]], 60, lambda t: 6 * chi_sum(-3, t // 2) if t % 2 == 0 else 0),
    "x2+2y2": ([[1, 0], [0, 2]], 60, lambda t: 2 * chi_sum(-8, t)),
    "A4": (A4, 20, None),
    "E6": (E6, 10, None),
}


@pytest.mark.parametrize("q_mat, top, closed", FORMS.values(), ids=FORMS)
def test_siegel_formula_counts_the_lattice_points(q_mat, top, closed):
    # the premise: every form is alone in its genus, so Siegel's product
    # of local densities is its lattice count at every t, checked here by
    # enumeration, and so is the classical closed form where there is one
    counts = lattice_counts(q_mat, top)
    for t in range(1, top + 1):
        assert siegel_count(q_mat, t) == counts[t], t
        if closed:
            assert closed(t) == counts[t], t


def unimodular(draw, n):
    """A product of integer shears: row i += c row j, i != j."""
    e = identity(n)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.integers(-3, 3))
        e[i] = [x + c * y for x, y in zip(e[i], e[j])]
    return e


@st.composite
def siegel_instances(draw):
    """(E'QE, t, closed form of r_Q(t)) for a form Q of FORMS with a
    closed form, E unimodular, and 1 <= t <= 2000."""
    q_mat, _, closed = FORMS[draw(st.sampled_from([name for name, f in FORMS.items() if f[2]]))]
    n = len(q_mat)
    e = unimodular(draw, n)
    qe = [[sum(e[a][i] * q_mat[a][b] * e[b][j] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]
    return qe, draw(st.integers(1, 2000)), closed


@given(siegel_instances())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_siegel_formula_matches_the_closed_forms(inst):
    # the local densities of a form after a change of basis, at targets
    # of every order at the primes of 2 t det Q, against a divisor sum
    q_mat, t, closed = inst
    assert siegel_count(q_mat, t) == closed(t), (q_mat, t)
