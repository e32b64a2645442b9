"""A referee for counts past the oracle's reach, from the closed forms
of the quadratic Gauss sums, sharing no code with quadmod.gauss.

N_k(t) = #{x mod p^k : x'Qx = t} is p^-k times the sum over a mod p^k
of e(-a t / p^k) prod_i G_i(a, p^k), with e(x) = exp(2 pi i x) and
G_i(a, p^k) the sum of e(a x'B_i x / p^k) over x mod p^k for the i-th
block B_i of a diagonal form D.  Grouping a by its order,

    N_k(t) = p^-k sum over j = 0..k of p^(n (k - j)) T_j,
    T_j = sum over the units a mod p^j of e(-a t / p^j) prod_i G_i(a, p^j).

Each G_i(a, p^j) is written here from the classical evaluations
(Ireland & Rosen, A Classical Introduction to Modern Number Theory,
ch. 6; Berndt, Evans & Williams, Gauss and Jacobi Sums, ch. 1), block
by block, and multiplied out exactly: at odd p in Z[g], g the Gauss sum
mod p with g^2 = (-1/p) p, and at p = 2 in Z[zeta], zeta = e(1/8).  The
sum over the units a reads the product only through a mod p (odd p) or
a mod 8 (p = 2), so it runs over those classes, each class summing its
e(-a t / p^j) in closed form: a Ramanujan sum, or the Gauss sum g
twisted by (-t/p).  Every T_j must come out rational, and the total a
multiple of p^k; the referee asserts both.

The forms under test are Q = E'DE with E a product of integer shears,
so the library sees a dense Q where the referee sees D.
"""

import cmath
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmod import PrimePower, SingularForm, ZeroTarget, count_form, local_density, prepare

P127 = 2**127 - 1
K = 60


def order(x, p):
    """The largest e with p^e | x, for x != 0."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def euler(a, p):
    """The Legendre symbol (a/p) by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else 1 if r == 1 else -1


# --- odd p: Z[g], g^2 = eps p --------------------------------------------


def g_mul(x, y, p):
    """(x0 + x1 g)(y0 + y1 g) with g^2 = (-1/p) p."""
    eps_p = p if p % 4 == 1 else -p
    return x[0] * y[0] + x[1] * y[1] * eps_p, x[0] * y[1] + x[1] * y[0]


def gauss_sum_odd(block, p, j):
    """G(a d, p^j) of the block d x^2 for the units a, as (alpha,
    sigma): alpha (a/p)^sigma with alpha in Z[g].  With d = p^e u:
    p^j when p^j | d, else p^e G(a u, p^m), m = j - e, where G(c, p^m)
    is p^(m/2) for even m and (c/p) p^((m-1)/2) g for odd m."""
    (d,) = block
    if d % p**j == 0:
        return (p**j, 0), 0
    e = order(d, p)
    m = j - e
    if m % 2 == 0:
        return (p ** (e + m // 2), 0), 0
    return (0, euler(d // p**e, p) * p ** (e + m // 2)), 1


def unit_sum_odd(t, p, j, sigma):
    """The sum over the units a mod p^j of e(-a t / p^j) (a/p)^sigma,
    in Z[g].  Each class a = c mod p holds p^(j-1) units, whose
    e(-a t / p^j) sum to p^(j-1) e(-c t' / p) when t = p^(j-1) t', and
    to 0 when p^(j-1) does not divide t.  Over c, the Ramanujan sum is
    p - 1 or -1 as p | t' or not, and the sum twisted by (c/p) is
    (-t'/p) g."""
    if t % p ** (j - 1):
        return 0, 0
    t1 = t // p ** (j - 1)
    if sigma == 0:
        return p ** (j - 1) * (p - 1 if t1 % p == 0 else -1), 0
    return 0, p ** (j - 1) * euler(-t1, p)


def fourier_term_odd(blocks, p, j, t):
    if t % p ** (j - 1):
        return 0  # every unit sum is 0
    alpha, sigma = (1, 0), 0
    for block in blocks:
        a, s = gauss_sum_odd(block, p, j)
        alpha, sigma = g_mul(alpha, a, p), sigma + s
    term = g_mul(alpha, unit_sum_odd(t, p, j, sigma % 2), p)
    assert term[1] == 0, (blocks, p, j, t, term)
    return term[0]


# --- p = 2: Z[zeta], zeta = e(1/8), zeta^4 = -1 ---------------------------


def z_mul(x, y):
    out = [0, 0, 0, 0]
    for i, a in enumerate(x):
        if a:
            for m, b in enumerate(y):
                if i + m < 4:
                    out[i + m] += a * b
                else:
                    out[i + m - 4] -= a * b
    return tuple(out)


def z_power(r):
    """zeta^r."""
    r %= 8
    out = [0, 0, 0, 0]
    out[r % 4] = 1 if r < 4 else -1
    return tuple(out)


def z_scale(x, c):
    return tuple(c * a for a in x)


SQRT2 = (0, 1, 0, -1)  # zeta + zeta^7


def gauss_sum_two(block, a, j):
    """G(a, 2^j) of the block, a odd, in Z[zeta].  A block d x^2 with
    d = 2^e u gives 2^j when 2^j | d, else 2^e G(a u, 2^m), m = j - e,
    with G(c, 2) = 0 and, for m >= 2, G(c, 2^m) = (2/c)^m (1 + i^c)
    2^(m/2).  A block 2^l [[2a', b], [b, 2c']], b odd, is 2^(l+1) times
    a binary form of odd middle coefficient, equivalent over the 2-adic
    integers to x y when a' c' is even and to x^2 + x y + y^2 when odd;
    the sum of e(c q(x, y) / 2^m) over x, y mod 2^m is 2^m for x y and
    (-2)^m for x^2 + x y + y^2, at every odd c.  So it gives 4^j when
    l + 1 >= j, and else 4^(l+1) 2^m (-1)^(m a' c'), m = j - l - 1."""
    if len(block) == 1:
        (d,) = block
        if d % 2**j == 0:
            return z_scale((1, 0, 0, 0), 2**j)
        e = order(d, 2)
        m, c = j - e, a * (d >> e) % 8
        if m == 1:
            return 0, 0, 0, 0
        jacobi = 1 if c in (1, 7) or m % 2 == 0 else -1
        value = z_scale((1, 0, 1 if c % 4 == 1 else -1, 0), jacobi * 2 ** (e + m // 2))
        return z_mul(value, SQRT2) if m % 2 else value
    ell, a2, _, c2 = block
    if ell + 1 >= j:
        return z_scale((1, 0, 0, 0), 4**j)
    m = j - ell - 1
    return z_scale((1, 0, 0, 0), 4 ** (ell + 1) * 2**m * (-1) ** (m * a2 * c2))


def fourier_term_two(blocks, j, t):
    """T_j at p = 2: the units a mod 2^j fall into 2^(j-h) of each class
    mod 2^h, h = min(j, 3), which fixes every G(a, 2^j), and the class
    of a = c sums e(-a t / 2^j) to 2^(j-h) zeta^(-c t' 8 / 2^h) when
    t = 2^(j-h) t', else to 0."""
    h = min(j, 3)
    if t % 2 ** (j - h):
        return 0
    t1 = t >> (j - h)
    total = (0, 0, 0, 0)
    for c in range(1, 2**h, 2):
        prod = z_power(-c * t1 * (8 >> h))
        for block in blocks:
            prod = z_mul(prod, gauss_sum_two(block, c, j))
        total = tuple(x + y for x, y in zip(total, prod))
    assert total[1:] == (0, 0, 0), (blocks, j, t, total)
    return total[0] << (j - h)


def dim(block):
    return 1 if len(block) == 1 else 2


def referee_count(blocks, p, k, t):
    """N_k(t) of the direct sum of the blocks: (d,) for d x^2, and
    (l, a, b, c) for 2^l [[2a, b], [b, 2c]] at p = 2."""
    n = sum(dim(block) for block in blocks)
    t %= p**k
    total = p ** (n * k)  # T_0 = 1
    for j in range(1, k + 1):
        if term := fourier_term_two(blocks, j, t) if p == 2 else fourier_term_odd(blocks, p, j, t):
            total += p ** (n * (k - j)) * term
    count, rest = divmod(total, p**k)
    assert rest == 0 and count >= 0, (blocks, p, k, t)
    return count


def referee_counts(blocks, p, k, t):
    """(total, non-primitive): a non-primitive x is p y, whose value is
    p^2 y'Dy, so there are p^n N_(k-2)(t / p^2) of them when p^2 | t,
    none when not, and at k = 1 the one x = 0 when p | t."""
    n = sum(dim(block) for block in blocks)
    if k == 1:
        nprim = int(t % p == 0)
    else:
        nprim = 0 if t % p**2 else p**n * referee_count(blocks, p, k - 2, t // p**2)
    return referee_count(blocks, p, k, t), nprim


# --- the forms ------------------------------------------------------------


def block_matrix(blocks):
    n = sum(dim(block) for block in blocks)
    q, i = [[0] * n for _ in range(n)], 0
    for block in blocks:
        if len(block) == 1:
            q[i][i] = block[0]
            i += 1
        else:
            ell, a, b, c = block
            q[i][i], q[i][i + 1], q[i + 1][i], q[i + 1][i + 1] = (2**ell * x for x in (2 * a, b, b, 2 * c))
            i += 2
    return q


def sheared(q, shears):
    """E'QE for E the product of the shears (i, j, c): column i += c
    column j, then row i += c row j."""
    q = [row[:] for row in q]
    for i, j, c in shears:
        for row in q:
            row[i] += c * row[j]
        q[i] = [x + c * y for x, y in zip(q[i], q[j])]
    return q


@st.composite
def sheared_forms(draw):
    """(blocks, Q, p, t): D a direct sum of blocks at p in {2, 3, P127},
    d = 0, a unit, or p^e times a unit with e <= k + 1, and at p = 2
    type II blocks of every scale and parity, in n variables, up to 64
    at 2 and 3 and up to 12 at P127 (where the referee's products grow
    fastest); Q = E'DE with E a product of up to
    n + 2 shears; t = 0 or a unit times +-p^o, o <= k + 1."""
    p = draw(st.sampled_from((2, 3, P127)))
    n = draw(st.one_of(st.integers(1, 6), st.integers(1, 12 if p == P127 else 64)))
    unit = st.integers(1, 10**6).filter(lambda u: u % p)
    blocks, size = [], 0
    while size < n:
        kinds = ["zero", "unit", "scaled"] + (["type2"] if p == 2 and n - size >= 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "type2":
            ell, a, c = draw(st.integers(0, K)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
            blocks.append((ell, a, 2 * draw(st.integers(0, 7)) + 1, c))
        elif kind == "zero":
            blocks.append((0,))
        else:
            e = 0 if kind == "unit" else draw(st.one_of(st.integers(1, 3), st.integers(1, K + 1)))
            blocks.append((draw(st.sampled_from((1, -1))) * draw(unit) * p**e,))
        size += dim(blocks[-1])
    shears = []
    for _ in range(draw(st.integers(0, n + 2)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        shears.append((i, j + (j >= i), draw(st.integers(-3, 3))))
    sign = draw(st.sampled_from((1, -1)))
    t = draw(st.one_of(st.just(0), st.builds(lambda u, o: sign * u * p**o, unit, st.integers(0, K + 1))))
    return blocks, sheared(block_matrix(blocks), shears), p, t


def determinant(blocks):
    det = 1
    for block in blocks:
        det *= block[0] if len(block) == 1 else 4**block[0] * (4 * block[1] * block[3] - block[2] ** 2)
    return det


def wide_form(p, n, t):
    """n blocks at p, a unit, a scaled, a zero and a deep one in turn,
    under a shear of every coordinate."""
    cycle = [(5,), (7 * p,), (0,), (-11 * p**40,)]
    blocks = [cycle[i % 4] for i in range(n)]
    shears = [(i, (i + 1) % n, 1 + i % 2) for i in range(n)]
    return blocks, sheared(block_matrix(blocks), shears), p, t


@given(sheared_forms())
@example(wide_form(2, 64, 0))
@example(wide_form(3, 64, 5 * 3**2))
@example(wide_form(P127, 64, 7))
@example(wide_form(P127, 12, 0))
@example(([(1,), (0, 1, 1, 1), (2, 0, 3, 2)], sheared(block_matrix([(1,), (0, 1, 1, 1), (2, 0, 3, 2)]), [(0, 1, 2), (2, 4, -1)]), 2, 3 * 2**7))
@example(([(3,), (0,)], [[3, 3], [3, 3]], 3, 0))
@settings(max_examples=150, deadline=None)
def test_counts_equal_the_closed_form_gauss_sums(inst):
    # count_form, which counts at t's stable level and scales up, and the
    # prepared count at level k against the referee's closed forms
    blocks, q, p, t = inst
    pp = PrimePower(p, K)
    total, nprim = referee_counts(blocks, p, K, t)
    got = count_form(q, pp, t)
    assert (got.total, got.nonprimitive) == (total, nprim), (blocks, p, t)
    assert prepare(q, pp).count(t) == got, (blocks, p, t)
    det = determinant(blocks)
    if det == 0 or t == 0:
        with pytest.raises(SingularForm if det == 0 else ZeroTarget):
            local_density(q, p, t)
        return
    # the local density at the stabilizing level s = 1 + ord_p(8 t det Q)
    s = 1 + order(8 * t * det, p)
    n = len(q)
    want = Fraction(referee_count(blocks, p, s, t), p ** (s * (n - 1)))
    assert local_density(q, p, t) == want, (blocks, p, t, s)


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 2), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)])
def test_the_closed_forms_are_the_exponential_sums(p, m):
    # the referee's own check: each closed form, at every unit multiplier
    # class, equals its exponential sum summed term by term in floats
    def e(x):
        return cmath.exp(2j * cmath.pi * x)

    q = p**m
    blocks = [(u * p**i,) for i in range(m + 1) for u in ((1, 3, 5, 7) if p == 2 else (1, 2))]
    if p == 2:
        blocks += [(ell, a, 1, c) for ell in range(m) for a in (0, 1) for c in (0, 1)]
    g = sum(e(x * x / p) for x in range(p))
    zeta = e(1 / 8)
    for block in blocks:
        for a in range(1, q):
            if a % p == 0:
                continue
            if len(block) == 1:
                want = sum(e(a * block[0] * x * x / q) for x in range(q))
            else:
                ell, a2, b, c2 = block
                want = sum(e(a * 2**ell * (2 * a2 * x * x + 2 * b * x * y + 2 * c2 * y * y) / q) for x in range(q) for y in range(q))
            if p == 2:
                got = sum(c * zeta**i for i, c in enumerate(gauss_sum_two(block, a, m)))
            else:
                (alpha, sigma) = gauss_sum_odd(block, p, m)
                got = (alpha[0] + alpha[1] * g) * euler(a, p) ** sigma
            assert abs(got - want) < 1e-6, (block, a, got, want)
    # and, at odd p, the class sums over the units a mod p^j
    for j in range(1, m + 1 if p != 2 else 0):
        for t in range(q):
            for sigma in (0, 1):
                want = sum(e(-a * t / p**j) * euler(a, p) ** sigma for a in range(1, p**j) if a % p)
                x, y = unit_sum_odd(t, p, j, sigma)
                assert abs(x + y * g - want) < 1e-6, (j, t, sigma)
