"""Solution counts of x'Qx = t mod p^k from the quadratic Gauss sums of
the blocks of Q.

The blocks are the 1x1 blocks d and, for p = 2, the 2x2 blocks
2^l [[2a, b], [b, 2c]] with b odd.  N_k(t) = #{x mod p^k : x'Qx = t}
follows from the finite Fourier identity

    N_k(t) = p^(-k) sum over j = 0..k of p^(n (k - j)) T_j,
    T_j = sum over a in (Z/p^j)^x of e(-a t / p^j) prod_i G_i(a, p^j),

with n variables, e(x) = exp(2 pi i x), T_0 = 1, and G_i(a, p^j) the
quadratic Gauss sum of block i, the sum of e(a x'B_i x / p^j) over
x mod p^j.  Those sums have closed forms (Ireland & Rosen, A Classical
Introduction to Modern Number Theory, ch. 6), so T_j depends on the
blocks only through tallies of their orders and unit classes
(block_tallies); _fourier_odd and _fourier_two give the terms.  The
Gauss sums read a only modulo p (odd p) or 8 (p = 2), and e(-a t / p^j)
summed over the units a of one such class is 0 unless p^(j-1) (odd p)
or 2^(j-3) (p = 2) divides t.  So every T_j with j above
ord t + 1 + 2 [p = 2] vanishes, and solutions sums only the terms below.
The count is an integer, so a sum that p^k does not divide raises
ArithmeticError rather than round.
"""

from __future__ import annotations

from collections import Counter

from .blockdiag import Block, TypeI
from .modring import PrimePower, legendre, valuation
from .symbols import Ordinal

# A form's blocks as its Gauss sums read them: (order, unit class,
# number of blocks) for the type I blocks p^e u, and (l, a c mod 2,
# number of blocks) for the type II blocks.  For p = 2 the class is
# u mod 8, one entry per order and class; for odd p it is the Legendre
# symbol of the product of the units of one order, one entry per order,
# as the Gauss sums read those units only through that product.  A
# block d = 0 mod p^k has order INF and class 0.
Tallies = tuple[tuple[tuple[Ordinal, int, int], ...], tuple[tuple[int, int, int], ...]]


def block_tallies(blocks: tuple[Block, ...], pp: PrimePower) -> Tallies:
    """The blocks' Tallies mod p^k."""
    p = pp.p
    type1: dict = {}  # key: (number of blocks, product of their units mod p)
    type2: Counter = Counter()
    for blk in blocks:
        if isinstance(blk, TypeI):
            e, u = valuation(pp, blk.d % pp.q)
            key = (e, u % 8) if p == 2 else e
            c, units = type1.get(key, (0, 1))
            type1[key] = c + 1, units * u % p
        else:
            type2[blk.ell, blk.a * blk.c % 2] += 1
    if p == 2:
        ones = tuple((e, u, c) for (e, u), (c, _) in type1.items())
    else:
        ones = tuple((e, legendre(units, p) if units else 0, c) for e, (c, units) in type1.items())
    return ones, tuple((*key, c) for key, c in type2.items())


def solutions(pp: PrimePower, n: int, tallies: Tallies, k: int, t: int) -> int:
    """N_k(t), the solutions of x'Qx = t mod p^k in the n variables of
    the blocks tallied, by the Fourier identity: the terms
    j <= min(k, ord t + 1 + 2 [p = 2]), divided by p^k.  Raises
    ArithmeticError where the division leaves a remainder or a negative
    count, which no form can give."""
    p, t = pp.p, t % pp.p**k
    v = k if t == 0 else valuation(pp, t).ord
    if p == 2:
        num, den = _fourier_two(n, tallies, k, t, v), k + 3
    else:
        num, den = _fourier_odd(p, n, tallies[0], k, t, v), k
    count, rest = divmod(num, p**den)
    if rest or count < 0:
        # num may have too many digits for str(): name its defect only
        defect = "a negative sum" if count < 0 else f"a sum with a remainder mod {p}^{den}"
        raise ArithmeticError(f"the Gauss sums at t mod {p}^{k} give {defect}, not a count")
    return count


def _fourier_odd(p: int, n: int, type1: tuple[tuple[Ordinal, int, int], ...], k: int, t: int, v: int) -> int:
    """p^k N_k(t) for odd p, with v = ord t (k at t = 0).

    A block p^e u has G(a, p^j) = p^j when e >= j, and else, with
    m = j - e, p^(e + m // 2) ((a u)/p)^(m mod 2) g^(m mod 2), where the
    Gauss sum g mod p has g^2 = p* = (-1/p) p.  So the product over the
    blocks is p^E Lam (a/p)^O g^O, with O the number of blocks of odd m
    and Lam the product of their (u/p).  For even O, g^O = p*^(O/2) and
    the sum over a is the Ramanujan sum of p^j at t: p^(j-1) (p - 1) for
    j <= v, -p^(j-1) at j = v + 1.  For odd O, (a/p) twists it into
    p^(j-1) ((-t / p^(j-1))/p) g at j = v + 1, and 0 below, and
    g^O g = p*^((O+1)/2).  Above v + 1 both sums are 0.
    """
    eps = 1 if p % 4 == 1 else -1
    num = p ** (n * k)  # T_0 = 1
    for j in range(1, min(k, v + 1) + 1):
        power, odd, lam = 0, 0, 1
        for e, s, c in type1:
            if e >= j:
                power += j * c
            else:
                power += (e + (j - e) // 2) * c
                if (j - e) % 2:
                    odd, lam = odd + c, lam * s
        half = (odd + 1) // 2
        if odd % 2 == 0:
            unit = p - 1 if j <= v else -1
        elif j == v + 1:
            unit = legendre(-(t // p**v), p)
        else:
            continue
        num += lam * eps**half * unit * p ** (n * (k - j) + power + half + j - 1)
    return num


def _fourier_two(n: int, tallies: Tallies, k: int, t: int, v: int) -> int:
    """2^(k+3) N_k(t) for p = 2, with v = ord t (k at t = 0).

    A type I block 2^e u has G(a, 2^j) = 2^j when e >= j, 0 when
    m = j - e is 1, and else 2^e (2/(a u))^m sqrt2^(m+1) zeta^(+-1),
    zeta = e(1/8), with +1 when a u = 1 mod 4.  A type II block has
    4^j when l + 1 >= j, and else 4^(l+1) 2^m (-1)^(m [a c odd]), with
    m = j - l - 1: its form is equivalent to x y, or to x^2 + x y + y^2
    when a c is odd, for every odd multiplier a.  The product thus reads
    a mod 8 only, so T_j is 2^(j-3) times the sum over a = 1, 3, 5, 7 of
    e(-a t / 2^j) times the product (which needs 2^(j-3) | t, j <= v + 3).
    That sum is taken exactly in Z[zeta] (_zeta_sum).
    """
    type1, type2 = tallies
    num = 1 << (n * k + 3)  # T_0 = 1
    for j in range(1, min(k, v + 3) + 1):
        power, roots, m_sum, d, sign = 0, 0, 0, 0, 1
        for e, u, c in type1:
            if e >= j:
                power += j * c
                continue
            m = j - e
            if m == 1:
                break  # G = 0, so T_j = 0
            power, roots, m_sum = power + e * c, roots + (m + 1) * c, m_sum + m * c
            d += c if u % 4 == 1 else -c
            if m % 2 and c % 2 and u % 8 in (3, 5):
                sign = -sign
        else:
            for ell, odd_ac, c in type2:
                m = j - ell - 1
                if m <= 0:
                    power += 2 * j * c
                else:
                    power += (j + ell + 1) * c
                    if odd_ac and m % 2 and c % 2:
                        sign = -sign
            s = _zeta_sum(t << 3 >> j, m_sum % 2, d, roots % 2)
            num += sign * s << (n * (k - j) + j + power + roots // 2)
    return num


def _zeta_sum(r: int, m_odd: int, d: int, root2: int) -> int:
    """The sum over a = 1, 3, 5, 7 of (2/a)^m_odd zeta^(chi(a) d - a r),
    times sqrt2 = zeta - zeta^3 when root2, with zeta = e(1/8) and chi(a)
    = +-1 as a = +-1 mod 4.  It is computed on the basis 1, zeta,
    zeta^2, zeta^3 (zeta^4 = -1), and must be a rational integer: a
    Gauss-sum term T_j is fixed by every automorphism of the cyclotomic
    field.  Raises ArithmeticError where it is not."""
    coef = [0, 0, 0, 0]
    for a, jacobi, chi in ((1, 1, 1), (3, -1, -1), (5, -1, 1), (7, 1, -1)):
        e, s = (chi * d - a * r) % 8, jacobi if m_odd else 1
        coef[e % 4] += s if e < 4 else -s
    if root2:
        c0, c1, c2, c3 = coef
        coef = [c1 - c3, c0 + c2, c1 + c3, c2 - c0]
    if any(coef[1:]):
        raise ArithmeticError(f"a Gauss-sum term is not rational: {coef} on 1, zeta, zeta^2, zeta^3")
    return coef[0]
