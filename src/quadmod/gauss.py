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
(block_tallies, from the one pass of block_classes), and each term is
one function of the tallies and j for every p (_term).  The Gauss sums read a only
modulo p (odd p) or 8 (p = 2), and e(-a t / p^j) summed over the units
a of one such class is 0 unless p^(j-1) (odd p) or 2^(j-3) (p = 2)
divides t.  So every T_j with j above ord t + G vanishes, with the
order gap G = 1 for odd p and 3 for p = 2.  A term j <= ord t reads t
only through p^j | t, and the edge terms ord t < j <= ord t + G read
the sign of t's unit part too, so the counts of a form at every target
symbol are prefix sums over j plus at most G edge terms each.

A Level is the one reader of those sums: a count, a whole table and
each step of a draw's walk read the entries they need from it, and it
takes the terms only up to the highest order read, one big-integer
step each, linear in size, in units fixed when it is made.  A count is
an integer, so a sum that p^k does not divide raises ArithmeticError
rather than round.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .blockdiag import Block, TypeI, TypeII
from .modring import PrimePower, legendre, valuation
from .symbols import Ordinal

# A block as its Gauss sums and tables read it: a type I block p^e u
# mod p^k as (e, u mod 8) for p = 2 and, for odd p, (e, u mod p) or, in
# the tables, (e, Legendre symbol of u) (block_signs); (INF, 0) when p^k
# divides it.  A type II block as itself.
BlockClass = tuple[Ordinal, int] | TypeII

# A form's blocks as its Gauss sums read them: (order, unit class,
# number of blocks) for the type I blocks p^e u, and (l, a c mod 2,
# number of blocks) for the type II blocks.  The class is u mod 8 for
# p = 2, one entry per order and class, and for odd p the Legendre
# symbol of the product of one order's units, which is all the Gauss
# sums read of them.
Tallies = tuple[tuple[tuple[Ordinal, int, int], ...], tuple[tuple[int, int, int], ...]]


def block_classes(blocks: tuple[Block, ...], pp: PrimePower) -> tuple[BlockClass, ...]:
    """Each block's BlockClass mod p^k, in one pass: one valuation per
    type I block, which the tallies and the tables then read."""
    p, classes = pp.p, []
    for blk in blocks:
        if isinstance(blk, TypeI):
            e, u = valuation(pp, blk.d % pp.q)
            blk = e, u % (8 if p == 2 else p)
        classes.append(blk)
    return tuple(classes)


def block_signs(classes: tuple[BlockClass, ...], tallies: Tallies, p: int) -> tuple[BlockClass, ...]:
    """The classes as the tables read them: for odd p each unit's
    Legendre symbol, the last block of an order taking the order's (the
    tallies') over the others', so a count and the tables take one each."""
    if p == 2:
        return classes  # type II blocks, and units mod 8, read as they are
    left = {e: [s, c] for e, s, c in tallies[0]}  # an order's symbol and blocks still unsigned
    signed = []
    for e, u in classes:
        order = left[e]
        order[1] -= 1
        s = order[0] if not order[1] else legendre(u, p) if u else 0
        order[0] *= s
        signed.append((e, s))
    return tuple(signed)


def suffix_tallies(classes: tuple[BlockClass, ...], p: int) -> Iterator[Tallies]:
    """The Tallies of classes[j:] for j from the last block down to 0,
    adding the blocks back to front, one at a time.  An entry is kept by
    key: (order, u mod 8) for p = 2 and the order for odd p, whose class
    is the product of its blocks', and (l, a c mod 2) for type II."""
    type1, type2 = {}, {}
    for cls in reversed(classes):
        if isinstance(cls, TypeII):
            key = cls.ell, cls.a * cls.c % 2
            type2[key] = (*key, type2.get(key, (0, 0, 0))[2] + 1)
        else:
            e, s = cls
            _, prod, c = type1.get(cls if p == 2 else e, (e, 1, 0))
            type1[cls if p == 2 else e] = e, s if p == 2 else prod * s, c + 1
        yield tuple(type1.values()), tuple(type2.values())


def block_tallies(classes: tuple[BlockClass, ...], p: int) -> Tallies:
    """The Tallies of all the blocks (block_classes): for odd p one
    Legendre symbol per order, of the product of its units."""
    type1, type2 = (), ()
    for type1, type2 in suffix_tallies(classes, p):
        pass
    return tuple((e, legendre(u, p) if p != 2 and u else u, c) for e, u, c in type1), type2


class Level:
    """The counts of the n variables tallied, mod p^k, at any target
    symbol, read on demand: at(o, s) is (total, non-primitive) at the
    symbol of order o (INF or k for the zero symbol) and sign s, and
    count(o, u) the same at a target of order o and unit part u.

    The total at (o, s) is p^-den times A_o, the prefix sum of p^(nk +
    den - k) and the terms j <= o at r = 0, plus the edge terms j = o + d
    <= k, d = 1..G, at the r of the sign s: s for odd p, s 2^(3 - d)
    mod 8 for p = 2.  The non-primitive count p^n N_(k-2)(t / p^2) at
    order o >= 2 is p^(-den - n + 2) times the same sum for o - 2 cut
    at j <= k - 2 (each term at level k - 2 is p^(-2n) its term at k),
    0 below order 2, and at k = 1 the one x = 0 at t = 0.  above gives
    the sums over every symbol from one order up, which a walk's step
    weighs at once.

    Each term comes from _term, one function of the tallies and j, is
    taken once, up to the highest order read so far, its power made from
    the one before, and summed in units of p^unit, fixed when the Level
    is made: unit = min(k, n k) + [p = 2], the least a term can reach.
    A term j is p^e, e = n (k - j) + j - [p odd] + E (_term), with the
    blocks' share E at least n j / 2 at odd p (1 at j = 1) and (n (j + 1)
    - 1) / 2 at p = 2, where a block of order 0 makes the term j = 1 0.
    So e >= k at odd p and k + 1 at p = 2 once n >= 1, which one unit
    block reaches; with n = 0 the first term is p^0, or 2^1.  A term
    below the unit is no Gauss-sum term and raises ArithmeticError, as
    does an entry that does not divide exactly.  Each entry is kept.
    """

    def __init__(self, pp: PrimePower, n: int, tallies: Tallies):
        p, k = pp.p, pp.k
        self.pp, self.p, self.k, self.n, self.tallies = pp, p, k, n, tallies
        self.gap, self.den = (3, k + 3) if p == 2 else (1, k)
        self._unit = min(k, n * k) + (p == 2)
        self._last = n * k + self.den - k  # the exponent of the last power made
        self._power = p ** (self._last - self._unit)
        # A_j, and the weights and power of the term j, by j
        self._sums, self._weights, self._powers = [self._power], [_NO_TERM], [0]
        self._read: dict[tuple[Ordinal, int | None], tuple[int, int]] = {}

    def at(self, o: Ordinal, s: int) -> tuple[int, int]:
        k = self.k
        if o >= k:  # the zero symbol
            o, s = k, 0
        got = self._read.get((o, s))
        if got is None:
            self._take(min(o + self.gap, k))
            total = self._exact(self._sum(o, s, k), self.den)
            nprim = int(o == k) if o < 2 else self._exact(self._sum(o - 2, s, k - 2), self.den + self.n - 2)
            got = self._read[o, s] = total, nprim
        return got

    def count(self, o: Ordinal, u: int) -> tuple[int, int]:
        """at for a target of order o and unit part u: at the sign u mod
        8 for p = 2, and for odd p at u's Legendre symbol where an edge
        term of the total or of the non-primitive count twists by it,
        else at 1.  The zero symbol (o >= k) reads no sign."""
        if self.p == 2 or o >= self.k:
            return self.at(o, u % 8)
        self._take(o + 1)
        w, w2 = self._weights[o + 1], self._weights[o - 1] if o else _NO_TERM
        return self.at(o, legendre(u, self.p) if w[1] != w[-1] or w2[1] != w2[-1] else 1)

    def above(self, m: int) -> tuple[int, int]:
        """(total, non-primitive): the solutions whose value has order at
        least m <= k, the sum over those symbols of class size times
        count.  Summed over t = 0 mod p^m, a term j reads r = 0 for
        j <= m and sums to 0 above, so the total is A_m / p^(m + den - k);
        a non-primitive x = p y has order at least m where y'Qy has m - 2
        at level k - 2, so the non-primitive sum is A_(m-2) /
        p^(m + den - k + n - 2) for m >= 2, and p^(n (k - 1)) below.
        Kept with the entries of at, under (m, None)."""
        got = self._read.get((m, None))
        if got is None:
            self._take(m)
            p, k, n, extra = self.p, self.k, self.n, m + self.den - self.k
            nprim = p ** (n * (k - 1)) if m < 2 else self._exact(self._sums[m - 2], extra + n - 2)
            got = self._read[m, None] = self._exact(self._sums[m], extra), nprim
        return got

    def _take(self, last: int) -> None:
        """Take the terms up to j = last."""
        p, sums = self.p, self._sums
        if last < len(sums):
            return
        for j in range(len(sums), last + 1):
            # a term that is 0 keeps the last power
            e, w = _term(self.pp, self.n, self.tallies, j) or (self._last, _NO_TERM)
            if e < self._unit:
                raise ArithmeticError(f"a Gauss-sum term mod p^{self.k} falls below p^{self._unit}")
            d, self._last = e - self._last, e
            self._power = self._power * p**d if d >= 0 else self._power // p**-d
            sums.append(sums[-1] + w[0] * self._power)
            self._weights.append(w)
            self._powers.append(self._power)

    def _sum(self, o: int, s: int, cut: int) -> int:
        """The sum at order o and sign s, cut at j <= cut, in units of
        p^unit: A_o and the edge terms o < j <= cut, G of them at most."""
        num, weights, powers = self._sums[o], self._weights, self._powers
        if self.p != 2:
            return num + weights[o + 1][s] * powers[o + 1] if o < cut else num
        for j in range(o + 1, min(o + 3, cut) + 1):
            num += weights[j][s << 3 >> j - o & 7] * powers[j]
        return num

    def _exact(self, num: int, den: int) -> int:
        """num p^unit over p^den, a count: raises ArithmeticError where
        it has a remainder or is negative."""
        p, e = self.p, den - self._unit
        count, rest = divmod(num, p**e) if e > 0 else (num * p**-e if e else num, 0)
        if rest:
            raise ArithmeticError(f"the Gauss sums mod p^{self.k} give a sum with a remainder mod p^{e}, not a count")
        if count < 0:
            raise ArithmeticError(f"the Gauss sums mod p^{self.k} give a negative sum, not a count")
        return count


# The weights of a j with no term
_NO_TERM = (0,) * 8


def _term(pp: PrimePower, n: int, tallies: Tallies, j: int) -> tuple[int, tuple] | None:
    """The term j, 1 <= j <= k, of p^den N_k(t), den = k (k + 3 at
    p = 2), as (e, w): the term is w[r] p^e, with r = 0 when p^j | t,
    else at odd p the Legendre symbol of t's unit part and at p = 2
    8 t / 2^j mod 8.  None where the term is 0 at every t.  Raises
    ArithmeticError where irrational.

    Odd p.  A block p^e u has G(a, p^j) = p^j when e >= j, and else,
    with m = j - e, p^(e + m // 2) ((a u)/p)^(m mod 2) g^(m mod 2),
    where the Gauss sum g mod p has g^2 = p* = eps p, eps = (-1/p).  So
    the product over the blocks is p^E Lam (a/p)^O g^O, with O the
    number of blocks of odd m and Lam the product of their (u/p).  For
    even O, g^O = p*^(O/2) and the sum over a is the Ramanujan sum of
    p^j at t: p^(j-1) (p - 1) for j <= ord t, -p^(j-1) at j = ord t + 1.
    For odd O, (a/p) twists it into p^(j-1) ((-t / p^(j-1))/p) g at
    j = ord t + 1, and 0 below, and g^O g = p*^((O+1)/2).  Above
    ord t + 1 both sums are 0.

    p = 2.  A type I block 2^e u has G(a, 2^j) = 2^j when e >= j, 0 when
    m = j - e is 1, and else 2^e (2/(a u))^m sqrt2^(m+1) zeta^(+-1),
    zeta = e(1/8), with +1 when a u = 1 mod 4.  A type II block has
    4^j when l + 1 >= j, and else 4^(l+1) 2^m (-1)^(m [a c odd]), with
    m = j - l - 1: its form is equivalent to x y, or to x^2 + x y + y^2
    when a c is odd, for every odd multiplier a.  The product thus reads
    a mod 8 only, so T_j is 2^(j-3) times the sum over a = 1, 3, 5, 7 of
    e(-a t / 2^j) times the product (which needs 2^(j-3) | t, j <= ord
    t + 3).  That sum is _zeta_sum.
    """
    type1, type2 = tallies
    p, k = pp.p, pp.k
    if p != 2:
        eps = 1 if p % 4 == 1 else -1
        power, odd, lam = 0, 0, 1
        for e, s, c in type1:
            if e >= j:
                power += j * c
            else:
                power += (e + (j - e) // 2) * c
                if (j - e) % 2:
                    odd, lam = odd + c, lam * s
        half = (odd + 1) // 2
        sign = -lam if eps < 0 and half % 2 else lam
        # by r = 0, 1, -1: inside, and the edge at either sign
        w = (sign * (p - 1), -sign, -sign) if odd % 2 == 0 else (0, sign * eps, -sign * eps)
        return n * (k - j) + power + half + j - 1, w
    power, roots, m_sum, d, sign = 0, 0, 0, 0, 1
    for e, u, c in type1:
        if e >= j:
            power += j * c
            continue
        m = j - e
        if m == 1:
            return None  # G = 0, so T_j = 0
        power, roots, m_sum = power + e * c, roots + (m + 1) * c, m_sum + m * c
        d += c if u % 4 == 1 else -c
        if m % 2 and c % 2 and u % 8 in (3, 5):
            sign = -sign
    for ell, odd_ac, c in type2:
        m = j - ell - 1
        if m <= 0:
            power += 2 * j * c
        else:
            power += (j + ell + 1) * c
            if odd_ac and m % 2 and c % 2:
                sign = -sign
    w, irrational = _ZETA_ROWS[sign, m_sum % 2, d % 8, roots % 2]
    if irrational[min(j, 3)]:
        raise ArithmeticError("a Gauss-sum term is not rational")
    return n * (k - j) + j + power + roots // 2, w


def _zeta_sum(r: int, m_odd: int, d: int, root2: int) -> int:
    """The sum over a = 1, 3, 5, 7 of (2/a)^m_odd zeta^(chi(a) d - a r),
    times sqrt2 = zeta + zeta^-1 when root2, with zeta = e(1/8) and
    chi(a) = +-1 as a = +-1 mod 4.  It must be a rational integer: a
    Gauss-sum term T_j is fixed by every automorphism of the cyclotomic
    field.  Raises ArithmeticError where it is not.

    As zeta^-5r = (-1)^r zeta^-r, zeta^-3r = (-1)^r zeta^r and
    zeta^-7r = zeta^r, with x = d - r it is (1 + (-1)^(m_odd + r))
    2 cos(pi x / 4): 0 when m_odd + r is odd or x = 2 mod 4, else +-4
    or +-2 sqrt2 (times sqrt2, +-4), + for x = 0, +-1 mod 8.  So it is
    rational exactly when x is odd with root2 and even without."""
    x = (d - r) % 8
    if (m_odd + r) % 2 or x % 4 == 2:
        return 0
    if x % 2 != root2:
        raise ArithmeticError(f"a Gauss-sum term is not rational: {'4 sqrt2' if root2 else '2 sqrt2'} times +-1")
    return 4 if x in (0, 1, 7) else -4


def _zeta_row(sign: int, m_odd: int, d: int, root2: int) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """sign times _zeta_sum(r, m_odd, d, root2) for r = 0..7 (0 where it
    is not rational), and by j = 1, 2, 3 and above whether it is not at
    an r that a term j reads, that of a t = r 2^(j-3), a multiple of 2^(3-j)."""
    row: list = []
    for r in range(8):
        try:
            row.append(sign * _zeta_sum(r, m_odd, d, root2))
        except ArithmeticError:
            row.append(None)
    return tuple(z or 0 for z in row), tuple(None in row[:: 8 >> j] for j in range(4))


# A p = 2 term's weights by r, and where they are not rational, for each
# (sign, m_odd, d mod 8, root2)
_ZETA_ROWS = {key: _zeta_row(*key) for key in product((1, -1), (0, 1), range(8), (0, 1))}
