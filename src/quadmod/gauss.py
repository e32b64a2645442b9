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
(block_tallies, from the one pass of block_classes), and one loop over
j gives the terms for every p (_terms).  The Gauss sums read a only
modulo p (odd p) or 8 (p = 2), and e(-a t / p^j) summed over the units
a of one such class is 0 unless p^(j-1) (odd p) or 2^(j-3) (p = 2)
divides t.  So every T_j with j above ord t + G vanishes, with the
order gap G = 1 for odd p and 3 for p = 2, and solutions sums only the
terms below.  The count is an integer, so a sum that p^k does not
divide raises ArithmeticError rather than round.

The same terms give the count tables that a draw's walk weighs its
steps by: a level, the counts of one form at every target symbol
(level_table).  A term j <= ord t reads t only through p^j | t, and
the edge terms ord t < j <= ord t + G read the sign of t's unit part
too, so a level is prefix sums over j plus at most G edge terms per
symbol, O(k) big-integer steps each linear in size.  Every entry is
divided exactly, or raises ArithmeticError as solutions does.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, product, repeat
from operator import add, floordiv, mul, ne

from .blockdiag import Block, TypeI, TypeII
from .modring import PrimePower, legendre, valuation
from .symbols import Ordinal, SymbolLayout

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


def solutions(pp: PrimePower, n: int, tallies: Tallies, k: int, t: int) -> int:
    """N_k(t), the solutions of x'Qx = t mod p^k in the n variables of
    the blocks tallied, by the Fourier identity: the terms
    j <= min(k, ord t + G), divided by p^k.  Raises ArithmeticError
    where the division leaves a remainder or a negative count, which no
    form can give."""
    p, t = pp.p, t % pp.p**k
    v = k if t == 0 else valuation(pp, t).ord
    if p == 2:
        num, den = 1 << (n * k + 3), k + 3
        for j, e, w in _terms(pp, n, tallies, k, min(k, v + 3)):
            num += w[t << 3 >> j & 7] << e
    else:
        num, den = p ** (n * k), k
        for j, e, w in _terms(pp, n, tallies, k, min(k, v + 1)):
            # the edge term j = v + 1 reads the sign of t's unit part
            # only where it twists by it
            if x := w[0 if j <= v else 1 if w[1] == w[-1] else legendre(t // p**v, p)]:
                num += x * p**e
    count, rest = divmod(num, p**den)
    if rest or count < 0:
        _divide([num], p, k, den)  # raises ArithmeticError, naming the defect
    return count


def level_table(pp: PrimePower, n: int, tallies: Tallies, layout: SymbolLayout) -> tuple[list[int], list[int]]:
    """The counts of the n >= 2 variables tallied at every position of
    the layout, as (total, non-primitive) lists (counting.Table).

    The total at (o, s) is p^-den times A_o, the prefix sum of the terms
    j <= o at r = 0, plus the edge terms j = o + d <= k, d = 1..G, at
    the r of the sign s: s for odd p, s 2^(3 - d) mod 8 for p = 2; A_k
    at the zero symbol.  The non-primitive count p^n N_(k-2)(t / p^2)
    at order o >= 2 is p^(-den - n + 2) times the same sum for o - 2
    cut at j <= k - 2 (each term at level k - 2 is p^(-2n) its term at
    k): the total's sum at o - 2 wherever o <= k - G.  Sums are taken in
    units of p^shift, the largest power of p dividing p^den and every
    term, each term's power made from the one before by a small power
    of p, and divided exactly or with ArithmeticError.
    """
    p, k = pp.p, pp.k
    den = k + 3 if p == 2 else k
    terms, base = _terms(pp, n, tallies, k, k), n * k + den - k
    shift = min(den, base, *[e for _, e, _ in terms])
    t0 = power = p ** (base - shift)
    scaled, last = [], base
    for j, e, w in terms:
        power = power * p ** (e - last) if e >= last else power // p ** (last - e)
        scaled.append((j, w, power))
        last = e
    total, nprim = (_sums_two if p == 2 else _sums_odd)(t0, scaled, layout)
    return _divide(total, p, k, den - shift), _divide(nprim, p, k, den + n - 2 - shift if k > 1 else 0)


def _sums_odd(t0: int, scaled: list, layout: SymbolLayout) -> tuple[list[int], list[int]]:
    """A level's sums for odd p, where G = 1 and every j has a term (j,
    w, power of p): order j - 1 takes the terms below j and the edge
    term j at the sign of each slot; the non-primitive sums are the
    totals' two orders down, and at k = 1 its one x is 0."""
    k, first = layout.pp.k, layout.first
    total, acc, at_k2 = [0] * len(layout), t0, t0
    for j, w, v in scaled:  # order j - 1 holds the slots of sign 1 and -1
        total[first[j - 1] : first[j]] = acc + w[1] * v, acc + w[-1] * v
        acc += w[0] * v
        if j == k - 2:
            at_k2 = acc
    total[0] = acc
    return total, [1, 0, 0] if k == 1 else [at_k2, 0, 0, 0, 0] + total[1 : first[k - 2]]


def _sums_two(t0: int, scaled: list, layout: SymbolLayout) -> tuple[list[int], list[int]]:
    """A level's sums for p = 2, where G = 3 and a j may have no term.
    The orders o <= k - 3 see three edge terms in four slots and are
    summed column by column, the two above see fewer in fewer slots.
    The non-primitive sums at 2 <= o <= k - 3 are the totals' at o - 2,
    and at k = 1 the one non-primitive x is 0."""
    k, first = layout.pp.k, layout.first
    weights, values = [(0,) * 8] * (k + 1), [0] * (k + 1)  # a j with no term weighs 0
    for j, w, v in scaled:
        weights[j], values[j] = w, v
    at = [[w[r] * v for w, v in zip(weights, values)] for r in range(8)]  # at[r][j]
    prefix = list(accumulate(at[0][1:], initial=t0))

    def place(out: list[int], o: int, count: int, start: int, reach: int) -> None:
        """Put the sums from A_start on, with edge terms up to distance
        reach, at the count orders from o, one column per slot."""
        columns = [prefix[start : start + count]]
        for d in range(1, reach + 1):
            edge = [at[r][start + d : start + d + count] for r in _EDGE_R_TWO[d]]
            columns = [list(map(add, columns[x % len(columns)], terms)) for x, terms in enumerate(edge)]
        for x, column in enumerate(columns):
            out[first[o] + x : first[o + count] : len(columns)] = column

    full = max(0, k - 2)  # the orders o <= k - 3
    total = [prefix[k]] + [0] * (len(layout) - 1)
    place(total, 0, full, 0, 3)
    for o in range(full, k):
        place(total, o, 1, o, k - o)
    if k == 1:
        return total, [1, 0]
    nprim = [prefix[k - 2]] + [0] * (len(layout) - 1)
    nprim[first[2] : first[max(2, full)]] = total[1 : first[max(0, full - 2)]]
    for o in range(max(2, full), k):
        place(nprim, o, 1, o - 2, k - o)
    return total, nprim


# The r at which an edge term of p = 2 at distance d reads slot x of an
# order: its sign 2x + 1 times 2^(3 - d) mod 8, for x mod 2^(d - 1).
_EDGE_R_TWO = ((), (4,), (2, 6), (1, 3, 5, 7))


def _terms(pp: PrimePower, n: int, tallies: Tallies, k: int, last: int) -> list[tuple[int, int, tuple]]:
    """The terms j = 1..last of p^den N_k(t), den = k (k + 3 at p = 2),
    not 0 at every t, as (j, e, w): the term is w[r] p^e, with r = 0
    when p^j | t, else at odd p the Legendre symbol of t's unit part and
    at p = 2 8 t / 2^j mod 8.  Raises ArithmeticError where irrational.

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
    terms = []
    if pp.p != 2:
        p = pp.p
        eps = 1 if p % 4 == 1 else -1
        for j in range(1, last + 1):
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
            terms.append((j, n * (k - j) + power + half + j - 1, w))
        return terms
    for j in range(1, last + 1):
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
            w, irrational = _ZETA_ROWS[sign, m_sum % 2, d % 8, roots % 2]
            if irrational[min(j, 3)]:
                raise ArithmeticError("a Gauss-sum term is not rational")
            terms.append((j, n * (k - j) + j + power + roots // 2, w))
    return terms


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


def _divide(nums: list[int], p: int, k: int, e: int) -> list[int]:
    """Each of nums over p^e (e >= 0), a count of solutions mod p^k:
    raises ArithmeticError where one has a remainder or is negative."""
    if e:
        q, sums = p**e, nums
        nums = list(map(floordiv, sums, repeat(q)))
        if any(map(ne, map(mul, nums, repeat(q)), sums)):
            raise ArithmeticError(f"the Gauss sums mod {p}^{k} give a sum with a remainder mod {p}^{e}, not a count")
    if min(nums) < 0:
        raise ArithmeticError(f"the Gauss sums mod {p}^{k} give a negative sum, not a count")
    return nums


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
