"""p^k-symbols: square classes of Z/p^k and their pair-splitting counts.

The symbol of t mod p^k is the pair (ord, sgn): p-adic order together
with the sign of the coprime part (Legendre symbol for odd p, residue
mod 8 for p = 2).  Two elements share a symbol iff they differ by a
unit-square factor, so representation counts depend on targets only
through their symbol.

The convolution kernel that glues per-block counts together is the
split size: for a target t of symbol g, the number of pairs (a, b) with
prescribed symbols g1, g2 and a + b = t.  ``split_partners`` is its
single source: given (g, g1) it lists only the g2 with a non-zero size,
which is one symbol except when ord(g1) = ord(g).
``split_class_size`` looks one triple up in that list.

Beyond an order gap G (3 for p = 2, where three bits of the coprime
part fix the sign; 1 for odd p) a cell no longer depends on signs or
exact orders: a g1 at least G orders above g pairs only with g, a g1 at
least G below only with -g1, both with size |g1|, and g1 = g pairs with
every g2 at least G above, with size |g2| (the zero symbol counts as
above every order).  ``_near_partners`` lists the rest, and
``split_partners`` is the zero partner, the near partners and that far
tail.  The count tables sum the far cells by order and read only the
near cells, so one level of their dynamic program costs O(S) products
plus a bounded number of near cells per target.

For p = 2 the near partners at equal orders come from one congruence
on the signs, solved in closed form, so a near cell costs a few integer
operations wherever it is read.  A ``SymbolLayout`` holds what the count
tables and the chain walk read of one modulus and does not change after
construction; its ``partners`` lists what ``split_partners`` lists, with
the near cells computed by rule.  Each prepared form owns its layout;
the module itself keeps no state between calls.
"""

from __future__ import annotations

from typing import NamedTuple

from .modring import INF, DomainError, PrimePower, legendre, valuation

Ordinal = int | float  # finite order or INF


class PkSymbol(NamedTuple):
    """(p-adic order, square-class sign) of an element of Z/p^k."""

    ord: Ordinal
    sgn: int


SYMBOL_ZERO = PkSymbol(INF, 0)


def _check_symbol(pp: PrimePower, g: PkSymbol) -> None:
    if g.ord == INF:
        if g.sgn != 0:
            raise DomainError(f"order INF must carry sign 0, got {g}")
        return
    if not (isinstance(g.ord, int) and 0 <= g.ord < pp.k):
        raise DomainError(f"order {g.ord} out of range for k={pp.k}")
    allowed = (1, 3, 5, 7) if pp.p == 2 else (1, -1)
    if g.sgn not in allowed:
        raise DomainError(f"sign {g.sgn} invalid for p={pp.p}")


def symbol_of(pp: PrimePower, t: int) -> PkSymbol:
    """The symbol (ord, sgn) of t mod p^k."""
    r = t % pp.q
    if r == 0:
        return SYMBOL_ZERO
    ord_, cop = valuation(pp, r)
    sgn = cop % 8 if pp.p == 2 else legendre(cop, pp.p)
    return PkSymbol(ord_, sgn)


def _orders_between(pp: PrimePower, lo: int, hi: int) -> list[PkSymbol]:
    """The formal symbols of order lo <= ord < hi, in symbol order."""
    signs = (1, 3, 5, 7) if pp.p == 2 else (1, -1)
    return [PkSymbol(i, s) for i in range(lo, hi) for s in signs]


def enumerate_symbols(pp: PrimePower) -> list[PkSymbol]:
    """All formal symbols: 4k+1 of them for p=2, 2k+1 for odd p.

    For p = 2 the classes with k - ord <= 2 admit fewer sign values, so
    some listed symbols have empty classes; class_size reports 0 there.
    """
    return [SYMBOL_ZERO, *_orders_between(pp, 0, pp.k)]


def class_size(pp: PrimePower, g: PkSymbol) -> int:
    """|{x in Z/p^k : symbol(x) = g}|.

    Odd p: (p-1)/2 * p^(k-ord-1).  p = 2: 2^(k-ord-3) once k-ord >= 3;
    below that the coprime part lives mod 2 or mod 4, so only sgn = 1
    (resp. 1 or 3) is inhabited, with one element each.  Empty formal
    symbols report 0, keeping the partition sum equal to p^k.
    """
    _check_symbol(pp, g)
    if _is_empty(pp, g):
        return 0
    return _class_size(pp, g)


def _is_empty(pp: PrimePower, g: PkSymbol) -> bool:
    """Is the class of the well-formed symbol g empty?  Only for p = 2:
    below three free bits the coprime part is canonical below 2^(k-ord),
    and sgn is its value mod 8, so only residues below 2^(k-ord) occur."""
    return pp.p == 2 and g.ord != INF and pp.k - g.ord < 3 and g.sgn >= 2 ** (pp.k - g.ord)


def _class_size(pp: PrimePower, g: PkSymbol) -> int:
    """class_size of a well-formed symbol with a non-empty class."""
    if g.ord == INF:
        return 1
    m = pp.k - g.ord
    if pp.p != 2:
        return (pp.p - 1) // 2 * pp.p ** (m - 1)
    return 2 ** (m - 3) if m >= 3 else 1


def split_pair_count_mod_p(p: int, leg_a: int, s1: int, s2: int) -> int:
    """Count x mod p (odd p) with (x/p) = s1 and ((x+a)/p) = s2, given (a/p) = leg_a.

    Closed form: (p - (p mod 4) - (leg_a + s1)(leg_a*(-1/p) + s2)) / 4.
    """
    if p == 2:
        raise DomainError("split_pair_count_mod_p needs an odd prime")
    return (p - (p % 4) - (leg_a + s1) * (leg_a * _sign_of_minus_one(p) + s2)) // 4


def _sign_of_minus_one(p: int) -> int:
    """Legendre symbol (-1/p) for odd p."""
    return 1 if p % 4 == 1 else -1


def _negated_symbol(pp: PrimePower, g: PkSymbol) -> PkSymbol:
    """Symbol of -a for a in the (inhabited, finite-order) class g."""
    if pp.p != 2:
        return PkSymbol(g.ord, _sign_of_minus_one(pp.p) * g.sgn)
    # cop(-a) = 2^(k-ord) - cop(a) as a canonical residue; mod 8 that is
    # 8-s, 4-s, 2-s depending on how much room k-ord leaves.
    return PkSymbol(g.ord, (2 ** (pp.k - g.ord) - g.sgn) % 8)


def _difference_symbol(pp: PrimePower, g: PkSymbol, g1: PkSymbol) -> PkSymbol:
    """Symbol of t - a when symbol(t) = g, symbol(a) = g1, ord(g) != ord(g1).

    The lower order wins; the sign comes from the leading coprime part.
    For p = 2 the subtraction must be read modulo min(8, 2^(k - ord)):
    near the top of the ring fewer than three bits of the coprime part
    survive.
    """
    p, k = pp.p, pp.k
    if g.ord < g1.ord:
        o = g.ord
        delta = g1.ord - g.ord
        if p != 2:
            return PkSymbol(o, g.sgn)
        s = (g.sgn - 2**delta * g1.sgn) % min(8, 2 ** (k - o))
    else:
        o = g1.ord
        delta = g.ord - g1.ord
        if p != 2:
            return PkSymbol(o, _sign_of_minus_one(p) * g1.sgn)
        s = (2**delta * g.sgn - g1.sgn) % min(8, 2 ** (k - o))
    return PkSymbol(o, s)


def split_partners(pp: PrimePower, g: PkSymbol, g1: PkSymbol) -> list[tuple[PkSymbol, int]]:
    """The non-zero split sizes at (g, g1), as (g2, size) in enumerate_symbols order.

    size = |{(a, b) : symbol(a) = g1, symbol(b) = g2, a + b = t mod p^k}|,
    the same for every t of symbol g; every g2 whose size is 0 is left
    out, and every listed g2 has a non-empty class.  An empty target or
    g1 class has no pairs at all.

    Case analysis on the orders (a + b = t forces the two smallest of
    the three orders to be equal):

    * a = 0: the pair is (0, t), so g2 = g with one pair.
    * t = 0: pairs are (a, -a), so g2 is the negated class of g1 and
      every a in the g1-class works.
    * ord(g1) != ord(t): a determines b = t - a, whose symbol is a
      single g2 computable from g and g1; the size is the g1-class size.
    * ord(g1) = ord(t): b = t - a has order >= ord(t).  b = 0 needs
      g1 = g (one pair).  b of order ord(t) is possible for odd p only
      (over the 2-adics two units sum to an even number): reduce to the
      mod-p unit count with the Legendre substitution and scale by
      p^(k-ord-1) free digits, which leaves at most two signs.  b of
      higher order determines a = t - b, so each higher-order g2 whose
      difference symbol with g is g1 contributes its class size.  That
      symbol is g itself for every higher order when p is odd, and from
      three orders up when p = 2, so only g1 = g can pair with orders
      beyond ord(t) + 2.

    The list is the zero partner when g1 = g, then the near partners,
    then, when g1 = g, every inhabited symbol of order >= ord(g) + G.
    """
    _check_symbol(pp, g)
    _check_symbol(pp, g1)
    if _is_empty(pp, g) or _is_empty(pp, g1):
        return []
    if g1.ord == INF:
        return [(g, 1)]
    if g.ord == INF:
        return [(_negated_symbol(pp, g1), _class_size(pp, g1))]
    near = _near_partners(pp, g, g1)
    if g1 != g:
        return near
    far = [
        (g2, _class_size(pp, g2))
        for g2 in _orders_between(pp, min(pp.k, g.ord + _split_gap(pp)), pp.k)
        if not _is_empty(pp, g2)
    ]
    return [(SYMBOL_ZERO, 1), *near, *far]


def _split_gap(pp: PrimePower) -> int:
    """The order gap G beyond which a split cell no longer depends on
    its symbols' signs or exact orders: 3 for p = 2 (three bits of the
    coprime part decide the sign), 1 for odd p."""
    return 3 if pp.p == 2 else 1


def _near_partners(pp: PrimePower, g: PkSymbol, g1: PkSymbol) -> list[tuple[PkSymbol, int]]:
    """The partners g2 of finite order below ord(g) + G at (g, g1), for
    inhabited finite g and g1, in enumerate_symbols order.

    That is every partner unless g1 = g, whose zero partner and partners
    at or beyond the gap all have the size of the g2 class.  The count
    tables fold those far cells, and every cell of a g1 at least G away
    from ord(g), into running sums, and visit only the g1 within the gap
    through this list.

    With o = ord(g) = ord(g1) and p = 2, a partner g2 of order o + delta
    (delta = 1, 2, below k) is one whose difference symbol with g is g1:
    s - 2^delta s2 = s1 modulo m = min(8, 2^(k - o)), for the signs s,
    s1, s2 of g, g1, g2.  As m >= 2^(delta + 1), that asks d = s - s1
    (mod m) to be 2^delta times an odd e, and then s2 = e modulo
    m / 2^delta; the solutions are the inhabited signs, below
    min(8, 2^r) at room r = k - o - delta, in that residue class.
    """
    if g1.ord != g.ord:
        return [(_difference_symbol(pp, g, g1), _class_size(pp, g1))]
    p, k, o = pp.p, pp.k, g.ord
    out = []
    if p != 2:
        scale = p ** (k - o - 1)
        for s2 in (1, -1):
            mod_p = split_pair_count_mod_p(p, g1.sgn, s2, g.sgn)
            if mod_p:
                out.append((PkSymbol(o, s2), mod_p * scale))
        return out
    m = min(8, 2 ** (k - o))
    d = (g.sgn - g1.sgn) % m
    for delta in range(1, min(3, k - o)):
        e = d >> delta
        if d & ((1 << delta) - 1) or not e & 1:
            continue
        r = k - o - delta
        size = 2 ** (r - 3) if r >= 3 else 1
        out.extend((PkSymbol(o + delta, s2), size) for s2 in range(e, min(8, 2**r), m >> delta))
    return out


def split_class_size(pp: PrimePower, g: PkSymbol, g1: PkSymbol, g2: PkSymbol) -> int:
    """|{(a, b) : symbol(a) = g1, symbol(b) = g2, a + b = t mod p^k}|.

    Well-defined for any t with symbol g: the size ``split_partners``
    lists for g2, or 0 when it does not list g2 (in particular for a
    target symbol with an empty class).  All three symbols are
    validated.
    """
    _check_symbol(pp, g2)
    for h, size in split_partners(pp, g, g1):
        if h == g2:
            return size
    return 0


class SymbolLayout:
    """What the count tables and the chain walk read of the symbols of
    one modulus: ``syms``, the inhabited symbols in enumerate_symbols
    order; ``finite``, (g, class size, negated symbol) for the finite
    ones; and ``band[o]``, the finite g1 less than G orders from o.  It
    does not change after construction: near cells are computed by rule
    (``_near_partners``) wherever they are read.
    """

    def __init__(self, pp: PrimePower):
        self.pp, self.gap = pp, _split_gap(pp)
        self.syms = [g for g in enumerate_symbols(pp) if not _is_empty(pp, g)]
        self.finite = [(g, _class_size(pp, g), _negated_symbol(pp, g)) for g in self.syms[1:]]
        by_order: list[list[PkSymbol]] = [[] for _ in range(pp.k)]
        for g, _, _ in self.finite:
            by_order[g.ord].append(g)
        self.band = [sum(by_order[max(0, o - self.gap + 1) : o + self.gap], []) for o in range(pp.k)]
        self._negated = {g: [(neg, size)] for g, size, neg in self.finite}

    def partners(self, g: PkSymbol, g1: PkSymbol) -> list[tuple[PkSymbol, int]]:
        """split_partners(pp, g, g1) for inhabited g and g1."""
        if g1.ord == INF:
            return [(g, 1)]
        if g.ord == INF:
            return self._negated[g1]
        near = _near_partners(self.pp, g, g1)
        if g1 != g:
            return near
        far = [(g2, size) for g2, size, _ in self.finite if g2.ord >= g.ord + self.gap]
        return [(SYMBOL_ZERO, 1), *near, *far]
