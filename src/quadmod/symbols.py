"""p^k-symbols: square classes of Z/p^k and their pair-splitting counts.

The symbol of t mod p^k is the pair (ord, sgn): p-adic order together
with the sign of the coprime part (Legendre symbol for odd p, residue
mod 8 for p = 2).  Two elements share a symbol iff they differ by a
unit-square factor, so representation counts depend on targets only
through their symbol.

The chain walk splits a target between a block and the rest by the
split size: for a target t of symbol g, the number of pairs (a, b) with
prescribed symbols g1, g2 and a + b = t.  A ``SymbolLayout`` gives the
inhabited symbols of one modulus, in enumerate_symbols order, by rule:
it holds the modulus and the order gap and nothing per order, and makes
a symbol, its negation or a class size from an order and a sign where
one is read.  Its ``partners`` is the single source of split cells:
given (g, g1) it yields only the g2 with a non-zero size, as (g2,
size), which is one symbol except when ord(g1) = ord(g).
``split_class_size`` looks one triple of symbols up in it.

Beyond an order gap G (3 for p = 2, where three bits of the coprime
part fix the sign; 1 for odd p) a cell no longer depends on signs or
exact orders: a g1 at least G orders above g pairs only with g, a g1 at
least G below only with -g1, both with size |g1|, and g1 = g pairs with
every g2 at least G above, with size |g2| (the zero symbol counts as
above every order).  The near cells, within the gap, come from the
signs in closed form (for p = 2 and equal orders, from one congruence
on the signs), so a cell costs a few integer operations wherever it is
read.  The chain walk reads ``partners``; the counts and the count
tables read no cell, as they come from Gauss sums (gauss module).
Each prepared form owns its layout; the module keeps no state between
calls.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from .modring import INF, DomainError, PrimePower, legendre, valuation

Ordinal = int | float  # finite order or INF


class PkSymbol(NamedTuple):
    """(p-adic order, square-class sign) of an element of Z/p^k."""

    ord: Ordinal
    sgn: int


SYMBOL_ZERO = PkSymbol(INF, 0)


def _check_symbol(pp: PrimePower, g: PkSymbol) -> None:
    """An order is INF or an int, and a sign an int, of type int exactly."""
    if type(g.sgn) is not int:
        raise DomainError(f"sign must be an int, got {type(g.sgn).__name__}")
    if g.ord == INF:
        if g.sgn != 0:
            raise DomainError(f"order INF must carry sign 0, got sign {_shown(g.sgn)}")
        return
    if type(g.ord) is not int:
        raise DomainError(f"order must be an int or INF, got {type(g.ord).__name__}")
    if not 0 <= g.ord < pp.k:
        raise DomainError(f"order {_shown(g.ord)} out of range for k={pp.k}")
    if g.sgn not in ((1, 3, 5, 7) if pp.p == 2 else (1, -1)):
        raise DomainError(f"sign {_shown(g.sgn)} invalid for p={pp.p}")


def _shown(v) -> str:
    """v as an error message names it: an int of more than 64 bits by its
    size, as printing an int past 4300 digits raises ValueError."""
    return f"of {v.bit_length()} bits" if isinstance(v, int) and v.bit_length() > 64 else str(v)


def symbol_of(pp: PrimePower, t: int) -> PkSymbol:
    """The symbol (ord, sgn) of t mod p^k."""
    if type(t) is not int:
        raise DomainError(f"t must be an int, got {type(t).__name__}")
    r = t % pp.q
    if r == 0:
        return SYMBOL_ZERO
    ord_, cop = valuation(pp, r)
    return PkSymbol(ord_, cop % 8 if pp.p == 2 else legendre(cop, pp.p))


def enumerate_symbols(pp: PrimePower) -> list[PkSymbol]:
    """All formal symbols: 4k+1 of them for p=2, 2k+1 for odd p.

    For p = 2 the classes with k - ord <= 2 admit fewer sign values, so
    some listed symbols have empty classes; class_size reports 0 there.
    """
    signs = (1, 3, 5, 7) if pp.p == 2 else (1, -1)
    return [SYMBOL_ZERO, *(PkSymbol(i, s) for i in range(pp.k) for s in signs)]


def class_size(pp: PrimePower, g: PkSymbol) -> int:
    """|{x in Z/p^k : symbol(x) = g}|.

    Odd p: (p-1)/2 * p^(k-ord-1).  p = 2: 2^(k-ord-3) once k-ord >= 3;
    below that the coprime part lives mod 2 or mod 4, so only sgn = 1
    (resp. 1 or 3) is inhabited, with one element each.  Empty formal
    symbols report 0, keeping the partition sum equal to p^k.
    """
    _check_symbol(pp, g)
    return 0 if _is_empty(pp, g) else SymbolLayout(pp).size(pp.k if g.ord == INF else g.ord)


def _is_empty(pp: PrimePower, g: PkSymbol) -> bool:
    """Is the class of the well-formed symbol g empty?  Only for p = 2:
    below three free bits the coprime part is canonical below 2^(k-ord),
    and sgn is its value mod 8, so only residues below 2^(k-ord) occur."""
    return pp.p == 2 and g.ord != INF and pp.k - g.ord < 3 and g.sgn >= 2 ** (pp.k - g.ord)


def split_pair_count_mod_p(p: int, leg_a: int, s1: int, s2: int) -> int:
    """Count x mod p (odd p) with (x/p) = s1 and ((x+a)/p) = s2, given (a/p) = leg_a.

    Closed form: (p - (p mod 4) - (leg_a + s1)(leg_a*(-1/p) + s2)) / 4.
    """
    if p == 2:
        raise DomainError("split_pair_count_mod_p needs an odd prime")
    minus_one = 1 if p % 4 == 1 else -1
    return (p - (p % 4) - (leg_a + s1) * (leg_a * minus_one + s2)) // 4


def split_class_size(pp: PrimePower, g: PkSymbol, g1: PkSymbol, g2: PkSymbol) -> int:
    """|{(a, b) : symbol(a) = g1, symbol(b) = g2, a + b = t mod p^k}|.

    Well-defined for any t with symbol g: the size SymbolLayout.partners
    lists for g2, or 0 when it does not list g2 or when any of the three
    classes is empty.  All three symbols are validated.  A g2 in the far
    run of g1 = g is sized by its order; any other is looked up in the
    partners only up to its order, so no cell of the far run is made.
    """
    for h in (g, g1, g2):
        _check_symbol(pp, h)
    if any(_is_empty(pp, h) for h in (g, g1, g2)):
        return 0  # partners lists only inhabited symbols
    layout = SymbolLayout(pp)
    if g1 == g and g.ord + layout.gap <= g2.ord < pp.k:
        return layout.size(g2.ord)
    cells = layout.partners(g, g1)  # the zero symbol first, then by ascending order
    return next((size if h == g2 else 0 for h, size in cells if h == g2 or g2.ord < h.ord < INF), 0)


class SymbolLayout:
    """The inhabited symbols of one modulus, in enumerate_symbols order,
    by rule: iterating the layout yields the zero symbol, then order by
    order the symbols of each sign (signs).  It holds the modulus and
    ``gap``, the order gap G, and nothing per order: ``symbol``, ``neg``
    and ``size`` make a symbol, its negation and a class size, and
    ``partners`` every split cell, each from its order and sign.
    """

    def __init__(self, pp: PrimePower):
        self.pp, self.gap = pp, 3 if pp.p == 2 else 1

    def __iter__(self) -> Iterator[PkSymbol]:
        yield SYMBOL_ZERO
        for o in range(self.pp.k):
            yield from map(PkSymbol, repeat(o), self.signs(o))

    def signs(self, o: int) -> tuple[int, ...]:
        """The signs of the inhabited symbols of finite order o: 1, -1 for
        odd p; for p = 2 the odd residues below min(8, 2^(k - o)), the
        bits of the coprime part that survive below p^k."""
        return (1, -1) if self.pp.p != 2 else (1, 3, 5, 7)[: 1 << min(self.pp.k - o - 1, 2)]

    def size(self, o: int) -> int:
        """The size of the inhabited classes of order o, 1 at o = k (the
        zero symbol)."""
        p, k = self.pp.p, self.pp.k
        return 1 if o == k else (p - 1) // 2 * p ** (k - o - 1) if p != 2 else 1 << max(k - o - 3, 0)

    def symbol(self, o: int, s: int) -> PkSymbol:
        """The symbol of finite order o and sign s (1 or -1 for odd p; for
        p = 2 any odd s, read modulo min(8, 2^(k - o)))."""
        return PkSymbol(o, s if self.pp.p != 2 else s % (2 << min(self.pp.k - o - 1, 2)))

    def neg(self, g: PkSymbol) -> PkSymbol:
        """The symbol of -x for x of symbol g: g itself when p = 1 mod 4,
        where -1 is a square, and at the zero symbol, else of the negated
        sign."""
        return g if g.ord == INF or self.pp.p % 4 == 1 else self.symbol(g.ord, -g.sgn)

    def partners(self, g: PkSymbol, g1: PkSymbol) -> Iterable[tuple[PkSymbol, int]]:
        """The non-zero split sizes at the inhabited symbols (g, g1), as
        (g2, size) in enumerate_symbols order.

        Case analysis on the orders (a + b = t forces the two smallest of
        the three orders to be equal), for t of symbol g:

        * a = 0: the pair is (0, t), so g2 = g with one pair.
        * t = 0: pairs are (a, -a), so g2 is the negated class of g1 and
          every a in the g1-class works.
        * ord(g1) != ord(t): a determines b = t - a, whose symbol is a
          single g2: the lower order wins, with the sign of the leading
          coprime part (for p = 2 read modulo min(8, 2^(k - ord)), the
          bits that survive near the top of the ring); at least G
          orders apart that is g or -g1.  The size is the g1-class size.
        * ord(g1) = ord(t): b = t - a has order >= ord(t).  b = 0 needs
          g1 = g (one pair).  The rest are the near cells (near), and,
          when g1 = g, the far run: every inhabited symbol of order
          >= ord(g) + G, each with the size of its class, made as the run
          is read.
        """
        if g1.ord == INF:
            return [(g, 1)]
        o, o1 = g.ord, g1.ord
        if o1 >= o + self.gap:
            return [(g, self.size(o1))]
        if o1 <= o - self.gap:  # and t = 0, whose order is INF
            return [(self.neg(g1), self.size(o1))]
        near = self.near(g, g1)
        if g1 != g:
            return near
        orders = range(o + self.gap, self.pp.k)
        far = (zip(map(PkSymbol, repeat(u), self.signs(u)), repeat(self.size(u))) for u in orders)
        return chain([(SYMBOL_ZERO, 1)], near, chain.from_iterable(far))

    def near(self, g: PkSymbol, g1: PkSymbol) -> list[tuple[PkSymbol, int]]:
        """The partners of finite order below ord(g) + G at two finite
        symbols g and g1 less than G orders apart, in enumerate_symbols
        order: all of partners(g, g1) but, when g1 = g, the zero symbol
        and the far run.

        Unequal orders (p = 2 only): the one partner is the symbol of the
        difference, the lower order with the leading sign.  Equal orders
        o, odd p: b of order o, whose two signs reduce to the mod-p unit
        count with the Legendre substitution, scaled by p^(k-o-1) free
        digits.  p = 2 has none of order o (two units sum to an even
        number); a partner of order o + delta (delta = 1, 2, below k) is
        one whose difference with g has symbol g1: s - 2^delta s2 = s1
        modulo m = min(8, 2^(k - o)), for the signs s, s1, s2 of g, g1,
        g2.  As m >= 2^(delta + 1), that asks d = s - s1 (mod m) to be
        2^delta times an odd e, and then s2 = e modulo m / 2^delta; the
        solutions are the inhabited signs of order o + delta in that
        residue class.
        """
        p, k, out = self.pp.p, self.pp.k, []
        (o, s), (o1, s1) = g, g1
        if o1 != o:  # the lower order, with the sign of the difference
            low, sign = (o, s - (s1 << o1 - o)) if o1 > o else (o1, (s << o - o1) - s1)
            return [(self.symbol(low, sign), self.size(o1))]
        if p != 2:
            scale = p ** (k - o - 1)
            cells = ((PkSymbol(o, s2), split_pair_count_mod_p(p, s1, s2, s) * scale) for s2 in (1, -1))
            return [cell for cell in cells if cell[1]]
        m = 2 << min(k - o - 1, 2)
        d = (s - s1) % m
        for delta in range(1, min(3, k - o)):
            e, u = d >> delta, o + delta
            if e & 1 and not d & ((1 << delta) - 1):
                signs = self.signs(u)[e >> 1 :: m >> (delta + 1)]  # s2 = e modulo m / 2^delta
                out += zip(map(PkSymbol, repeat(u), signs), repeat(self.size(u)))
        return out
