"""p^k-symbols: square classes of Z/p^k and their pair-splitting counts.

The symbol of t mod p^k is the pair (ord, sgn): p-adic order together
with the sign of the coprime part (Legendre symbol for odd p, residue
mod 8 for p = 2).  Two elements share a symbol iff they differ by a
unit-square factor, so representation counts depend on targets only
through their symbol.

The chain walk splits a target between a block and the rest by the
split size: for a target t of symbol g, the number of pairs (a, b) with
prescribed symbols g1, g2 and a + b = t.  A ``SymbolLayout`` numbers
the inhabited symbols of one modulus, order by order: the count tables
are lists indexed by those positions.  The layout holds O(k) word-sized
ints: per position the order, the sign and the position of the negated
symbol (each order's slots reversed, or kept when p = 1 mod 4), and per
order its first position.  It makes a class size, by the rule
class_size also reads, and a symbol from a position only where one is
returned.  Its ``partners`` is the single source of split cells: given
the positions of (g, g1) it yields only the g2 with a non-zero size, as
(position, size), which is one symbol except when ord(g1) = ord(g).
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
from typing import Iterable, NamedTuple

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
    allowed = (1, 3, 5, 7) if pp.p == 2 else (1, -1)
    if g.sgn not in allowed:
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
    sgn = cop % 8 if pp.p == 2 else legendre(cop, pp.p)
    return PkSymbol(ord_, sgn)


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
    return 0 if _is_empty(pp, g) else _size(pp.p, pp.k, pp.k if g.ord == INF else g.ord)


def _size(p: int, k: int, o: int) -> int:
    """The size of an inhabited class of order o (class_size), 1 at o = k."""
    return 1 if o == k else (p - 1) // 2 * p ** (k - o - 1) if p != 2 else 1 << max(k - o - 3, 0)


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
    classes is empty.  All three symbols are validated.
    """
    for h in (g, g1, g2):
        _check_symbol(pp, h)
    if any(_is_empty(pp, h) for h in (g, g1, g2)):
        return 0  # before index, which knows only inhabited symbols
    layout = SymbolLayout(pp)
    j, cells = layout.index(g2), layout.partners(layout.index(g), layout.index(g1))
    return next((size if i2 == j else 0 for i2, size in cells if i2 >= j), 0)  # cells in position order


class SymbolLayout:
    """The positions of the inhabited symbols of one modulus, in
    enumerate_symbols order, which index every count table: the zero
    symbol at 0, then order o at first[o] <= i < first[o + 1], one slot
    x = i - first[o] per sign (2x + 1 for p = 2, in min(4, 2^(k-o-1))
    slots; 1, -1 for odd p).  It holds O(k) word-sized ints: ``first``,
    and per position ``ords``, the order (k at 0), ``sgns``, the sign (0
    at 0), and ``neg``, the negated symbol: the slots of each order
    reversed, or kept when p = 1 mod 4, where -1 is a square.  ``gap``
    is the order gap G.  Nothing changes after construction: ``size``
    makes a class size and ``partners`` every split cell by rule.
    """

    def __init__(self, pp: PrimePower):
        p, k = pp.p, pp.k
        self.pp, self.gap = pp, 3 if p == 2 else 1
        first, ords, sgns, neg = [0] * (k + 1), [k], [0], [0]
        for o in range(k):
            lo, slots = len(ords), 2 if p != 2 else min(4, 1 << (k - o - 1))
            first[o] = lo
            ords += [o] * slots
            sgns += (1, 3, 5, 7)[:slots] if p == 2 else (1, -1)
            neg += range(lo, lo + slots) if p % 4 == 1 else range(lo + slots - 1, lo - 1, -1)
        first[k] = len(ords)
        self.first, self.ords, self.sgns, self.neg = first, ords, sgns, neg

    def __len__(self) -> int:
        return len(self.ords)

    def size(self, o: int) -> int:
        """The size of the classes of order o, 1 at o = k (the zero symbol)."""
        return _size(self.pp.p, self.pp.k, o)

    def at(self, o: int, s: int) -> int:
        """The position of the symbol of finite order o and sign s (1 or
        -1 for odd p; for p = 2 any odd s, read modulo min(8, 2^(k - o)))."""
        lo = self.first[o]
        if self.pp.p == 2:
            return lo + (s % (2 * (self.first[o + 1] - lo)) >> 1)
        return lo + (s < 0)

    def index(self, g: PkSymbol) -> int:
        """The position of the inhabited symbol g."""
        return 0 if g.ord == INF else self.at(g.ord, g.sgn)

    def symbol(self, i: int) -> PkSymbol:
        """The symbol at position i."""
        return PkSymbol(self.ords[i], self.sgns[i]) if i else SYMBOL_ZERO

    def partners(self, i: int, i1: int) -> Iterable[tuple[int, int]]:
        """The non-zero split sizes at (symbol(i), symbol(i1)), as
        (position, size) in position order.

        Case analysis on the orders (a + b = t forces the two smallest of
        the three orders to be equal), for t of symbol g = symbol(i):

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
          when g1 = g, every inhabited symbol of order >= ord(g) + G,
          each with the size of its class, made as the run is read.
        """
        if i1 == 0:
            return [(i, 1)]
        o1 = self.ords[i1]
        if i == 0:
            return [(self.neg[i1], self.size(o1))]
        o = self.ords[i]
        if o1 >= o + self.gap:
            return [(i, self.size(o1))]
        if o1 <= o - self.gap:
            return [(self.neg[i1], self.size(o1))]
        near = self.near(i, i1)
        if i1 != i:
            return near
        first = self.first
        far = (zip(range(first[u], first[u + 1]), repeat(self.size(u))) for u in range(o + self.gap, self.pp.k))
        return chain([(0, 1)], near, chain.from_iterable(far))

    def near(self, i: int, i1: int) -> list[tuple[int, int]]:
        """The partners of finite order below ord(g) + G at two finite
        symbols g = symbol(i), g1 = symbol(i1) less than G orders apart,
        in position order: all of partners(i, i1) but, when g1 = g, the
        zero symbol and the orders >= ord(g) + G.

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
        p, k, first, out = self.pp.p, self.pp.k, self.first, []
        o, o1 = self.ords[i], self.ords[i1]
        if o1 != o:  # the sign of the difference
            s, s1 = 2 * (i - first[o]) + 1, 2 * (i1 - first[o1]) + 1
            return [(self.at(o, s - (s1 << o1 - o)) if o1 > o else self.at(o1, (s << o - o1) - s1), self.size(o1))]
        if p != 2:
            lo, scale = first[o], p ** (k - o - 1)
            s, s1 = (1, -1)[i - lo], (1, -1)[i1 - lo]
            for j, s2 in enumerate((1, -1)):
                mod_p = split_pair_count_mod_p(p, s1, s2, s)
                if mod_p:
                    out.append((lo + j, mod_p * scale))
            return out
        m = min(8, 2 ** (k - o))
        d = 2 * (i - i1) % m  # s - s1, from the slots 2x + 1 of one order
        for delta in range(1, min(3, k - o)):
            e = d >> delta
            if d & ((1 << delta) - 1) or not e & 1:
                continue
            lo, hi = first[o + delta], first[o + delta + 1]
            out += zip(range(lo + (e >> 1), hi, m >> (delta + 1)), repeat(self.size(o + delta)))  # slots (s2 - 1) / 2
        return out
