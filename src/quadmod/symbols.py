"""p^k-symbols: square classes of Z/p^k and their pair-splitting counts.

The symbol of t mod p^k is the pair (ord, sgn): p-adic order together
with the sign of the coprime part (Legendre symbol for odd p, residue
mod 8 for p = 2).  Two elements share a symbol iff they differ by a
unit-square factor, so representation counts depend on targets only
through their symbol.

The convolution kernel that glues per-block counts together is the
split size: for a target t of symbol g, the number of pairs (a, b) with
prescribed symbols g1, g2 and a + b = t.  A ``SymbolLayout`` numbers
the inhabited symbols of one modulus, order by order: the count tables
are lists indexed by those positions, and the layout holds, per
position, the order, the class size and the position of the negated
symbol.  Its ``partners`` is the single source of split cells: given
the positions of (g, g1) it lists only the g2 with a non-zero size, as
(position, size), which is one symbol except when ord(g1) = ord(g).
``split_partners`` is the same list by symbol, and ``split_class_size``
looks one triple up in it.

Beyond an order gap G (3 for p = 2, where three bits of the coprime
part fix the sign; 1 for odd p) a cell no longer depends on signs or
exact orders: a g1 at least G orders above g pairs only with g, a g1 at
least G below only with -g1, both with size |g1|, and g1 = g pairs with
every g2 at least G above, with size |g2| (the zero symbol counts as
above every order).  The near cells, within the gap, come from the
signs in closed form (for p = 2 and equal orders, from one congruence
on the signs), so a cell costs a few integer operations wherever it is
read.  The chain walk and the count of one target read ``partners``;
the count tables do not read it at all: they sum the far cells by order
and the near cells by sign class in closed form (counting._convolve),
so one level of their dynamic program costs O(S) products.  Each
prepared form owns its layout; the module itself keeps no state between
calls.
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
    if g.ord == INF:
        return 1
    if _is_empty(pp, g):
        return 0
    m = pp.k - g.ord
    if pp.p != 2:
        return (pp.p - 1) // 2 * pp.p ** (m - 1)
    return 2 ** (m - 3) if m >= 3 else 1


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


def split_partners(pp: PrimePower, g: PkSymbol, g1: PkSymbol) -> list[tuple[PkSymbol, int]]:
    """The non-zero split sizes at (g, g1), as (g2, size) in enumerate_symbols order.

    size = |{(a, b) : symbol(a) = g1, symbol(b) = g2, a + b = t mod p^k}|,
    the same for every t of symbol g; every g2 whose size is 0 is left
    out, and every listed g2 has a non-empty class.  An empty target or
    g1 class has no pairs at all.  Both symbols are validated; the cells
    are SymbolLayout.partners, read back as symbols.
    """
    _check_symbol(pp, g)
    _check_symbol(pp, g1)
    if _is_empty(pp, g) or _is_empty(pp, g1):
        return []  # before index, which knows only inhabited symbols
    layout = SymbolLayout(pp)
    return [(layout.syms[i2], size) for i2, size in layout.partners(layout.index(g), layout.index(g1))]


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
    """The positions of the inhabited symbols of one modulus, which index
    every count table: ``syms[i]`` is the symbol at position i, in
    enumerate_symbols order (the zero symbol at 0), and per position
    ``ords`` holds its order (k for the zero symbol), ``sizes`` its class
    size and ``neg`` the position of its negated symbol.  The symbols of
    order o sit at positions first[o] <= i < first[o + 1], with signs
    ascending for p = 2 and 1 before -1 for odd p; ``gap`` is the order
    gap G.  Built order by order, and unchanged after construction:
    ``partners`` computes every split cell by rule wherever it is read.
    """

    def __init__(self, pp: PrimePower):
        p, k = pp.p, pp.k
        self.pp, self.gap = pp, 3 if p == 2 else 1
        self.syms, self.ords, self.sizes, self.neg = [SYMBOL_ZERO], [k], [1], [0]
        self.first: list[int] = []
        for o in range(k):
            lo = len(self.syms)
            self.first.append(lo)
            if p == 2:
                m = min(8, 2 ** (k - o))
                signs, size = range(1, m, 2), 2 ** (k - o - 3) if k - o >= 3 else 1
                neg = [lo + (-s % m >> 1) for s in signs]
            else:
                signs, size = (1, -1), (p - 1) // 2 * p ** (k - o - 1)
                neg = [lo, lo + 1] if p % 4 == 1 else [lo + 1, lo]
            self.syms += [PkSymbol(o, s) for s in signs]
            self.ords += [o] * len(signs)
            self.sizes += [size] * len(signs)
            self.neg += neg
        self.first.append(len(self.syms))

    def index(self, g: PkSymbol) -> int:
        """The position of the inhabited symbol g."""
        if g.ord == INF:
            return 0
        return self.first[g.ord] + (g.sgn >> 1 if self.pp.p == 2 else g.sgn < 0)

    def partners(self, i: int, i1: int) -> list[tuple[int, int]]:
        """The non-zero split sizes at (syms[i], syms[i1]), as
        (position, size) in position order.

        Case analysis on the orders (a + b = t forces the two smallest of
        the three orders to be equal), for t of symbol g = syms[i]:

        * a = 0: the pair is (0, t), so g2 = g with one pair.
        * t = 0: pairs are (a, -a), so g2 is the negated class of g1 and
          every a in the g1-class works.
        * ord(g1) != ord(t): a determines b = t - a, whose symbol is a
          single g2: the lower order wins, with the sign of the leading
          coprime part (for p = 2 read modulo min(8, 2^(k - ord)), the
          bits that survive near the top of the ring); at least G
          orders apart that is g or -g1.  The size is the g1-class size.
        * ord(g1) = ord(t): b = t - a has order >= ord(t).  b = 0 needs
          g1 = g (one pair).  The rest are the near cells (_near), and,
          when g1 = g, every inhabited symbol of order >= ord(g) + G,
          each with the size of its class.
        """
        if i1 == 0:
            return [(i, 1)]
        size = self.sizes[i1]
        if i == 0:
            return [(self.neg[i1], size)]
        o, o1 = self.ords[i], self.ords[i1]
        if o1 >= o + self.gap:
            return [(i, size)]
        if o1 <= o - self.gap:
            return [(self.neg[i1], size)]
        if o1 != o:  # only for p = 2 (G = 3): the difference's sign, mod 2 * slots
            s, s1 = self.syms[i].sgn, self.syms[i1].sgn
            lo, sgn = (o, s - (s1 << o1 - o)) if o1 > o else (o1, (s << o - o1) - s1)
            return [(self.first[lo] + (sgn % (2 * (self.first[lo + 1] - self.first[lo])) >> 1), size)]
        near = self._near(i, i1, o)
        if i1 != i:
            return near
        far = self.first[min(o + self.gap, self.pp.k)]
        return [(0, 1), *near, *zip(range(far, len(self.syms)), self.sizes[far:])]

    def _near(self, i: int, i1: int, o: int) -> list[tuple[int, int]]:
        """The partners of finite order below o + G at two symbols of one
        finite order o, in position order.

        Odd p: b of order o, whose two signs reduce to the mod-p unit
        count with the Legendre substitution, scaled by p^(k-o-1) free
        digits.  p = 2 has none (two units sum to an even number); a
        partner of order o + delta (delta = 1, 2, below k) is one whose
        difference with g has symbol g1: s - 2^delta s2 = s1 modulo
        m = min(8, 2^(k - o)), for the signs s, s1, s2 of g, g1, g2.  As
        m >= 2^(delta + 1), that asks d = s - s1 (mod m) to be 2^delta
        times an odd e, and then s2 = e modulo m / 2^delta; the solutions
        are the inhabited signs of order o + delta in that residue class.
        """
        p, k, first = self.pp.p, self.pp.k, self.first
        s, s1 = self.syms[i].sgn, self.syms[i1].sgn
        out = []
        if p != 2:
            scale = p ** (k - o - 1)
            for j, s2 in enumerate((1, -1)):
                mod_p = split_pair_count_mod_p(p, s1, s2, s)
                if mod_p:
                    out.append((first[o] + j, mod_p * scale))
            return out
        m = min(8, 2 ** (k - o))
        d = (s - s1) % m
        for delta in range(1, min(3, k - o)):
            e = d >> delta
            if d & ((1 << delta) - 1) or not e & 1:
                continue
            lo, hi = first[o + delta], first[o + delta + 1]
            out.extend((lo + (s2 >> 1), self.sizes[lo]) for s2 in range(e, 2 * (hi - lo), m >> delta))
        return out
