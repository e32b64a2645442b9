"""Exact solution counts for x'Qx = t over Z/p^k and Z/q.

A count reads N_k(t) = #{x mod p^k : x'Qx = t} off the blocks of Q
through the finite Fourier identity, whose terms come from the blocks'
quadratic Gauss sums in closed form (the gauss module).  Every term
above the level L = ord t + 1 + 2 [p = 2] is 0, so N_k(t) =
p^((n - 1)(k - L)) N_L(t) for k >= L: a one-off count (count_form,
count_composite, and local_density through count_form) diagonalizes
each factor at min(k, L) and scales.  A non-primitive x is p y, and
x'Qx = p^2 y'Qy, so the non-primitive count is p^n N_(k-2)(t / p^2)
when p^2 | t, and 0 when not (at k = 1: 1 at t = 0 mod p, else 0).

A draw takes the count it draws below from the same Gauss sums, but it
needs more than N(t): each step of the chain walk weighs split cells by
counts at target symbols, and those come from tables.
Per-block closed forms (1x1 blocks for any p, 2x2 blocks for p = 2)
are glued together by a dynamic program over p^k-symbols: the count of
a direct sum at target symbol g is the sum over symbol pairs (g1, g2)
of the split size (g; g1, g2) times the factors' counts.  Only the
totals go through that convolution.  A non-primitive vector is p times
another, so a level's non-primitive counts are its totals two orders
down, scaled by a power of p (_nonprimitive); primitive = total -
non-primitive.

Every table is two parallel int lists, total and non-primitive counts,
indexed by the position of the target symbol in its SymbolLayout
(layout.symbol(i) is the symbol at position i); the primitive count is
total - non-primitive wherever it is read.  No kernel looks an entry up
by its symbol: symbols and {symbol: RepCounts} dicts are made only at
the public boundary (PreparedForm.table, symbol_table).

Each level of the program splits the cells by the order gap G (3 for
p = 2, 1 for odd p).  A cell whose g1 or g2 lies at least G orders from
ord(g) has a partner and a size fixed by the orders alone, so all such
cells of every target come from three running sums by order.  The near
cells, g1 within G of ord(g) paired with the finite partners below
ord(g) + G, come in closed form from per-order sums by sign class, with
no list of partners (_level_odd, _level_two).  One pass down the orders
and one up build a level's totals: O(S) big-integer products over the S
symbols, where the full convolution made one per non-zero (g, g1, g2)
cell.  One more pass reads its non-primitive list off those totals.

``prepare`` diagonalizes a form; its layout and tables are built on
their first read, which a draw's walk makes and a count does not: each
block's table, filled order by order, and the levels of the tail after
the first block the walk peels, a highest-order one
(PreparedForm.walk_order).  The tables give a draw only its walk's
weights: the walk's first step weighs the cells of the top level, from
the head block's table and the first tail, and those weights sum to
the Gauss-sum count.  PreparedForm.table builds the top level in full.
Draws and tables stay at level k.  A composite modulus is a list of
prepared factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .blockdiag import (
    Block,
    BlockDiagForm,
    TypeI,
    block_diagonalize,
    check_symmetric,
    integer_det,
)
from .gauss import Tallies, block_tallies, solutions
from .modring import INF, DomainError, PrimePower, legendre, valuation
from .symbols import SYMBOL_ZERO, PkSymbol, SymbolLayout

Matrix = list[list[int]]


class RepCounts(NamedTuple):
    total: int
    primitive: int
    nonprimitive: int


# (total, non-primitive) counts at every position of a SymbolLayout:
# the entry at position i is the count at target symbol layout.symbol(i)
Table = tuple[list[int], list[int]]


class SingularForm(DomainError):
    """det Q = 0, so the local density is undefined."""


class ZeroTarget(DomainError):
    """t = 0 has no stabilizing level; the local density is undefined."""


def symbol_table(layout: SymbolLayout, table: Table) -> dict[PkSymbol, RepCounts]:
    """A table as {symbol: RepCounts} in position order, the form in
    which the public functions return tables."""
    return {layout.symbol(i): RepCounts(tot, tot - np_, np_) for i, (tot, np_) in enumerate(zip(*table))}


def _type2_seeds(a: int, b: int, c: int) -> tuple[int, int]:
    """How many of the three odd-parity seeds (x, y) = (0,1), (1,0), (1,1)
    give a x^2 + b xy + c y^2 an even value, and how many an odd one."""
    odd = (c & 1) + (a & 1) + ((a + b + c) & 1)
    return 3 - odd, odd


def _count_scaled_type2(a: int, b: int, c: int, t2: int, k2: int) -> tuple[int, int]:
    """(prim, nprim) for a*x^2 + b*xy + c*y^2 = t2 over (Z/2^k2)^2, b odd."""
    return _scaled_type2_counts(_type2_seeds(a, b, c), t2, k2)


def _scaled_type2_counts(seeds: tuple[int, int], t2: int, k2: int) -> tuple[int, int]:
    """_count_scaled_type2 given the form's _type2_seeds.

    Primitive: each of the three odd-parity seeds that matches t2 mod 2
    lifts to exactly 2^(k2-1) solutions (the odd coordinate lets every
    next bit be corrected).  Non-primitive: both coordinates even forces
    t2 = 0 mod 4 and reduces to the same form at modulus 2^(k2-2), each
    solution there giving 4 (the dropped top bits of x and y).

    The reduction is applied in closed form, so k2 is not bounded by
    any stack: it repeats L = min(k2, ord t2) // 2 times, the level it
    stops at is solved directly, and each of the L levels passed adds
    its primitive count times 4^level, which is the top level's
    primitive count every time (the target stays even there, and
    4^j * 2^(k2-2j-1) = 2^(k2-1)).  So the counts read t2 only through
    its order and the parity of t2 / 4^L.
    """
    ord_t = (t2 & -t2).bit_length() - 1 if t2 else k2
    levels = min(k2, ord_t) // 2
    k_last = k2 - 2 * levels
    t_last = t2 >> (2 * levels)
    if k_last == 0:
        prim_last, total_last = 0, 1  # trivial ring: the empty congruence has one solution
    else:
        prim_last = seeds[t_last & 1] << (k_last - 1)
        total_last = prim_last + (1 if k_last == 1 and t_last % 2 == 0 else 0)
    if levels == 0:
        return prim_last, total_last - prim_last
    prim = seeds[t2 & 1] << (k2 - 1)
    return prim, (levels - 1) * prim + 4**levels * total_last


def block_table(blk: Block, layout: SymbolLayout) -> Table:
    """The block's counts at every position g of the layout, in closed
    form, filled order by order.  A type I block d = p^e u reaches one
    symbol in each order o = e, e + 2, ... below k, the one of u's square
    class: its Legendre symbol for odd p, and u itself for p = 2, which
    layout.at reads modulo min(8, 2^(k - ord)).  There x = p^((o-e)/2) y
    with y a unit root of the unit parts (2 of them for odd p; for p = 2,
    4 once k - o >= 3, else k - o) and (o + e)/2 free digits, primitive
    exactly at o = e; t = 0 takes the p^((k + e) // 2) x of order at
    least (k - e)/2, and d = 0 mod p^k every x.  A type II
    block's counts read the target only through its order (see
    _scaled_type2_counts), so each order takes one value, at
    t2 = 2^(ord - ell - 1), and the seeds are evaluated once per block."""
    pp, first = layout.pp, layout.first
    p, k = pp.p, pp.k
    total, nprim = [0] * len(layout), [0] * len(layout)
    if isinstance(blk, TypeI):
        ord_d, cop_d = valuation(pp, blk.d % pp.q)
        if ord_d == INF:
            total[0], nprim[0] = p**k, p ** (k - 1)
            return total, nprim
        total[0] = nprim[0] = p ** ((k + ord_d) // 2)
        sgn = cop_d if p == 2 else legendre(cop_d, p)
        for o in range(ord_d, k, 2):
            i, mult = layout.at(o, sgn), 2 if p != 2 else 4 if k - o >= 3 else k - o
            total[i] = mult * p ** ((o + ord_d) // 2)
            if o > ord_d:
                nprim[i] = total[i]
        return total, nprim
    if blk.ell + 1 >= k:
        total[0], nprim[0] = 4**k, 4 ** (k - 1)
        return total, nprim
    k2, scale, seeds = k - blk.ell - 1, 4 ** (blk.ell + 1), _type2_seeds(blk.a, blk.b, blk.c)
    for o in range(blk.ell + 1, k + 1):
        prim, np_ = _scaled_type2_counts(seeds, 1 << (o - blk.ell - 1) if o < k else 0, k2)
        lo, hi = (first[o], first[o + 1]) if o < k else (0, 1)
        total[lo:hi] = [scale * (prim + np_)] * (hi - lo)
        nprim[lo:hi] = [scale * np_] * (hi - lo)
    return total, nprim


def chain_tables(blocks: tuple[Block, ...], layout: SymbolLayout) -> tuple[list[Table], list[Table]]:
    """Per-block and suffix count tables, one entry per inhabited symbol.

    suffix[j], at the position of g in the layout, counts representations
    of (any target of symbol g) by the direct sum of blocks[j:].  Built back to front: the target
    splits as a value hit by the head block plus one hit by the tail,
    and each level is the split convolution of the head's table with
    the tail's, in the level's number of variables.  No blocks give no
    tables.
    """
    per_block = [block_table(blk, layout) for blk in blocks]
    suffix: list[Table] = per_block[-1:]
    m = sum(blk.dim for blk in blocks[-1:])
    for blk, head in zip(reversed(blocks[:-1]), reversed(per_block[:-1])):
        m += blk.dim
        suffix.append(_convolve(layout, head, suffix[-1], m))
    suffix.reverse()
    return per_block, suffix


def _convolve(layout: SymbolLayout, head: Table, tail: Table, m: int) -> Table:
    """The level step of chain_tables: the table of head + tail, in m
    variables in all.  Its total at g sums split size times h(g1) times
    c(g2) over the split cells (g1, g2) of the totals; its non-primitive
    list follows from those totals (_nonprimitive), so the level kernel
    runs once.

    With o = ord(g) and the zero symbol counted at order k with class
    size 1, every cell whose orders are G apart has a size fixed by the
    orders alone: a g1 of order >= o + G pairs only with g (size |g1|),
    a g1 of order <= o - G only with -g1 (size |g1|), and g1 = g with
    every g2 of order >= o + G (size |g2|).  So

        level[g] = c(g) A[o+G] + h(g) C[o+G] + B[o-G] + near(g)
        level[0] = B[k-1] + h(0) c(0)

    with A[m] = sum |g1| h(g1) and C[m] = sum |g2| c(g2) over orders
    >= m (the zero symbol in every A and C, since it is above any gap),
    and B[m] = sum |g1| h(g1) c(-g1) over finite orders <= m.  The near
    cells, g1 within G orders of o with their finite partners below
    o + G, are summed in closed form by sign class.  _level_odd and
    _level_two build A and C going down the orders and B going up,
    adding the near cells on the way: O(S) products over S symbols.
    """
    level = _level_two if layout.pp.p == 2 else _level_odd
    total = level(layout, head[0], tail[0])
    return total, _nonprimitive(layout, total, m)


def _nonprimitive(layout: SymbolLayout, total: list[int], m: int) -> list[int]:
    """The non-primitive list of a level in m >= 2 variables, read off
    its total list in one pass.

    A non-primitive x is p y, and Q(p y) = p^2 Q(y), so it needs p^2 | t
    and then nprim_k(t) = p^m N_(k-2)(t / p^2), as y mod p^(k-1) has p^m
    lifts of each y mod p^(k-2).  In turn each x mod p^(k-2) has p^(2m)
    lifts mod p^k, so N_(k-2)(t') is p^(-2m) times the sum of N_k over
    the p^2 lifts t' + j p^(k-2) of t'.  Hence, at orders 2 <= o < k,

        nprim(o, s) = p^(-m) sum over j < p^2 of tot(o - 2, s + j p^(k-o))
        nprim(0)    = p^(-m) (tot(0) + sum over ord g >= k - 2 of |g| tot(g))

    and nprim is 0 at orders 0 and 1.  A lift keeps its sign, which is
    read modulo p (odd p) or min(8, 2^(k-o+2)) (p = 2), except at the
    top two orders of p = 2; everywhere else the sum is p^2 tot(o - 2, s),
    the entry two orders below.  At k = 1 the one non-primitive x = 0
    hits only t = 0.
    """
    p, k, first, size = layout.pp.p, layout.pp.k, layout.first, layout.size
    nprim = [0] * len(total)
    if k == 1:
        nprim[0] = 1
        return nprim
    lifts = p**m
    nprim[0] = (total[0] + sum(size[o] * sum(total[first[o] : first[o + 1]]) for o in (k - 2, k - 1))) // lifts
    top = max(2, k - 2) if p == 2 else k  # every order 2 <= o < top keeps its sign in each lift
    scale = p ** (m - 2)
    nprim[first[2] : first[top]] = [x // scale for x in total[1 : first[top - 2]]]
    for o in range(top, k):
        step = 1 << (k - o)
        for i in range(first[o], first[o + 1]):
            s = 2 * (i - first[o]) + 1
            nprim[i] = sum(total[layout.at(o - 2, s + j * step)] for j in range(4)) // lifts
    return nprim


def _level_odd(layout: SymbolLayout, h: list[int], c: list[int]) -> list[int]:
    """One list of _convolve for odd p, where G = 1 and order o = i >> 1
    holds positions i = 2o + 1 (sign 1) and 2o + 2 (sign -1).

    The near cells of g = (o, s) are the pairs of order-o symbols, of
    size p^(k-o-1) (P4 - (s1 + s2)(eps s1 + s)/4) (split_pair_count_mod_p)
    with P4 = (p - p mod 4)/4 and eps = (-1/p).  The product term is
    non-zero only at s1 = s2 = eps s, where it is eps, so

        near(o, s) = p^(k-o-1) (P4 H_o C_o - eps h(o, eps s) c(o, eps s))

    with H_o and C_o the head and tail summed over both signs of order
    o; (o, eps s) is the negated symbol of g.
    """
    p, k, size, neg = layout.pp.p, layout.pp.k, layout.size, layout.neg
    p4, eps = (p - p % 4) // 4, 1 if p % 4 == 1 else -1
    level = [0] * len(h)
    # down the orders: A and C over the orders above o
    a, s = h[0], c[0]
    for i in range(len(h) - 2, 0, -2):
        level[i] = c[i] * a + h[i] * s
        level[i + 1] = c[i + 1] * a + h[i + 1] * s
        a += size[i >> 1] * (h[i] + h[i + 1])
        s += size[i >> 1] * (c[i] + c[i + 1])
    # up the orders: B over the orders below o, and the near cells
    b, w = 0, p ** (k - 1)
    for i in range(1, len(h), 2):
        h1, h2, n1, n2 = h[i], h[i + 1], neg[i], neg[i + 1]
        both, e = w * p4 * (h1 + h2) * (c[i] + c[i + 1]), eps * w
        level[i] += b + both - e * h[n1] * c[n1]
        level[i + 1] += b + both - e * h[n2] * c[n2]
        b += size[i >> 1] * (h1 * c[n1] + h2 * c[n2])
        w //= p
    level[0] = b + h[0] * c[0]
    return level


def _level_two(layout: SymbolLayout, h: list[int], c: list[int]) -> list[int]:
    """One list of _convolve for p = 2, where G = 3 and the M signs of
    order o (M = min(4, 2^(k-o-1))) are s = 2x + 1 at positions
    first[o] + x, x < M.  Sign arithmetic mod m = 2M is slot arithmetic
    mod M: s - 2v is slot x - v, and -s is slot M - 1 - x.

    The near cells of g = (o, s) (SymbolLayout.near), for delta = 1
    and 2:

    * g1 = (o + delta, s1) with g2 = (o, s - 2^delta s1 mod m), and the
      equal-order cells g1 = (o, s1), g2 = (o + delta, s2) with s1 = s -
      2^delta s2 mod m, each of the size of its higher-order class.
      They read the higher-order sign only through u = 2^delta s1 mod m
      = 2v: v = 1 and 3 for the signs 1 and 3 mod 4 of order o + 1,
      v = 2 for all of order o + 2.  With e_v and f_v the head and tail
      summed over those classes, times the class size,
          up(o, x) = sum over v of e_v c(o, x - v) + f_v h(o, x - v);
    * g1 = (o - delta, s1) with g2 = (o - delta, 2^delta s - s1 mod
      m_(o-delta)), of size |g1|.  With the cyclic convolution
          D_o'[v] = |o'| sum over x of h(o', x) c(o', v - x)  (mod M_o')
      they are down(o, x) = D_(o-1)[2x mod M_(o-1)] + D_(o-2)[1].

    D_o[M - 1] pairs each slot with its negation, the order's term of B.
    The slots are read as four, mod 4: an order of M < 4 slots repeated
    4/M times gives the same up(o, x), and 4/M times its D at v mod M.
    """
    k, first, size = layout.pp.k, layout.first, layout.size
    level = [0] * len(h)
    # down the orders: A and C over the orders >= o + 3, and up(o, x);
    # upper and upper2 are |g1| times the head and tail of orders o + 1
    # and o + 2 summed over the even slots and over the odd ones
    a_sum, c_sum = [h[0]] * (k + 1), [c[0]] * (k + 1)
    upper = upper2 = (0, 0, 0, 0)
    for o in range(k - 1, -1, -1):
        lo, hi = first[o], first[o + 1]
        h0, h1, h2, h3 = h[lo:hi] * (4 // (hi - lo))
        c0, c1, c2, c3 = c[lo:hi] * (4 // (hi - lo))
        a, s = a_sum[min(o + 3, k)], c_sum[min(o + 3, k)]
        e1, e2, e3 = upper[0], upper2[0] + upper2[1], upper[1]
        f1, f2, f3 = upper[2], upper2[2] + upper2[3], upper[3]
        level[lo:hi] = (
            c0 * a + h0 * s + e1 * c3 + e2 * c2 + e3 * c1 + f1 * h3 + f2 * h2 + f3 * h1,
            c1 * a + h1 * s + e1 * c0 + e2 * c3 + e3 * c2 + f1 * h0 + f2 * h3 + f3 * h2,
            c2 * a + h2 * s + e1 * c1 + e2 * c0 + e3 * c3 + f1 * h1 + f2 * h0 + f3 * h3,
            c3 * a + h3 * s + e1 * c2 + e2 * c1 + e3 * c0 + f1 * h2 + f2 * h1 + f3 * h0,
        )[: hi - lo]
        w = size[o]
        upper, upper2 = (
            (w * sum(h[lo:hi:2]), w * sum(h[lo + 1 : hi : 2]), w * sum(c[lo:hi:2]), w * sum(c[lo + 1 : hi : 2])),
            upper,
        )
        a_sum[o] = a_sum[o + 1] + upper[0] + upper[1]
        c_sum[o] = c_sum[o + 1] + upper[2] + upper[3]
    # up the orders: B over the orders <= o - 3 (b_sum[o]), and down(o, x),
    # with each D kept as four entries at v mod M
    b_sum, d1, d2 = [0] * (k + 3), (0,) * 4, (0,) * 4
    for o in range(k):
        lo, hi = first[o], first[o + 1]
        h0, h1, h2, h3 = h[lo:hi] * (4 // (hi - lo))
        c0, c1, c2, c3 = c[lo:hi] * (4 // (hi - lo))
        base = b_sum[o] + d2[1]
        level[lo:hi] = [x + base + d for x, d in zip(level[lo:hi], (d1[0], d1[2], d1[0], d1[2]))]
        w, n = size[o], 4 // (hi - lo)
        d1, d2 = [
            w * x // n
            for x in (
                h0 * c0 + h1 * c3 + h2 * c2 + h3 * c1,
                h0 * c1 + h1 * c0 + h2 * c3 + h3 * c2,
                h0 * c2 + h1 * c1 + h2 * c0 + h3 * c3,
                h0 * c3 + h1 * c2 + h2 * c1 + h3 * c0,
            )
        ], d1
        b_sum[o + 3] = b_sum[o + 2] + d1[3]
    level[0] = b_sum[k + 2] + h[0] * c[0]
    return level


@dataclass(frozen=True, eq=False)
class PreparedForm:
    """x'Qx mod p^k with its block diagonalization, and what counts and
    draws read of it, each built on its first read and kept.

    diag holds the blocks and the moves that reach them; u, with u'Qu
    the direct sum of the blocks mod p^k, is built from those moves the
    first time it is read, and a draw applies the moves to its vector
    instead.  count reads the blocks' Gauss-sum tallies only, so a count
    builds neither u nor a table.  The tables are for draws, whose chain
    walk peels the blocks highest order first (walk_order), the reverse
    of the ascending order in which block_diagonalize, picking a
    minimal-order pivot each time, leaves them.  per_block[j] is the
    table of the j-th block the walk peels, blocks[walk_order[j]], and
    tails[j] that of the direct sum of the blocks it peels after that
    one, the suffix tables of chain_tables over the walk's blocks after
    its first: the levels the chain walk reads.  Each is a Table,
    (total, non-primitive) lists indexed by the positions of the layout.
    A draw takes its count from count, like any other caller, and reads
    the tables only for its walk's weights.  The top level, the table of all the blocks,
    is not kept: the walk's first step weighs its cells at one target
    from the head block and the first tail, and table builds it in full
    on every read, as a {symbol: RepCounts} dict.  The near cells that
    the tables and draws read are computed by rule, not stored.
    """

    pp: PrimePower
    diag: BlockDiagForm

    @property
    def blocks(self) -> tuple[Block, ...]:
        return self.diag.blocks

    @property
    def u(self) -> tuple[tuple[int, ...], ...]:
        """The basis change, built on its first read (BlockDiagForm.u)."""
        return self.diag.u

    @cached_property
    def layout(self) -> SymbolLayout:
        return SymbolLayout(self.pp)

    @property
    def walk_order(self) -> range:
        """The positions in blocks in the order the chain walk peels the
        blocks: highest order first.  Then the lowest-order blocks come
        last, and a head block of an order above the target's takes no
        square root, so a draw takes about one per factor, the last
        block's."""
        return range(len(self.blocks) - 1, -1, -1)

    @cached_property
    def _tables(self) -> tuple[list[Table], list[Table]]:
        blocks, layout = tuple(self.blocks[j] for j in self.walk_order), self.layout
        if not blocks:
            return [], []
        per_tail, tails = chain_tables(blocks[1:], layout)
        return [block_table(blocks[0], layout), *per_tail], tails

    @property
    def per_block(self) -> list[Table]:
        return self._tables[0]

    @property
    def tails(self) -> list[Table]:
        return self._tables[1]

    @cached_property
    def _block_tallies(self) -> Tallies:
        return block_tallies(self.blocks, self.pp)

    @property
    def table(self) -> dict[PkSymbol, RepCounts]:
        """Counts at every inhabited target symbol: one level of the
        dynamic program, built on each read (for the form in no
        variables, the one solution at target 0)."""
        if not self.blocks:
            return {SYMBOL_ZERO: RepCounts(1, 0, 1)}
        head, m = self.per_block[0], sum(blk.dim for blk in self.blocks)
        return symbol_table(self.layout, _convolve(self.layout, head, self.tails[0], m) if self.tails else head)

    def count(self, t: int) -> RepCounts:
        """Total / primitive / non-primitive counts of x'Qx = t mod p^k,
        from the blocks' Gauss sums (gauss.solutions): the total is
        N_k(t), and the non-primitive count p^n N_(k-2)(t / p^2) when p^2
        divides t, 0 when not (at k = 1, 1 at t = 0 mod p).  No table is
        built.  Raises ArithmeticError where the sums do not give a
        count."""
        p, k, t = self.pp.p, self.pp.k, t % self.pp.q
        n, tallies = sum(blk.dim for blk in self.blocks), self._block_tallies
        total = solutions(self.pp, n, tallies, k, t)
        if k == 1:
            nprim = int(t == 0)
        else:
            nprim = 0 if t % p**2 else p**n * solutions(self.pp, n, tallies, k - 2, t // p**2)
        return RepCounts(total, total - nprim, nprim)


def prepare(q_mat: Matrix, pp: PrimePower) -> PreparedForm:
    """Check Q and block-diagonalize it, once.  The layout, the tables
    and u are left to the form's first read of each."""
    return PreparedForm(pp, block_diagonalize(q_mat, pp))  # checks Q


def form_counts_by_symbol(q_mat: Matrix, pp: PrimePower) -> dict[PkSymbol, RepCounts]:
    """Counts of x'Qx = t for every target symbol at once."""
    return prepare(q_mat, pp).table


def count_form(q_mat: Matrix, pp: PrimePower, t: int) -> RepCounts:
    """Total / primitive / non-primitive counts of x'Qx = t mod p^k.

    The form is diagonalized at t's level L = min(k, ord t + 1 +
    2 [p = 2]) (L = k at t = 0 mod p^k) and its counts there are scaled
    by p^((n - 1)(k - L)).  In the Fourier identity for N_k(t) every
    term with j > ord t + 1 + 2 [p = 2] is 0, so N_k(t) and N_L(t) sum
    the same T_j, with the weights p^(n (k - j) - k) and p^(n (L - j) - L).
    The non-primitive count p^n N_(k-2)(t / p^2) scales alike, as t / p^2
    has an order 2 less (module docstring).  prepare(q_mat, pp).count(t)
    counts at level k itself, with the same result.  The form in no
    variables is counted at k."""
    ord_t = valuation(pp, t % pp.q).ord  # INF at t = 0 mod p^k, which makes L = k
    level = min(pp.k, ord_t + 1 + 2 * (pp.p == 2)) if q_mat else pp.k
    scale = pp.p ** ((len(q_mat) - 1) * (pp.k - level))
    return RepCounts(*(c * scale for c in prepare(q_mat, pp.with_exponent(level)).count(t)))


def local_density(q_mat: Matrix, p: int, t: int) -> Fraction:
    """The local density of Q at t: A_{p^s}(Q,t) / p^(s(n-1)) at the
    stabilizing level s = 1 + ord_p(8 t det Q)."""
    n = check_symmetric(q_mat)
    det = integer_det(q_mat)
    if det == 0:
        raise SingularForm("det Q = 0")
    if t == 0:
        raise ZeroTarget("local density needs t != 0")
    base = PrimePower(p, 1)  # validate p first: p = 1 or -1 never leaves the loop below
    arg = 8 * t * det
    s = 1
    while arg % p == 0:
        arg //= p
        s += 1
    pp = base.with_exponent(s)
    total = count_form(q_mat, pp, t).total
    return Fraction(total, p ** (s * (n - 1)))


def _check_factors(factored_q: list[PrimePower]) -> None:
    """Reject a factorization of the modulus that is empty or repeats a prime."""
    if not factored_q:
        raise DomainError("need at least one prime power")
    primes = [pp.p for pp in factored_q]
    if len(set(primes)) != len(primes):
        raise DomainError("duplicate primes in the factorization")


def count_composite(q_mat: Matrix, factored_q: list[PrimePower], t: int) -> RepCounts:
    """Counts mod q = prod p_i^k_i by CRT.

    Each factor p^k is counted as count_form counts it: diagonalized at
    L = min(k, ord_p t + 1 + 2 [p = 2]), counted by its Gauss sums and
    scaled by p^((n - 1)(k - L)).  The Fourier terms above L are 0, so the
    totals scale, and the non-primitive counts, and so the primitive
    counts that the CRT product multiplies, scale with them (module
    docstring).  No table is built."""
    _check_factors(factored_q)
    return _crt_counts([count_form(q_mat, pp, t) for pp in factored_q])


def count_factors(forms: list[PreparedForm], t: int) -> RepCounts:
    """Counts mod the product of the prepared factors' moduli, by CRT."""
    _check_factors([form.pp for form in forms])
    return _crt_counts([form.count(t) for form in forms])


def _crt_counts(factor_counts: list[RepCounts]) -> RepCounts:
    """The counts mod a product of prime powers from those mod each.

    Totals multiply across prime powers.  A vector mod q is primitive
    iff it is primitive at every prime, so the primitive counts
    multiply as well; non-primitive is the complement.
    """
    total = 1
    prim = 1
    for c in factor_counts:
        total *= c.total
        prim *= c.primitive
    return RepCounts(total, prim, total - prim)
