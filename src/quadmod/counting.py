"""Exact solution counts for x'Qx = t over Z/p^k and Z/q.

Per-block closed forms (1x1 blocks for any p, 2x2 blocks for p = 2)
are glued together by a dynamic program over p^k-symbols: the count of
a direct sum at target symbol g is the sum over symbol pairs (g1, g2)
of the split size (g; g1, g2) times the factors' counts.  Totals and
non-primitive counts both satisfy that convolution (a vector is
non-primitive iff every component block is), and primitive = total -
non-primitive.

Every table is two parallel int lists, total and non-primitive counts,
indexed by the position of the target symbol in its SymbolLayout
(layout.syms); the primitive count is total - non-primitive wherever
it is read.  No kernel looks an entry up by its symbol: the
{symbol: RepCounts} dicts are built only at the public boundary
(PreparedForm.count and .table, form_counts_by_symbol, symbol_table).

Each level of the program splits the cells by the order gap G (3 for
p = 2, 1 for odd p).  A cell whose g1 or g2 lies at least G orders from
ord(g) has a partner and a size fixed by the orders alone, so all such
cells of every target come from three running sums by order.  The near
cells, g1 within G of ord(g) paired with the finite partners below
ord(g) + G, come in closed form from per-order sums by sign class, with
no list of partners (_level_odd, _level_two).  One pass down the orders
and one up build a level: O(S) big-integer products over the S
symbols, where the full convolution made one per non-zero (g, g1, g2)
cell.

``prepare`` diagonalizes a form and builds, once, the tables the chain
walk reads: each block's table, filled order by order, and the levels
of the tail after the first block.  The top level is read at one target
per count, as a sum over the split cells of that target
(PreparedForm.count), and is built in full only when PreparedForm.table
is read.  Every public count, and every draw of the sampling module,
reads a prepared form.  A composite modulus is a list of prepared
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .blockdiag import (
    Block,
    TypeI,
    TypeII,
    block_diagonalize,
    check_symmetric,
    integer_det,
)
from .modring import INF, DomainError, PrimePower, legendre, valuation
from .symbols import SYMBOL_ZERO, PkSymbol, SymbolLayout, symbol_of

Matrix = list[list[int]]


class RepCounts(NamedTuple):
    total: int
    primitive: int
    nonprimitive: int


# (total, non-primitive) counts at every position of a SymbolLayout:
# the entry at position i is the count at target symbol layout.syms[i]
Table = tuple[list[int], list[int]]


class SingularForm(DomainError):
    """det Q = 0, so the local density is undefined."""


class ZeroTarget(DomainError):
    """t = 0 has no stabilizing level; the local density is undefined."""


def _counts(prim: int, nprim: int) -> RepCounts:
    return RepCounts(prim + nprim, prim, nprim)


def symbol_table(layout: SymbolLayout, table: Table) -> dict[PkSymbol, RepCounts]:
    """A table as {symbol: RepCounts} in layout.syms order, the form in
    which the public functions return tables."""
    return {g: RepCounts(tot, tot - np_, np_) for g, tot, np_ in zip(layout.syms, *table)}


def count_type1(d: int, pp: PrimePower, sym_t: PkSymbol) -> RepCounts:
    """Solutions x of d*x^2 = t mod p^k, with symbol(t) = sym_t.

    t = 0: every x with 2*ord(x) + ord(d) >= k works.  t != 0: writing
    x = p^e * y with y a unit needs ord(t) - ord(d) = 2e >= 0 and the
    unit parts to agree as squares: equal Legendre signs for odd p, and
    cop(d) = cop(t) modulo min(8, 2^(k - ord t)) for p = 2.  Then y has
    `mult` roots (2 for odd p; for p = 2, 4 once three bits of the unit
    part are visible, else k - ord t) and (ord t + ord d)/2 free digits,
    giving mult * p^((ord t + ord d)/2) solutions, primitive exactly
    when e = 0.
    """
    p, k = pp.p, pp.k
    ord_d, cop_d = valuation(pp, d % pp.q)
    o, s = sym_t
    if o == INF:
        if ord_d == INF:
            return _counts((p - 1) * p ** (k - 1), p ** (k - 1))
        # x = 0 mod p^ceil((k - ord d)/2), leaving floor((k + ord d)/2) digits
        return _counts(0, p ** ((k + ord_d) // 2))
    if ord_d == INF or o < ord_d or (o - ord_d) % 2:
        return RepCounts(0, 0, 0)
    if p == 2:
        if (s - cop_d) % min(8, 2 ** (k - o)):
            return RepCounts(0, 0, 0)
        mult = 4 if k - o >= 3 else k - o
    elif s != legendre(cop_d, p):
        return RepCounts(0, 0, 0)
    else:
        mult = 2
    reps = mult * p ** ((o + ord_d) // 2)
    return _counts(reps, 0) if o == ord_d else _counts(0, reps)


def _symbol_rep(k2: int, ord_t, sgn_t: int) -> int:
    """Canonical element of Z/2^k2 with the symbol carried over from
    dividing a (ord_t, sgn_t) element by a power of 2 (ord already shifted)."""
    if ord_t == INF or ord_t >= k2:
        return 0
    return 2**ord_t * (sgn_t % 2 ** (k2 - ord_t))


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


def count_type2(blk: TypeII, k: int, sym_t: PkSymbol) -> RepCounts:
    """Solutions of 2^(ell+1)*(a x^2 + b xy + c y^2) = t mod 2^k.

    The form value is always divisible by 2^(ell+1); once that much is
    known the scaled equation lives in Z/2^(k-ell-1).  When ell+1 >= k
    the form vanishes identically mod 2^k.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    ell = blk.ell
    ord_t, sgn_t = sym_t
    if ell + 1 >= k:
        if ord_t == INF:
            return _counts(4**k - 4 ** (k - 1), 4 ** (k - 1))
        return _counts(0, 0)
    if ord_t != INF and ord_t < ell + 1:
        return _counts(0, 0)
    k2 = k - ell - 1
    t2 = _symbol_rep(k2, ord_t - (ell + 1) if ord_t != INF else INF, sgn_t)
    prim, nprim = _count_scaled_type2(blk.a, blk.b, blk.c, t2, k2)
    scale = 4 ** (ell + 1)
    return _counts(prim * scale, nprim * scale)


def count_block(blk: Block, pp: PrimePower, sym_t: PkSymbol) -> RepCounts:
    """Counts for a single block at a target symbol."""
    if isinstance(blk, TypeI):
        return count_type1(blk.d, pp, sym_t)
    return count_type2(blk, pp.k, sym_t)


def block_table(blk: Block, layout: SymbolLayout) -> Table:
    """count_block(blk, pp, g) at every position g of the layout, filled
    order by order.  A type I block d = p^e u reaches one symbol in each
    order e, e + 2, ... below k, the one of u's square class (its
    Legendre symbol, or u mod min(8, 2^(k - ord)) for p = 2).  A type II
    block's counts read the target only through its order (see
    _scaled_type2_counts), so each order takes one value, at t2 = 2^(ord
    - ell - 1), and the seeds are evaluated once for the block."""
    pp, first = layout.pp, layout.first
    p, k = pp.p, pp.k
    total, nprim = [0] * len(layout.syms), [0] * len(layout.syms)
    if isinstance(blk, TypeI):
        ord_d, cop_d = valuation(pp, blk.d % pp.q)
        if ord_d == INF:
            total[0], nprim[0] = p**k, p ** (k - 1)
            return total, nprim
        total[0] = nprim[0] = p ** ((k + ord_d) // 2)
        odd_slot = p != 2 and legendre(cop_d, p) < 0
        for o in range(ord_d, k, 2):
            if p == 2:
                slot, mult = cop_d % min(8, 2 ** (k - o)) >> 1, 4 if k - o >= 3 else k - o
            else:
                slot, mult = odd_slot, 2
            i = first[o] + slot
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


def chain_tables(
    blocks: tuple[Block, ...], pp: PrimePower, layout: SymbolLayout | None = None
) -> tuple[list[Table], list[Table]]:
    """Per-block and suffix count tables, one entry per inhabited symbol.

    suffix[j], at the position of g in the layout, counts representations
    of (any target of symbol g) by the direct sum of blocks[j:].  Built back to front: the target
    splits as a value hit by the head block plus one hit by the tail,
    and each level is the split convolution of the head's table with
    the tail's.  No blocks give no tables.  The layout of pp is made
    here unless one is passed in.
    """
    layout = layout or SymbolLayout(pp)
    per_block = [block_table(blk, layout) for blk in blocks]
    suffix: list[Table] = per_block[-1:]
    for head in reversed(per_block[:-1]):
        suffix.append(_convolve(layout, head, suffix[-1]))
    suffix.reverse()
    return per_block, suffix


def _convolve(layout: SymbolLayout, head: Table, tail: Table) -> Table:
    """The level step of chain_tables: the table of head + tail, whose
    entry at g sums split size times h(g1) times c(g2) over the split
    cells (g1, g2).  The sum is bilinear in (h, c), so the totals and
    the non-primitive counts each go through it on their own.

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
    return level(layout, head[0], tail[0]), level(layout, head[1], tail[1])


def _level_odd(layout: SymbolLayout, h: list[int], c: list[int]) -> list[int]:
    """One list of _convolve for odd p, where G = 1 and order o holds
    positions 2o + 1 (sign 1) and 2o + 2 (sign -1).

    The near cells of g = (o, s) are the pairs of order-o symbols, of
    size p^(k-o-1) (P4 - (s1 + s2)(eps s1 + s)/4) (split_pair_count_mod_p)
    with P4 = (p - p mod 4)/4 and eps = (-1/p).  The product term is
    non-zero only at s1 = s2 = eps s, where it is eps, so

        near(o, s) = p^(k-o-1) (P4 H_o C_o - eps h(o, eps s) c(o, eps s))

    with H_o and C_o the head and tail summed over both signs of order
    o; (o, eps s) is the negated symbol of g.
    """
    p, k, sizes, neg = layout.pp.p, layout.pp.k, layout.sizes, layout.neg
    p4, eps = (p - p % 4) // 4, 1 if p % 4 == 1 else -1
    level = [0] * len(h)
    # down the orders: A and C over the orders above o
    a, s = h[0], c[0]
    for i in range(len(h) - 2, 0, -2):
        level[i] = c[i] * a + h[i] * s
        level[i + 1] = c[i + 1] * a + h[i + 1] * s
        a += sizes[i] * (h[i] + h[i + 1])
        s += sizes[i] * (c[i] + c[i + 1])
    # up the orders: B over the orders below o, and the near cells
    b, w = 0, p ** (k - 1)
    for i in range(1, len(h), 2):
        h1, h2, n1, n2 = h[i], h[i + 1], neg[i], neg[i + 1]
        both, e = w * p4 * (h1 + h2) * (c[i] + c[i + 1]), eps * w
        level[i] += b + both - e * h[n1] * c[n1]
        level[i + 1] += b + both - e * h[n2] * c[n2]
        b += sizes[i] * (h1 * c[n1] + h2 * c[n2])
        w //= p
    level[0] = b + h[0] * c[0]
    return level


def _level_two(layout: SymbolLayout, h: list[int], c: list[int]) -> list[int]:
    """One list of _convolve for p = 2, where G = 3 and the M signs of
    order o (M = min(4, 2^(k-o-1))) are s = 2x + 1 at positions
    first[o] + x, x < M.  Sign arithmetic mod m = 2M is slot arithmetic
    mod M: s - 2v is slot x - v, and -s is slot M - 1 - x.

    The near cells of g = (o, s) (symbols.split_partners), for delta = 1
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
    k, first, sizes = layout.pp.k, layout.first, layout.sizes
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
        w = sizes[lo]
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
        w, n = sizes[lo], 4 // (hi - lo)
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
    """x'Qx mod p^k with its blocks, basis change and count tables, built
    once: every count and draw of the form reads them.

    u'Qu is the direct sum of blocks mod p^k.  per_block[j] is the table
    of blocks[j], and tails[j] that of the direct sum blocks[j+1:]: the
    suffix tables of chain_tables(blocks[1:]), the levels the chain walk
    reads.  Each is a Table, (total, non-primitive) lists indexed by the
    positions of layout.syms.  The top level, the table of all the
    blocks, is not built: count reads it at one symbol, as a sum over
    the split cells of the head block and the first tail, and table
    builds it in full on every read, as a {symbol: RepCounts} dict.
    Nothing here changes after prepare: the near cells that counts and
    draws read are computed by rule, not stored.
    """

    pp: PrimePower
    blocks: tuple[Block, ...]
    u: Matrix
    layout: SymbolLayout
    per_block: list[Table]
    tails: list[Table]

    @property
    def table(self) -> dict[PkSymbol, RepCounts]:
        """Counts at every inhabited target symbol: one level of the
        dynamic program, built on each read (for the form in no
        variables, the one solution at target 0)."""
        if not self.blocks:
            return {SYMBOL_ZERO: RepCounts(1, 0, 1)}
        head = self.per_block[0]
        return symbol_table(self.layout, _convolve(self.layout, head, self.tails[0]) if self.tails else head)

    def count(self, t: int) -> RepCounts:
        """Total / primitive / non-primitive counts of x'Qx = t mod p^k:
        the top level's entry at t's symbol g, summed over the split
        cells (g1, g2) of g that the chain walk's first step draws from."""
        g = symbol_of(self.pp, t)
        if not self.blocks:
            return self.table.get(g, RepCounts(0, 0, 0))
        (h_tot, h_np), i = self.per_block[0], self.layout.index(g)
        if not self.tails:
            return RepCounts(h_tot[i], h_tot[i] - h_np[i], h_np[i])
        c_tot, c_np = self.tails[0]
        total = nprim = 0
        for i1, h in enumerate(h_tot):
            if h:
                for i2, size in self.layout.partners(i, i1):
                    total += size * h * c_tot[i2]
                    nprim += size * h_np[i1] * c_np[i2]
        return RepCounts(total, total - nprim, nprim)


def prepare(q_mat: Matrix, pp: PrimePower) -> PreparedForm:
    """Check Q, block-diagonalize it and build its count tables, once."""
    bd = block_diagonalize(q_mat, pp)  # checks Q
    layout = SymbolLayout(pp)
    if not bd.blocks:
        return PreparedForm(pp, (), [], layout, [], [])
    per_tail, tails = chain_tables(bd.blocks[1:], pp, layout)
    per_block = [block_table(bd.blocks[0], layout), *per_tail]
    return PreparedForm(pp, bd.blocks, [list(row) for row in bd.u], layout, per_block, tails)


def form_counts_by_symbol(q_mat: Matrix, pp: PrimePower) -> dict[PkSymbol, RepCounts]:
    """Counts of x'Qx = t for every target symbol at once."""
    return prepare(q_mat, pp).table


def count_form(q_mat: Matrix, pp: PrimePower, t: int) -> RepCounts:
    """Total / primitive / non-primitive counts of x'Qx = t mod p^k."""
    return prepare(q_mat, pp).count(t)


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
    """Counts mod q = prod p_i^k_i by CRT."""
    return count_factors([prepare(q_mat, pp) for pp in factored_q], t)


def count_factors(forms: list[PreparedForm], t: int) -> RepCounts:
    """Counts mod the product of the prepared factors' moduli, by CRT.

    Totals multiply across prime powers.  A vector mod q is primitive
    iff it is primitive at every prime, so the primitive counts
    multiply as well; non-primitive is the complement.
    """
    _check_factors([form.pp for form in forms])
    total = 1
    prim = 1
    for form in forms:
        c = form.count(t)
        total *= c.total
        prim *= c.primitive
    return RepCounts(total, prim, total - prim)
