"""The count tables by the split-convolution dynamic program, the
referee of the tables that counting.chain_tables reads off the blocks'
Gauss sums.

A level is the table of a direct sum of blocks: its total at a target
symbol g sums, over the split cells (g1, g2) of g, the split size times
the head block's count at g1 times the tail's at g2.  _convolve runs
one level step from the head block's table (the dense view of
counting.block_cells) and the tail's level; its non-primitive list
follows from the totals two orders down (_nonprimitive).  _level_odd and _level_two add the cells
a gap or more from ord(g) by running sums by order and the near cells
in closed form.  dp_chain_tables chains the steps back to front.  It
shares with counting.chain_tables only the layout and the per-block
cells (block_cells, each block signed by its own Legendre symbol at odd
p, table_classes).  A table here is dense: (total, non-primitive)
lists indexed by position, the number of a symbol in the layout's
iteration order (Positions).  dense spreads a block's cells over the
positions, level_lists reads a gauss.Level at every position, and
table_dict gives a table as the {symbol: RepCounts} dict the public
functions return.
"""

from quadmod.counting import RepCounts, block_cells
from quadmod.gauss import Level, block_classes
from quadmod.modring import legendre
from quadmod.symbols import PkSymbol, SymbolLayout

Table = tuple[list[int], list[int]]


class Positions:
    """The inhabited symbols of a layout numbered in its iteration order:
    symbols[i] is the symbol at position i, index[g] the position of g,
    first[o] the first position of order o (first[k] their number), and
    neg[i] the position of the negation of symbols[i]."""

    def __init__(self, layout: SymbolLayout):
        k = layout.pp.k
        self.layout, self.pp, self.size = layout, layout.pp, layout.size
        self.symbols = list(layout)
        self.index = {g: i for i, g in enumerate(self.symbols)}
        self.first = [self.index[PkSymbol(o, 1)] for o in range(k)] + [len(self.symbols)]
        self.neg = [self.index[layout.neg(g)] for g in self.symbols]

    def __len__(self) -> int:
        return len(self.symbols)

    def at(self, o: int, s: int) -> int:
        """The position of layout.symbol(o, s)."""
        return self.index[self.layout.symbol(o, s)]


def dense(cells, layout: SymbolLayout) -> Table:
    """A block's cells (symbol, total, non-primitive) as a table, with 0
    at every position they leave out."""
    pos = Positions(layout)
    total, nprim = [0] * len(pos), [0] * len(pos)
    for g, tot, np_ in cells:
        i = pos.index[g]
        total[i], nprim[i] = tot, np_
    return total, nprim


def level_lists(level: Level, layout: SymbolLayout, order=None) -> Table:
    """The level read at every position, in the given order of positions
    (position order by default), as (total, non-primitive) lists indexed
    by position."""
    pos = Positions(layout)
    total, nprim = [0] * len(pos), [0] * len(pos)
    for i in range(len(pos)) if order is None else order:
        total[i], nprim[i] = level.at(*pos.symbols[i])
    return total, nprim


def table_dict(layout: SymbolLayout, table: Table) -> dict:
    """A table as {symbol: RepCounts} in position order."""
    return {g: RepCounts(tot, tot - np_, np_) for g, tot, np_ in zip(layout, *table)}


def table_classes(blocks, pp):
    """The blocks' classes as the count tables read them: at odd p each
    unit's own Legendre symbol, 0 where p^k divides the block."""
    classes, p = block_classes(blocks, pp), pp.p
    return classes if p == 2 else tuple((e, legendre(u, p) if u else 0) for e, u in classes)


def dp_chain_tables(blocks, layout: SymbolLayout) -> tuple[list[Table], list[Table]]:
    """Per-block and suffix count tables of the blocks (Block objects):
    suffix[j] is the table of the direct sum of blocks[j:], each level
    the split convolution of its head block's table with the next."""
    per_block = [dense(block_cells(cls, layout), layout) for cls in table_classes(blocks, layout.pp)]
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
    pos = Positions(layout)
    p, k, first, size = pos.pp.p, pos.pp.k, pos.first, pos.size
    nprim = [0] * len(total)
    if k == 1:
        nprim[0] = 1
        return nprim
    lifts = p**m
    nprim[0] = (total[0] + sum(size(o) * sum(total[first[o] : first[o + 1]]) for o in (k - 2, k - 1))) // lifts
    top = max(2, k - 2) if p == 2 else k  # every order 2 <= o < top keeps its sign in each lift
    scale = p ** (m - 2)
    nprim[first[2] : first[top]] = [x // scale for x in total[1 : first[top - 2]]]
    for o in range(top, k):
        step = 1 << (k - o)
        for i in range(first[o], first[o + 1]):
            s = 2 * (i - first[o]) + 1
            nprim[i] = sum(total[pos.at(o - 2, s + j * step)] for j in range(4)) // lifts
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
    p, k, size, neg = layout.pp.p, layout.pp.k, layout.size, Positions(layout).neg
    p4, eps = (p - p % 4) // 4, 1 if p % 4 == 1 else -1
    level = [0] * len(h)
    # down the orders: A and C over the orders above o
    a, s = h[0], c[0]
    for i in range(len(h) - 2, 0, -2):
        level[i] = c[i] * a + h[i] * s
        level[i + 1] = c[i + 1] * a + h[i + 1] * s
        a += size(i >> 1) * (h[i] + h[i + 1])
        s += size(i >> 1) * (c[i] + c[i + 1])
    # up the orders: B over the orders below o, and the near cells
    b, w = 0, p ** (k - 1)
    for i in range(1, len(h), 2):
        h1, h2, n1, n2 = h[i], h[i + 1], neg[i], neg[i + 1]
        both, e = w * p4 * (h1 + h2) * (c[i] + c[i + 1]), eps * w
        level[i] += b + both - e * h[n1] * c[n1]
        level[i + 1] += b + both - e * h[n2] * c[n2]
        b += size(i >> 1) * (h1 * c[n1] + h2 * c[n2])
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
    k, first, size = layout.pp.k, Positions(layout).first, layout.size
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
        w = size(o)
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
        w, n = size(o), 4 // (hi - lo)
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
