"""Exact solution counts for x'Qx = t over Z/p^k and Z/q.

Per-block closed forms (1x1 blocks for any p, 2x2 blocks for p = 2)
are glued together by a dynamic program over p^k-symbols: the count of
a direct sum at target symbol g is the sum over symbol pairs (g1, g2)
of the split size (g; g1, g2) times the factors' counts.  Totals and
non-primitive counts both satisfy that convolution (a vector is
non-primitive iff every component block is), and primitive = total -
non-primitive.

Each level of the program splits the cells by the order gap G (3 for
p = 2, 1 for odd p).  A cell whose g1 or g2 lies at least G orders from
ord(g) has a partner and a size fixed by the orders alone, so all such
cells of every target come from three running sums by order, built
once per level.  The near cells, g1 within G of ord(g) paired with the
finite partners below ord(g) + G, come from per-order sums by sign
class, with no list of partners:

* odd p: near(o, s) = p^(k-o-1) (P4 H_o C_o - eps h(o, eps s) c(o, eps s)),
  with P4 = (p - p mod 4)/4, eps = (-1/p), and H_o, C_o the head and
  tail summed over both signs of order o;
* p = 2: with delta = 1 or 2, the cells of a g1 delta orders above g
  and the equal-order cells depend on the sign s' of order o + delta
  only through 2^delta s' mod min(8, 2^(k-o)), and those of a g1 delta
  orders below depend on s only through 2^delta s mod
  min(8, 2^(k-o+delta)); so each comes from head and tail sums over
  those classes, a few products per target (_near_two).

A level is O(S) big-integer products over the S symbols, where the
full convolution made one per non-zero (g, g1, g2) cell.

``prepare`` diagonalizes a form and builds, once, the tables the chain
walk reads: each block's table and the levels of the tail after the
first block.  The top level is read at one target per count, as a sum
over the split cells of that target (PreparedForm.count), and is built
in full only when PreparedForm.table is read.  Every public count, and
every draw of the sampling module, reads a prepared form.  A composite
modulus is a list of prepared factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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


Table = dict[PkSymbol, RepCounts]  # counts at every inhabited target symbol


class SingularForm(DomainError):
    """det Q = 0, so the local density is undefined."""


class ZeroTarget(DomainError):
    """t = 0 has no stabilizing level; the local density is undefined."""


def _counts(prim: int, nprim: int) -> RepCounts:
    return RepCounts(prim + nprim, prim, nprim)


def _type1_counter(d: int, pp: PrimePower):
    """The map g -> counts of d*x^2 = t mod p^k with symbol(t) = g, with
    the order, coprime part and square class of d taken once.

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
    sign = legendre(cop_d, p) if p != 2 and ord_d != INF else 0
    none = RepCounts(0, 0, 0)

    def at(g: PkSymbol) -> RepCounts:
        if g.ord == INF:
            if ord_d == INF:
                return _counts((p - 1) * p ** (k - 1), p ** (k - 1))
            # x = 0 mod p^ceil((k - ord d)/2), leaving floor((k + ord d)/2) digits
            return _counts(0, p ** ((k + ord_d) // 2))
        if ord_d == INF or g.ord < ord_d or (g.ord - ord_d) % 2:
            return none
        if p == 2:
            if (g.sgn - cop_d) % min(8, 2 ** (k - g.ord)):
                return none
            mult = 4 if k - g.ord >= 3 else k - g.ord
        elif g.sgn != sign:
            return none
        else:
            mult = 2
        reps = mult * p ** ((g.ord + ord_d) // 2)
        return _counts(reps, 0) if g.ord == ord_d else _counts(0, reps)

    return at


def count_type1(d: int, pp: PrimePower, sym_t: PkSymbol) -> RepCounts:
    """Solutions x of d*x^2 = t mod p^k, with symbol(t) = sym_t."""
    return _type1_counter(d, pp)(sym_t)


def _symbol_rep(k2: int, ord_t, sgn_t: int) -> int:
    """Canonical element of Z/2^k2 with the symbol carried over from
    dividing a (ord_t, sgn_t) element by a power of 2 (ord already shifted)."""
    if ord_t == INF or ord_t >= k2:
        return 0
    return 2**ord_t * (sgn_t % 2 ** (k2 - ord_t))


def _count_scaled_type2(a: int, b: int, c: int, t2: int, k2: int) -> tuple[int, int]:
    """(prim, nprim) for a*x^2 + b*xy + c*y^2 = t2 over (Z/2^k2)^2, b odd.

    Primitive: each of the three odd-parity seeds (0,1), (1,0), (1,1)
    that matches t2 mod 2 lifts to exactly 2^(k2-1) solutions (the odd
    coordinate lets every next bit be corrected).  Non-primitive: both
    coordinates even forces t2 = 0 mod 4 and reduces to the same form
    at modulus 2^(k2-2), each solution there giving 4 (the dropped top
    bits of x and y).

    The reduction is applied in closed form, so k2 is not bounded by
    any stack: it repeats L = min(k2, ord t2) // 2 times, the level it
    stops at is solved directly, and each of the L levels passed adds
    its primitive count times 4^level, which is the top level's
    primitive count every time (the target stays even there, and
    4^j * 2^(k2-2j-1) = 2^(k2-1)).
    """

    def prim_count(k: int, t: int) -> int:
        seeds = sum(1 for x0, y0 in ((0, 1), (1, 0), (1, 1)) if (a * x0 + b * x0 * y0 + c * y0 - t) % 2 == 0)
        return seeds * 2 ** (k - 1)

    ord_t = (t2 & -t2).bit_length() - 1 if t2 else k2
    levels = min(k2, ord_t) // 2
    k_last = k2 - 2 * levels
    t_last = t2 >> (2 * levels)
    if k_last == 0:
        prim_last, total_last = 0, 1  # trivial ring: the empty congruence has one solution
    else:
        prim_last = prim_count(k_last, t_last)
        total_last = prim_last + (1 if k_last == 1 and t_last % 2 == 0 else 0)
    if levels == 0:
        return prim_last, total_last - prim_last
    prim = prim_count(k2, t2)
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
    """{g: count_block(blk, pp, g) for g in layout.syms}, with a type I
    block's valuation and square class taken once for the whole table."""
    pp = layout.pp
    at = _type1_counter(blk.d, pp) if isinstance(blk, TypeI) else partial(count_type2, blk, pp.k)
    return {g: at(g) for g in layout.syms}


def chain_tables(
    blocks: tuple[Block, ...], pp: PrimePower, layout: SymbolLayout | None = None
) -> tuple[list[Table], list[Table]]:
    """Per-block and suffix count tables, one entry per inhabited symbol.

    suffix[j][g] counts representations of (any target of symbol g) by
    the direct sum of blocks[j:].  Built back to front: the target
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
    cells (g1, g2).

    With o = ord(g) and the zero symbol counted at order k with class
    size 1, every cell whose orders are G apart has a size fixed by the
    orders alone: a g1 of order >= o + G pairs only with g (size |g1|),
    a g1 of order <= o - G only with -g1 (size |g1|), and g1 = g with
    every g2 of order >= o + G (size |g2|).  So

        total[g] = c(g) A[o+G] + h(g) C[o+G] + B[o-G] + near(g)
        total[0] = B[k-1] + h(0) c(0)

    with A[m] = sum |g1| h(g1) and C[m] = sum |g2| c(g2) over orders
    >= m (the zero symbol in every A and C, since it is above any gap),
    and B[m] = sum |g1| h(g1) c(-g1) over finite orders <= m.  The near
    cells, g1 within G orders of o with their finite partners below
    o + G, are summed in closed form by sign class (_near_odd and
    _near_two), so a level is O(S) products over its S symbols.
    """
    pp, k, gap = layout.pp, layout.pp.k, layout.gap
    zero_h, zero_c = head[SYMBOL_ZERO], tail[SYMBOL_ZERO]
    # per order (the zero symbol at k): the head and the tail summed over
    # the signs, and h(g1) c(-g1); every class of one order has one size
    h_tot, h_np, c_tot, c_np = ([0] * (k + 1) for _ in range(4))
    b_tot, b_np = [0] * k, [0] * k
    sizes = [1] * (k + 1)
    for g, size, neg in layout.finite:
        o, h, c = g.ord, head[g], tail[g]
        sizes[o] = size
        c_tot[o] += c.total
        c_np[o] += c.nonprimitive
        if h.total:
            h_tot[o] += h.total
            h_np[o] += h.nonprimitive
            m = tail[neg]
            b_tot[o] += h.total * m.total
            b_np[o] += h.nonprimitive * m.nonprimitive
    h_tot[k], h_np[k] = zero_h.total, zero_h.nonprimitive
    c_tot[k], c_np[k] = zero_c.total, zero_c.nonprimitive
    if pp.p == 2:
        near = _near_two(layout, head, tail)
    else:
        near = _near_odd(layout, head, tail, h_tot, h_np, c_tot, c_np)
    # weigh by class size and sum: A and C over the orders >= o, in place
    # of the per-order sums, and B over the orders <= o
    a_tot, a_np = h_tot, h_np
    for o in range(k - 1, -1, -1):
        w = sizes[o]
        a_tot[o] = w * a_tot[o] + a_tot[o + 1]
        a_np[o] = w * a_np[o] + a_np[o + 1]
        c_tot[o] = w * c_tot[o] + c_tot[o + 1]
        c_np[o] = w * c_np[o] + c_np[o + 1]
    b_tot[0] *= sizes[0]
    b_np[0] *= sizes[0]
    for o in range(1, k):
        w = sizes[o]
        b_tot[o] = w * b_tot[o] + b_tot[o - 1]
        b_np[o] = w * b_np[o] + b_np[o - 1]

    total = b_tot[k - 1] + zero_h.total * zero_c.total
    nprim = b_np[k - 1] + zero_h.nonprimitive * zero_c.nonprimitive
    level: Table = {SYMBOL_ZERO: RepCounts(total, total - nprim, nprim)}
    for (g, _, _), (total, nprim) in zip(layout.finite, near):
        o, h, c = g.ord, head[g], tail[g]
        hi = min(o + gap, k)
        total += c.total * a_tot[hi] + h.total * c_tot[hi]
        nprim += c.nonprimitive * a_np[hi] + h.nonprimitive * c_np[hi]
        if o >= gap:
            total += b_tot[o - gap]
            nprim += b_np[o - gap]
        level[g] = RepCounts(total, total - nprim, nprim)
    return level


def _near_odd(
    layout: SymbolLayout,
    head: Table,
    tail: Table,
    h_tot: list[int],
    h_np: list[int],
    c_tot: list[int],
    c_np: list[int],
) -> list[tuple[int, int]]:
    """(total, non-primitive) of the near cells of every finite target,
    in layout.finite order, for odd p, given the head and the tail
    summed over the signs of each order (h_tot, h_np, c_tot, c_np).

    The near cells of g = (o, s) are the pairs of order-o symbols, of
    size p^(k-o-1) (P4 - (s1 + s2)(eps s1 + s)/4) (split_pair_count_mod_p)
    with P4 = (p - p mod 4)/4 and eps = (-1/p).  The product term is
    non-zero only at s1 = s2 = eps s, where it is eps, so

        near(o, s) = p^(k-o-1) (P4 H_o C_o - eps h(o, eps s) c(o, eps s))

    with H_o and C_o the head and tail summed over both signs of order
    o; (o, eps s) is the negated symbol of g.
    """
    p, k = layout.pp.p, layout.pp.k
    p4, eps = (p - p % 4) // 4, 1 if p % 4 == 1 else -1
    eps_scale, both_tot, both_np = [0] * k, [0] * k, [0] * k
    w = 1
    for o in range(k - 1, -1, -1):
        eps_scale[o] = eps * w
        both_tot[o] = w * p4 * h_tot[o] * c_tot[o]
        both_np[o] = w * p4 * h_np[o] * c_np[o]
        w *= p
    out = []
    for g, _, neg in layout.finite:
        o, h, c = g.ord, head[neg], tail[neg]
        if h.total:
            w = eps_scale[o]
            out.append((both_tot[o] - w * h.total * c.total, both_np[o] - w * h.nonprimitive * c.nonprimitive))
        else:
            out.append((both_tot[o], both_np[o]))
    return out


def _near_two(layout: SymbolLayout, head: Table, tail: Table) -> list[tuple[int, int]]:
    """(total, non-primitive) of the near cells of every finite target,
    in layout.finite order, for p = 2.

    With g = (o, s), m_o = min(8, 2^(k-o)) and delta = 1, 2, the near
    cells (symbols.split_partners) are:

    * g1 = (o + delta, s1) with g2 = (o, s - 2^delta s1 mod m_o), and
      the equal-order cells g1 = (o, s1), g2 = (o + delta, s2) with
      s1 = s - 2^delta s2 mod m_o, each of the size of its higher-order
      class.  They depend on the higher-order sign only through
      u = 2^delta s1 mod m_o (u = 2, 6 or 4 mod 8, or 2 mod 4), so with
      H_o[u] and C_o[u] the head and tail of orders o + 1 and o + 2
      summed by u, times the class size,
          up(g) = sum over u of H_o[u] c(o, s - u) + C_o[u] h(o, s - u);
    * g1 = (o - delta, s1) with g2 = (o - delta, 2^delta s - s1 mod
      m_(o-delta)), of size |g1|.  They depend on s only through
      u = 2^delta s mod m_(o-delta), so with
          D_o'[u] = |o'| sum over s1 of h(o', s1) c(o', u - s1 mod m_o'),
          down(g) = D_(o-1)[2s mod m_(o-1)] + D_(o-2)[4].
    """
    k = layout.pp.k
    mods = [min(8, 2 ** (k - o)) for o in range(k)]
    up: list[dict[int, list[int]]] = [{} for _ in range(k)]
    down: list[dict[int, tuple[int, int]]] = [{} for _ in range(k)]
    for g, size, _ in layout.finite:
        o1, s1 = g
        h, c = head[g], tail[g]
        for o in (o1 - 1, o1 - 2):
            if o >= 0:
                sums = up[o].setdefault((s1 << (o1 - o)) % mods[o], [0, 0, 0, 0])
                sums[0] += size * h.total
                sums[1] += size * h.nonprimitive
                sums[2] += size * c.total
                sums[3] += size * c.nonprimitive
        if s1 == 1 and o1 < k - 1:  # once per order: sign 1 is inhabited at every order
            m = mods[o1]
            for u in range(2, m, 2):
                d_tot = d_np = 0
                for s in range(1, m, 2):
                    h1, c2 = head[o1, s], tail[o1, (u - s) % m]
                    d_tot += h1.total * c2.total
                    d_np += h1.nonprimitive * c2.nonprimitive
                down[o1][u] = (size * d_tot, size * d_np)
    out = []
    for g, _, _ in layout.finite:
        o, s = g
        m = mods[o]
        tot = nprim = 0
        for u, (ht, hn, ct, cn) in up[o].items():
            j = (o, (s - u) % m)
            h, c = head[j], tail[j]
            tot += ht * c.total + ct * h.total
            nprim += hn * c.nonprimitive + cn * h.nonprimitive
        for o1 in (o - 1, o - 2):
            if o1 >= 0:
                d_tot, d_np = down[o1][(s << (o - o1)) % mods[o1]]
                tot += d_tot
                nprim += d_np
        out.append((tot, nprim))
    return out


@dataclass(frozen=True, eq=False)
class PreparedForm:
    """x'Qx mod p^k with its blocks, basis change and count tables, built
    once: every count and draw of the form reads them.

    u'Qu is the direct sum of blocks mod p^k.  per_block[j] is the table
    of blocks[j], and tails[j] that of the direct sum blocks[j+1:]: the
    suffix tables of chain_tables(blocks[1:]), the levels the chain walk
    reads.  The top level, the table of all the blocks, is not built:
    count reads it at one symbol, as a sum over the split cells of the
    head block and the first tail, and table builds it in full on every
    read.  Nothing here changes after prepare: the near cells that
    counts and draws read are computed by rule, not stored.
    """

    pp: PrimePower
    blocks: tuple[Block, ...]
    u: Matrix
    layout: SymbolLayout
    per_block: list[Table]
    tails: list[Table]

    @property
    def table(self) -> Table:
        """Counts at every inhabited target symbol: one level of the
        dynamic program, built on each read (for the form in no
        variables, the one solution at target 0)."""
        if not self.blocks:
            return {SYMBOL_ZERO: RepCounts(1, 0, 1)}
        head = self.per_block[0]
        return _convolve(self.layout, head, self.tails[0]) if self.tails else head

    def count(self, t: int) -> RepCounts:
        """Total / primitive / non-primitive counts of x'Qx = t mod p^k:
        the top level's entry at t's symbol g, summed over the split
        cells (g1, g2) of g that the chain walk's first step draws from."""
        g = symbol_of(self.pp, t)
        if not self.tails:
            return self.table.get(g, RepCounts(0, 0, 0))
        tail = self.tails[0]
        total = nprim = 0
        for g1, h in self.per_block[0].items():
            if not h.total:
                continue
            for g2, size in self.layout.partners(g, g1):
                c = tail[g2]
                total += size * h.total * c.total
                nprim += size * h.nonprimitive * c.nonprimitive
        return RepCounts(total, total - nprim, nprim)


def prepare(q_mat: Matrix, pp: PrimePower) -> PreparedForm:
    """Check Q, block-diagonalize it and build its count tables, once."""
    n = check_symmetric(q_mat)
    layout = SymbolLayout(pp)
    if n == 0:
        return PreparedForm(pp, (), [], layout, [], [])
    bd = block_diagonalize(q_mat, pp)
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
    arg = 8 * t * det
    s = 1
    while arg % p == 0:
        arg //= p
        s += 1
    pp = PrimePower(p, s)
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
