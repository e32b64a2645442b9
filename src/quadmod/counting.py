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
once per level.  Only the near cells, g1 within G of ord(g) paired with
the finite partners below ord(g) + G, are visited one by one, through
symbols._near_partners.  A level is O(S) big-integer products over the
S symbols plus the near cells, a bounded number per target, where the
full convolution made one per non-zero (g, g1, g2) cell.
"""

from __future__ import annotations

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
from .modring import INF, TWO, DomainError, PrimePower, legendre, valuation
from .symbols import (
    SYMBOL_ZERO,
    PkSymbol,
    _class_size,
    _near_partners,
    _negated_symbol,
    _split_gap,
    class_size,
    enumerate_symbols,
    symbol_of,
)

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


def count_type1_odd(d: int, pp: PrimePower, sym_t: PkSymbol) -> RepCounts:
    """Solutions x of d*x^2 = t mod p^k for odd p, with symbol(t) = sym_t.

    t = 0: every x with 2*ord(x) + ord(d) >= k works.  t != 0: writing
    x = p^e * y with y a unit needs ord(t) - ord(d) = 2e >= 0 and the
    unit parts to agree as squares; then y has two choices of root and
    (ord t + ord d)/2 free digits, giving 2 * p^((ord t + ord d)/2)
    solutions, primitive exactly when e = 0.
    """
    if pp.p == 2:
        raise DomainError("count_type1_odd needs odd p")
    p, k = pp.p, pp.k
    ord_d, cop_d = valuation(pp, d % pp.q)
    ord_t, sgn_t = sym_t

    if ord_t == INF:
        if ord_d == INF:
            return _counts((p - 1) * p ** (k - 1), p ** (k - 1))
        e = -((k - ord_d) // -2)  # ceil
        return _counts(0, p ** (k - e))

    if ord_d == INF or ord_d > ord_t or (ord_t - ord_d) % 2 == 1:
        return _counts(0, 0)
    if sgn_t * legendre(cop_d, p) != 1:
        return _counts(0, 0)
    reps = 2 * p ** ((ord_t + ord_d) // 2)
    if ord_d == ord_t:
        return _counts(reps, 0)
    return _counts(0, reps)


def count_type1_two(d: int, k: int, sym_t: PkSymbol) -> RepCounts:
    """Solutions x of d*x^2 = t mod 2^k, with symbol(t) = sym_t.

    As for odd p, but the unit-square test is cop(d) = cop(t) modulo
    min(8, 2^(k - ord t)), and the root multiplicity is 4 when at least
    three bits of the unit part are visible, else k - ord(t).
    """
    pp = TWO.with_exponent(k)
    q = pp.q
    ord_d, cop_d = valuation(pp, d % q)
    ord_t, sgn_t = sym_t

    if ord_t == INF:
        if ord_d == INF:
            return _counts(2 ** (k - 1), 2 ** (k - 1))
        e = -((k - ord_d) // -2)
        return _counts(0, 2 ** (k - e))

    if ord_d == INF or ord_d > ord_t or (ord_t - ord_d) % 2 == 1:
        return _counts(0, 0)
    if (sgn_t - cop_d) % min(8, 2 ** (k - ord_t)) != 0:
        return _counts(0, 0)
    mult = 4 if k - ord_t >= 3 else k - ord_t
    reps = mult * 2 ** ((ord_t + ord_d) // 2)
    if ord_d == ord_t:
        return _counts(reps, 0)
    return _counts(0, reps)


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
        if pp.p == 2:
            return count_type1_two(blk.d, pp.k, sym_t)
        return count_type1_odd(blk.d, pp, sym_t)
    return count_type2(blk, pp.k, sym_t)


def _live_symbols(pp: PrimePower) -> list[PkSymbol]:
    """Symbols with non-empty classes (all formal symbols for odd p)."""
    return [g for g in enumerate_symbols(pp) if class_size(pp, g) > 0]


def chain_tables(blocks: tuple[Block, ...], pp: PrimePower) -> tuple[list[Table], list[Table]]:
    """Per-block and suffix count tables, one entry per inhabited symbol.

    suffix[j][g] counts representations of (any target of symbol g) by
    the direct sum of blocks[j:].  Built back to front: the target
    splits as a value hit by the head block plus one hit by the tail,
    and each level is the split convolution of the head's table with
    the tail's.
    """
    syms = _live_symbols(pp)
    per_block = [{g: count_block(blk, pp, g) for g in syms} for blk in blocks]
    convolve = _split_convolution(pp, syms)
    suffix: list[Table] = [per_block[-1]]
    for head in reversed(per_block[:-1]):
        suffix.insert(0, convolve(head, suffix[0]))
    return per_block, suffix


def _split_convolution(pp: PrimePower, syms: list[PkSymbol]):
    """The level step of chain_tables over the inhabited symbols syms:
    maps the head's and the tail's tables to the table of head + tail,
    whose entry at g sums split size times h(g1) times c(g2) over the
    split cells (g1, g2).

    With o = ord(g) and the zero symbol counted at order k with class
    size 1, every cell whose orders are G apart has a size fixed by the
    orders alone: a g1 of order >= o + G pairs only with g (size |g1|),
    a g1 of order <= o - G only with -g1 (size |g1|), and g1 = g with
    every g2 of order >= o + G (size |g2|).  So

        total[g] = c(g) A[o+G] + h(g) C[o+G] + B[o-G] + near cells
        total[0] = B[k-1] + h(0) c(0)

    with A[m] = sum |g1| h(g1) and C[m] = sum |g2| c(g2) over orders
    >= m (the zero symbol in every A and C, since it is above any gap),
    and B[m] = sum |g1| h(g1) c(-g1) over finite orders <= m.  The near
    cells are the g1 of band[o] with their finite partners below o + G;
    their _near_partners lists are memoized for the levels of one
    chain_tables call.
    """
    k, gap = pp.k, _split_gap(pp)
    finite = [g for g in syms if g.ord != INF]
    layout = [(g, _class_size(pp, g), _negated_symbol(pp, g)) for g in finite]
    band = [[g1 for g1 in finite if o - gap < g1.ord < o + gap] for o in range(k)]
    near: dict[tuple[PkSymbol, PkSymbol], list[tuple[PkSymbol, int]]] = {}

    def convolve(head: Table, tail: Table) -> Table:
        zero_h, zero_c = head[SYMBOL_ZERO], tail[SYMBOL_ZERO]
        a_tot, a_np = [0] * (k + 1), [0] * (k + 1)
        c_tot, c_np = [0] * (k + 1), [0] * (k + 1)
        b_tot, b_np = [0] * k, [0] * k
        a_tot[k], a_np[k] = zero_h.total, zero_h.nonprimitive
        c_tot[k], c_np[k] = zero_c.total, zero_c.nonprimitive
        for g, size, neg in layout:
            o, h, c = g.ord, head[g], tail[g]
            c_tot[o] += size * c.total
            c_np[o] += size * c.nonprimitive
            if h.total:
                a_tot[o] += size * h.total
                a_np[o] += size * h.nonprimitive
                m = tail[neg]
                b_tot[o] += size * h.total * m.total
                b_np[o] += size * h.nonprimitive * m.nonprimitive
        for o in range(k - 1, -1, -1):
            a_tot[o] += a_tot[o + 1]
            a_np[o] += a_np[o + 1]
            c_tot[o] += c_tot[o + 1]
            c_np[o] += c_np[o + 1]
        for o in range(1, k):
            b_tot[o] += b_tot[o - 1]
            b_np[o] += b_np[o - 1]

        level: Table = {}
        for g in syms:
            if g.ord == INF:
                total = b_tot[k - 1] + zero_h.total * zero_c.total
                nprim = b_np[k - 1] + zero_h.nonprimitive * zero_c.nonprimitive
                level[g] = RepCounts(total, total - nprim, nprim)
                continue
            o, h, c = g.ord, head[g], tail[g]
            hi = min(o + gap, k)
            total = c.total * a_tot[hi] + h.total * c_tot[hi]
            nprim = c.nonprimitive * a_np[hi] + h.nonprimitive * c_np[hi]
            if o >= gap:
                total += b_tot[o - gap]
                nprim += b_np[o - gap]
            for g1 in band[o]:
                h1 = head[g1]
                if not h1.total:
                    continue
                partners = near.get((g, g1))
                if partners is None:
                    partners = near[g, g1] = _near_partners(pp, g, g1)
                for g2, s in partners:
                    c2 = tail[g2]
                    total += s * h1.total * c2.total
                    nprim += s * h1.nonprimitive * c2.nonprimitive
            level[g] = RepCounts(total, total - nprim, nprim)
        return level

    return convolve


def form_counts_by_symbol(q_mat: Matrix, pp: PrimePower) -> dict[PkSymbol, RepCounts]:
    """Counts of x'Qx = t for every target symbol at once."""
    n = check_symmetric(q_mat)
    if n == 0:
        return {PkSymbol(INF, 0): RepCounts(1, 0, 1)}
    bd = block_diagonalize(q_mat, pp)
    _, suffix = chain_tables(bd.blocks, pp)
    return suffix[0]


def count_form(q_mat: Matrix, pp: PrimePower, t: int) -> RepCounts:
    """Total / primitive / non-primitive counts of x'Qx = t mod p^k."""
    table = form_counts_by_symbol(q_mat, pp)
    g = symbol_of(pp, t)
    if g not in table:
        return RepCounts(0, 0, 0)
    return table[g]


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
    """Counts mod q = prod p_i^k_i by CRT.

    Totals multiply across prime powers.  A vector mod q is primitive
    iff it is primitive at every prime, so the primitive counts
    multiply as well; non-primitive is the complement.
    """
    _check_factors(factored_q)
    total = 1
    prim = 1
    for pp in factored_q:
        c = count_form(q_mat, pp, t)
        total *= c.total
        prim *= c.primitive
    return RepCounts(total, prim, total - prim)
