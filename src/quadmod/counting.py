"""Exact solution counts for x'Qx = t over Z/p^k and Z/q.

Per-block closed forms (1x1 blocks for any p, 2x2 blocks for p = 2)
are glued together by a dynamic program over p^k-symbols: the count of
a direct sum at target symbol g is the sum over symbol pairs (g1, g2)
of the split size (g; g1, g2) times the factors' counts, where g2 runs
over the non-zero entries of split_partners(g, g1) only.  Totals and
non-primitive counts both satisfy that convolution (a vector is
non-primitive iff every component block is), and primitive = total -
non-primitive.
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
    PkSymbol,
    _split_partners,
    class_size,
    enumerate_symbols,
    symbol_of,
)

Matrix = list[list[int]]


class RepCounts(NamedTuple):
    total: int
    primitive: int
    nonprimitive: int


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


def chain_tables(
    blocks: tuple[Block, ...], pp: PrimePower
) -> tuple[list[dict[PkSymbol, RepCounts]], list[dict[PkSymbol, RepCounts]]]:
    """Per-block and suffix count tables, one entry per inhabited symbol.

    suffix[j][g] counts representations of (any target of symbol g) by
    the direct sum of blocks[j:].  Built back to front: the target
    splits as a value hit by the head block plus one hit by the tail,
    and split_partners lists the tail symbols a head symbol can pair
    with, with how many (head value, tail value) pairs realize each.
    """
    syms = _live_symbols(pp)
    per_block = [{g: count_block(blk, pp, g) for g in syms} for blk in blocks]
    suffix: list[dict[PkSymbol, RepCounts]] = [per_block[-1]]
    for head in reversed(per_block[:-1]):
        tail = suffix[0]
        level: dict[PkSymbol, RepCounts] = {}
        for g in syms:
            total = 0
            nprim = 0
            for g1, h in head.items():
                if h.total == 0:
                    continue
                for g2, s in _split_partners(pp, g, g1):
                    c = tail[g2]
                    if c.total == 0:
                        continue
                    total += s * h.total * c.total
                    nprim += s * h.nonprimitive * c.nonprimitive
            level[g] = RepCounts(total, total - nprim, nprim)
        suffix.insert(0, level)
    return per_block, suffix


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


def count_composite(q_mat: Matrix, factored_q: list[PrimePower], t: int) -> RepCounts:
    """Counts mod q = prod p_i^k_i by CRT.

    Totals multiply across prime powers.  A vector mod q is primitive
    iff it is primitive at every prime, so the primitive counts
    multiply as well; non-primitive is the complement.
    """
    if not factored_q:
        raise DomainError("need at least one prime power")
    primes = [pp.p for pp in factored_q]
    if len(set(primes)) != len(primes):
        raise DomainError("duplicate primes in the factorization")
    total = 1
    prim = 1
    for pp in factored_q:
        c = count_form(q_mat, pp, t)
        total *= c.total
        prim *= c.primitive
    return RepCounts(total, prim, total - prim)
