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
counts at target symbols, of the head block it peels and of the tail,
the blocks it peels after that one.  Each head block's counts come in
closed form (1x1 blocks for any p, 2x2 blocks for p = 2; block_cells),
as its list of cells: (symbol, total, non-primitive) at the inhabited
symbols where the total is not 0, in enumerate_symbols order, so a scan
reads only those.  A tail's counts are read on demand off the Gauss
sums of its blocks, by the reader a count uses (gauss.Level), only at
the cells a step's scan reaches.  {symbol: RepCounts} dicts are made
only at the public boundary (PreparedForm.table, symbol_table).

``prepare`` diagonalizes a form and builds what a count reads: each
block's order and unit class, taken once for the tallies and the walk
alike (gauss.block_classes), the tallies and the Level of all the
blocks.  PreparedForm.walk() builds, on its first call, what a draw's
walk with a step reads and a count does not: the layout, which holds
no table (symbols.SymbolLayout), the cells of each block the walk
peels but the last, highest order first (PreparedForm.walk_order), and
one Level per tail.  The walk's first step weighs the cells of the top
level, from the head block's cells and the first tail, and those
weights sum to the Gauss-sum count.  PreparedForm.table reads a new
Level of all the blocks at every symbol.
Draws and tables stay at level k.  A composite modulus is a list of
prepared factors, all of one number of variables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .blockdiag import BlockDiagForm, TypeII, check_symmetric, integer_det
# the elimination without the check: each public entry below checks Q once per call; it keeps
# the name under which the tests and perfbench/tracing.py count diagonalizations
from .blockdiag import _eliminate as block_diagonalize
from .gauss import BlockClass, Level, block_classes, block_signs, block_tallies, suffix_tallies
from .modring import INF, DomainError, PrimePower, valuation
from .symbols import SYMBOL_ZERO, PkSymbol, SymbolLayout

if TYPE_CHECKING:
    from fractions import Fraction

Matrix = list[list[int]]


class RepCounts(NamedTuple):
    total: int
    primitive: int
    nonprimitive: int


class SingularForm(DomainError):
    """det Q = 0, so the local density is undefined."""


class ZeroTarget(DomainError):
    """t = 0 has no stabilizing level; the local density is undefined."""


def symbol_table(layout: SymbolLayout, level: Level) -> dict[PkSymbol, RepCounts]:
    """A Level read at every symbol of the layout, as {symbol: RepCounts}
    in enumerate_symbols order, the form in which the public functions
    return tables."""
    table = {}
    for g in layout:
        tot, np_ = level.at(*g)
        table[g] = RepCounts(tot, tot - np_, np_)
    return table


def _type2_seeds(a: int, b: int, c: int) -> tuple[int, int]:
    """How many of the three odd-parity seeds (x, y) = (0,1), (1,0), (1,1)
    give a x^2 + b xy + c y^2 an even value, and how many an odd one."""
    odd = (c & 1) + (a & 1) + ((a + b + c) & 1)
    return 3 - odd, odd


def _scaled_type2_counts(seeds: tuple[int, int], t2: int, k2: int) -> tuple[int, int]:
    """(prim, nprim) for a x^2 + b xy + c y^2 = t2 over (Z/2^k2)^2, b
    odd, given the form's _type2_seeds.

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


def block_cells(cls: BlockClass, layout: SymbolLayout) -> list[tuple[PkSymbol, int, int]]:
    """The counts of the block of class cls (gauss.block_signs) in closed
    form, as (symbol, total, non-primitive) at every inhabited symbol
    where the total is not 0, in enumerate_symbols order.  A type I block
    d = p^e u reaches the zero symbol and one symbol in each order
    o = e, e + 2, ... below k, the one of u's square class: its Legendre
    symbol for odd p, and u mod 8 for p = 2, which layout.symbol reads
    modulo min(8, 2^(k - ord)).  There x = p^((o-e)/2) y with y a unit
    root of the unit parts (2 of them for odd p; for p = 2, 4 once
    k - o >= 3, else k - o) and (o + e)/2 free digits, primitive exactly
    at o = e; t = 0 takes the p^((k + e) // 2) x of order at least
    (k - e)/2, and d = 0 mod p^k every x.  A type II block's counts read
    the target only through its order (see _scaled_type2_counts), so
    each order takes one value, at t2 = 2^j, j = ord - ell - 1; below
    the top order those read j only through j = 0, its parity and
    j // 2, and come in one pass.  With E and O the primitive counts at
    an even and an odd t2 (the seeds of that parity times 2^(k2 - 1)),
    the primitive count is O at j = 0 and E above, and the non-primitive
    one 0 at j < 2, then (j // 2 - 1) E plus E at odd j and O at even j.
    An anisotropic block (a c odd) has E = 0, so no solution at every
    other order, which has no cell."""
    p, k = layout.pp.p, layout.pp.k
    if not isinstance(cls, TypeII):
        ord_d, sgn = cls
        if ord_d == INF:
            return [(SYMBOL_ZERO, p**k, p ** (k - 1))]
        top = p ** ((k + ord_d) // 2)
        cells = [(SYMBOL_ZERO, top, top)]
        for o in range(ord_d, k, 2):
            total = (2 if p != 2 else 4 if k - o >= 3 else k - o) * p ** ((o + ord_d) // 2)
            cells.append((layout.symbol(o, sgn), total, total if o > ord_d else 0))
        return cells
    if cls.ell + 1 >= k:
        return [(SYMBOL_ZERO, 4**k, 4 ** (k - 1))]
    k2, scale, seeds = k - cls.ell - 1, 4 ** (cls.ell + 1), _type2_seeds(cls.a, cls.b, cls.c)
    prim, np_ = _scaled_type2_counts(seeds, 0, k2)  # at the zero symbol, which x = 0 reaches
    cells = [(SYMBOL_ZERO, scale * (prim + np_), scale * np_)]
    even, odd = (scale * s << (k2 - 1) for s in seeds)  # E and O, scaled
    for j in range(k2):
        nprim = 0 if j < 2 else (j // 2 - 1) * even + (even if j & 1 else odd)
        total = (even if j else odd) + nprim
        if total:
            o = cls.ell + 1 + j
            cells += [(PkSymbol(o, s), total, nprim) for s in layout.signs(o)]
    return cells


def chain_tables(
    blocks: tuple[BlockClass, ...], layout: SymbolLayout
) -> tuple[list[list[tuple[PkSymbol, int, int]]], list[Level]]:
    """What a chain walk over the blocks reads, given by their classes as
    the cells read them (gauss.block_signs): per_block[j], the cells of
    blocks[j] (block_cells), for each head the walk peels, all but the
    last block, and tails[j], the Level of the blocks after it,
    blocks[j + 1:], whose entries are read off the Gauss sums of those
    blocks on demand.  The tallies of the tails are taken back to front,
    one block at a time.  Fewer than two blocks give no tables."""
    pp, tails, n = layout.pp, [], 0
    for cls, tallies in zip(reversed(blocks[1:]), suffix_tallies(blocks[1:], pp.p)):
        n += 2 if isinstance(cls, TypeII) else 1
        tails.append(Level(pp, n, tallies))
    tails.reverse()
    return [block_cells(cls, layout) for cls in blocks[:-1]], tails


class PreparedForm:
    """x'Qx mod p^k with its block diagonalization, and what counts and
    draws read of it.

    diag holds the blocks and the moves that reach them; diag.u, with
    u'Qu the direct sum of the blocks mod p^k, is built from those moves
    the first time it is read, and a draw applies the moves to its
    vector instead (diag.u_times).  Making the form takes each block's
    class once (classes), their tallies and the Level of all the blocks,
    which count reads: every caller counts.  walk() makes what a draw's
    chain walk reads, once.  The walk peels the blocks highest order
    first (walk_order), the reverse of the ascending order in which
    block_diagonalize, picking a minimal-order pivot each time, leaves
    them.  table reads a new layout and Level at every symbol on every
    read.
    """

    def __init__(self, pp: PrimePower, diag: BlockDiagForm):
        self.pp, self.diag, self.blocks = pp, diag, diag.blocks
        self.n = sum(blk.dim for blk in self.blocks)
        self.classes = block_classes(self.blocks, pp)
        self.tallies = block_tallies(self.classes, pp.p)
        self.level = Level(pp, self.n, self.tallies)
        self._walk = None  # walk()'s tables, made on its first call

    @property
    def walk_order(self) -> range:
        """The positions in blocks in the order the chain walk peels the
        blocks: highest order first.  Then the lowest-order blocks come
        last, and a head block of an order above the target's takes no
        square root, so a draw takes about one per factor, the last
        block's."""
        return range(len(self.blocks) - 1, -1, -1)

    def walk(self) -> tuple[SymbolLayout, list[list[tuple[PkSymbol, int, int]]], list[Level]]:
        """(layout, per_block, tails), made on the first call and kept:
        the form's symbol layout, per_block[j] the non-zero cells of the
        j-th block the walk peels, blocks[walk_order[j]] (block_cells),
        and tails[j] the Level of the direct sum of the blocks it peels
        after that one (chain_tables).  A one-block form's walk has no
        step and never calls this."""
        if self._walk is None:
            signed = block_signs(self.classes, self.tallies, self.pp.p)
            layout = SymbolLayout(self.pp)
            self._walk = (layout, *chain_tables(tuple(map(signed.__getitem__, self.walk_order)), layout))
        return self._walk

    @property
    def table(self) -> dict[PkSymbol, RepCounts]:
        """Counts at every inhabited target symbol, read on each read from
        a new Level of all the blocks, and for the form in no variables
        the one solution at target 0."""
        if not self.blocks:
            return {SYMBOL_ZERO: RepCounts(1, 0, 1)}
        return symbol_table(SymbolLayout(self.pp), Level(self.pp, self.n, self.tallies))

    def count(self, t: int) -> RepCounts:
        """Total / primitive / non-primitive counts of x'Qx = t mod p^k,
        in one read of the form's Level at t's order and unit part
        (gauss.Level.count): the total is N_k(t), and the non-primitive
        count p^n N_(k-2)(t / p^2) when p^2 divides t, 0 when not (at
        k = 1, 1 at t = 0 mod p).  It builds no layout and no table, and
        takes t's Legendre symbol only where an edge term twists by it.
        Raises ArithmeticError where the sums do not give a count."""
        if type(t) is not int:
            raise DomainError(f"t must be an int, got {type(t).__name__}")
        total, nprim = self.level.count(*valuation(self.pp, t % self.pp.q))
        return RepCounts(total, total - nprim, nprim)


def prepare(q_mat: Matrix, pp: PrimePower) -> PreparedForm:
    """Check Q and block-diagonalize it, once, and take what a count
    reads (PreparedForm).  The layout and tables of a draw's walk are
    left to the form's first walk(), and u to its first read."""
    check_symmetric(q_mat)
    return _prepare(q_mat, pp)


def _prepare(q_mat: Matrix, pp: PrimePower) -> PreparedForm:
    """prepare of a Q that check_symmetric has passed."""
    return PreparedForm(pp, block_diagonalize(q_mat, pp))


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
    if type(t) is not int:
        raise DomainError(f"t must be an int, got {type(t).__name__}")
    check_symmetric(q_mat)
    return _count_form(q_mat, pp, t)


def _count_form(q_mat: Matrix, pp: PrimePower, t: int) -> RepCounts:
    """count_form of an int t and a Q that check_symmetric has passed."""
    ord_t = valuation(pp, t % pp.q).ord  # INF at t = 0 mod p^k, which makes L = k
    level = min(pp.k, ord_t + 1 + 2 * (pp.p == 2)) if q_mat else pp.k
    scale = pp.p ** ((len(q_mat) - 1) * (pp.k - level))
    c = _prepare(q_mat, pp.with_exponent(level)).count(t)
    total, nonprimitive = c.total * scale, c.nonprimitive * scale
    return RepCounts(total, total - nonprimitive, nonprimitive)


def local_density(q_mat: Matrix, p: int, t: int) -> Fraction:
    """The local density of Q at t: A_{p^s}(Q,t) / p^(s(n-1)) at the
    stabilizing level s = 1 + ord_p(8 t det Q)."""
    if type(t) is not int:
        raise DomainError(f"t must be an int, got {type(t).__name__}")
    check_symmetric(q_mat)
    return _local_density(q_mat, p, t)


def _local_density(q_mat: Matrix, p: int, t: int) -> Fraction:
    """local_density of an int t and a Q that check_symmetric has passed."""
    from fractions import Fraction  # only a density needs it: no count or draw loads fractions

    n, det = len(q_mat), integer_det(q_mat)
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
    total = _count_form(q_mat, pp, t).total
    return Fraction(total) / Fraction(p) ** (s * (n - 1))  # exact at n = 0 too


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
    docstring).  No table is built, and Q is checked once."""
    _check_factors(factored_q)
    if type(t) is not int:
        raise DomainError(f"t must be an int, got {type(t).__name__}")
    check_symmetric(q_mat)
    return _count_composite(q_mat, factored_q, t)


def _count_composite(q_mat: Matrix, factored_q: list[PrimePower], t: int) -> RepCounts:
    """count_composite of checked factors, an int t and a Q that
    check_symmetric has passed."""
    return _crt_counts([_count_form(q_mat, pp, t) for pp in factored_q])


def _check_forms(forms: list[PreparedForm]) -> None:
    """_check_factors, and reject forms of different numbers of variables."""
    _check_factors([form.pp for form in forms])
    if len({form.n for form in forms}) != 1:
        raise DomainError("the prepared factors have different numbers of variables")


def count_factors(forms: list[PreparedForm], t: int) -> RepCounts:
    """Counts mod the product of the prepared factors' moduli, by CRT;
    forms of different numbers of variables raise DomainError."""
    _check_forms(forms)
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
