"""Las Vegas exactly-uniform samplers for x'Qx = t mod p^k and mod q.

Draws read prepared forms (counting.prepare).  Each draw counts each
factor once, by its Gauss sums (PreparedForm.count), and takes t's
symbol once; a draw whose class is empty ends there.  Otherwise the
chain walk runs and reads PreparedForm.walk(), made on the form's
first walk, once per prime-power factor: its layout, a list of non-zero
cells per head block (counting.block_cells) and a Level per tail, read
where a step's scan reaches it.  They give the walk's cell weights,
whose sum at the first step is the count.  The walk peels the blocks highest order first
(PreparedForm.walk_order), so the lowest-order blocks come last and a
draw mostly takes one square root per factor, the last block's.  Every
cell is named by its symbols: the walk reads its split cells (g1, g2)
from the form's symbol layout, which computes them by rule, its head
entries from the head's cells, in enumerate_symbols order, and its tail
entries at g2.  Each step draws once below the count of its class and
scans the cells in order to the one that holds the draw.  A choice that
only one class can take (the kind of an ANY draw, a factor's branch of
a composite NONPRIMITIVE draw) is made without a draw.

Outcomes: a Solution is returned as a plain value (ring element for
one-dimensional samplers, tuple of ring elements for forms); an empty
solution class returns None (NoSolution); exhausting the retry cap of
a randomized search raises LasVegasFail (Fail); a kind that is not a
RepKind, or a t that is not an int, raises DomainError before any
draw.  All case selection
draws exact big-integer weights via uniform_below -- no floats, so a
fixed seed gives a fixed transcript.

Only odd-p rejection steps can fail: the unit-digit draw of a symbol
class, the unit-digit loop of a cell whose three orders are equal
(_draw_unit_digit, which a split and a type I head step share), and the
non-residue search that starts a square root mod a prime p = 1 mod 8.
Every p = 2 path is deterministic once its random free digits are drawn.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from typing import TypeVar

from .blockdiag import Block, TypeI, TypeII, check_symmetric
from .counting import (
    Level,
    PreparedForm,
    _check_forms,
    _crt_counts,
    _prepare,
    _scaled_type2_counts,
    _type2_seeds,
    prepare,
)
from .modring import (
    INF,
    DomainError,
    PrimePower,
    RandomSource,
    legendre,
    uniform_below,
    valuation,
)
from .sqroots import RETRY_CAP, LasVegasFail, lift_sqrt_odd, sqrt_unit_mod_2k
from .symbols import PkSymbol, SymbolLayout, _check_symbol, _is_empty, split_class_size, symbol_of

T = TypeVar("T")


class RepKind(Enum):
    ANY = "any"
    PRIMITIVE = "primitive"
    NONPRIMITIVE = "nonprimitive"


def _check_kind(kind: RepKind) -> None:
    if not isinstance(kind, RepKind):
        raise DomainError(f"kind must be a RepKind, got {type(kind).__name__}")


def sample_symbol_elem(pp: PrimePower, g: PkSymbol, rng: RandomSource) -> int:
    """Uniform element of the symbol class of g in Z/p^k."""
    _check_symbol(pp, g)
    if g.ord == INF:
        return 0
    if _is_empty(pp, g):
        raise DomainError(f"symbol {g} has an empty class mod p^{pp.k}")
    p, k, q = pp.p, pp.k, pp.q
    i = g.ord
    if p == 2:
        m = k - i
        if m <= 2:
            return (2**i * g.sgn) % q
        d = uniform_below(2 ** (m - 3), rng)
        return 2**i * (8 * d + g.sgn)
    # odd p: rejection on the unit digit (accepts w.p. (p-1)/2p), then
    # uniform higher digits
    for _ in range(RETRY_CAP):
        tau = uniform_below(p, rng)
        if _is_unit_of_sign(tau, p, g.sgn):
            d = uniform_below(p ** (k - i - 1), rng)
            return (p**i * (d * p + tau)) % q
    raise LasVegasFail("no unit digit with the requested sign found")


def sample_split(
    pp: PrimePower, t: int, g1: PkSymbol, g2: PkSymbol, rng: RandomSource
) -> tuple[int, int] | None:
    """Uniform pair (a, b) with symbol(a) = g1, symbol(b) = g2, a + b = t;
    None when no such pair exists.  A draw whose equal-orders rejection
    loop runs out is started again, RETRY_CAP times in all."""
    g = symbol_of(pp, t)  # and checks t
    t %= pp.q
    if split_class_size(pp, g, g1, g2) == 0:
        return None
    return _restarting(lambda: _split(pp, t, g, g1, g2, rng))


def _split(
    pp: PrimePower, t: int, g: PkSymbol, g1: PkSymbol, g2: PkSymbol, rng: RandomSource
) -> tuple[int, int]:
    """sample_split for a reduced t of symbol g and a cell (g1, g2) with
    a non-zero split size, which the caller has already checked."""
    p, k, q = pp.p, pp.k, pp.q
    if g1.ord != g.ord:
        # a determines b, and every element of the g1-class works
        a = sample_symbol_elem(pp, g1, rng)
        return a, (t - a) % q
    if g2.ord != g.ord:
        b = sample_symbol_elem(pp, g2, rng)
        return (t - b) % q, b
    if g.ord == INF:
        return 0, 0
    # equal finite orders: odd p only (the p = 2 split size is 0).  Both
    # parts' signs rest on a's unit digit alone, so draw it until both
    # come out right, and only then a's higher digits
    i = g.ord
    ct = (t // p**i) % p
    a1 = _draw_unit_digit(p, lambda u: legendre(u, p) == g1.sgn and _is_unit_of_sign(ct - u, p, g2.sgn), rng)
    a = p**i * (a1 + p * uniform_below(p ** (k - i - 1), rng))
    return a, (t - a) % q


def _draw_unit_digit(p: int, accept: Callable[[int], bool], rng: RandomSource) -> int:
    """The rejection loop of an odd-p cell whose three orders are equal:
    a unit digit in 1..p-1, drawn again until accept holds for it.  A
    split accepts with probability at least 1/6 (tending to 1/4), a type
    I head step at least 1/3 (tending to 1/2).  RETRY_CAP trials without
    success raise LasVegasFail."""
    for _ in range(RETRY_CAP):
        y0 = 1 + uniform_below(p - 1, rng)
        if accept(y0):
            return y0
    raise LasVegasFail("equal-orders rejection exhausted")


def _is_unit_of_sign(b: int, p: int, sgn: int) -> bool:
    """Whether b is a unit mod the odd prime p with Legendre symbol sgn."""
    return b % p != 0 and legendre(b, p) == sgn


def _sample_type1(d: int, pp: PrimePower, t: int, g: PkSymbol, want_prim: bool, rng: RandomSource) -> int:
    """Uniform x with d*x^2 = t mod p^k, for a reduced t of symbol g, in
    the primitive (want_prim) or non-primitive class, which the caller
    has checked is not empty."""
    p, k, q = pp.p, pp.k, pp.q
    ord_d, cop_d = valuation(pp, d % q)

    if g.ord == INF:
        if ord_d == INF:
            rest = uniform_below(p ** (k - 1), rng)
            if want_prim:
                return (1 + uniform_below(p - 1, rng) + p * rest) % q
            return p * rest % q
        # non-zero d: x must vanish to order ceil((k - ord d)/2); all
        # such x work and all are non-primitive
        e = -((k - ord_d) // -2)
        return p**e * uniform_below(p ** (k - e), rng) % q

    # t != 0: x = p^e * y with y = (root of the unit equation) + free digits
    e = (g.ord - ord_d) // 2
    mres = k - g.ord
    cop_t = (t // p**g.ord) % p**mres
    u = cop_t * pow(cop_d, -1, p**mres) % p**mres
    if p == 2:
        roots = sqrt_unit_mod_2k(mres, u)
    else:
        roots = lift_sqrt_odd(pp.with_exponent(mres), u, rng)
    r = roots[uniform_below(len(roots), rng)]
    f = uniform_below(p ** ((g.ord + ord_d) // 2), rng)
    return p**e * (r + p**mres * f) % q


def _sample_scaled_type2(
    a: int, b: int, c: int, t2: int, k2: int, want_prim: bool, rng: RandomSource
) -> tuple[int, int]:
    """Uniform solution of a x^2 + b xy + c y^2 = t2 over (Z/2^k2)^2 in
    the requested parity class (assumed non-empty).

    A non-primitive solution is y = 2z with F(z) = t2/4 at two fewer
    bits and the top bit of each z coordinate free.  The loop walks down
    those levels first, drawing at each whether the inner solution is
    primitive, solves the last level, then draws the free top bits on
    the way back up: the draw order of a recursion, without its depth.
    """
    seeds = _type2_seeds(a, b, c)
    upper = []  # exponents of the non-primitive levels above the last
    while not want_prim and k2 >= 3:
        upper.append(k2)
        k2 -= 2
        t2 = (t2 // 4) % 2**k2
        p4, n4 = _scaled_type2_counts(seeds, t2, k2)
        want_prim = uniform_below(p4 + n4, rng) < p4
    q2 = 2**k2
    if want_prim:
        starts = [s for s in ((0, 1), (1, 0), (1, 1)) if (a * s[0] + b * s[0] * s[1] + c * s[1] - t2) % 2 == 0]
        y1, y2 = starts[uniform_below(len(starts), rng)]
        for j in range(1, k2):
            # F(y) = t2 mod 2^j so far; fix the next bit.  Adding
            # (b1, b2)*2^j changes F by b*(y1 b2 + y2 b1)*2^j mod 2^(j+1),
            # so with b odd one bit is forced and one is free.
            r = ((t2 - a * y1 * y1 - b * y1 * y2 - c * y2 * y2) >> j) & 1
            if y1 % 2:
                b1 = uniform_below(2, rng)
                b2 = (r - y2 * b1) % 2
            else:
                b2 = uniform_below(2, rng)
                b1 = r
            y1 += b1 << j
            y2 += b2 << j
        y1, y2 = y1 % q2, y2 % q2
    elif k2 == 1:
        y1, y2 = 0, 0
    else:  # k2 == 2: z is free mod 2
        z1, z2 = uniform_below(2, rng), uniform_below(2, rng)
        y1, y2 = 2 * z1 % q2, 2 * z2 % q2
    for k_up in reversed(upper):
        m = k_up - 2
        z1 = y1 + (uniform_below(2, rng) << m)
        z2 = y2 + (uniform_below(2, rng) << m)
        y1, y2 = 2 * z1 % 2**k_up, 2 * z2 % 2**k_up
    return y1, y2


def _sample_type2(blk: TypeII, k: int, t: int, want_prim: bool, rng: RandomSource) -> tuple[int, int]:
    """Uniform (x1, x2) with 2^(ell+1)(a x1^2 + b x1x2 + c x2^2) = t mod
    2^k, for a reduced t, in the primitive (want_prim) or non-primitive
    class, which the caller has checked is not empty."""
    q = 2**k
    ell = blk.ell
    if ell + 1 >= k:
        # the form vanishes identically; sample parities directly
        half = 2 ** (k - 1)
        if want_prim:
            case = uniform_below(3, rng)  # (odd,odd), (odd,even), (even,odd)
            x1 = 1 + 2 * uniform_below(half, rng) if case != 2 else 2 * uniform_below(half, rng)
            x2 = 1 + 2 * uniform_below(half, rng) if case != 1 else 2 * uniform_below(half, rng)
        else:
            x1 = 2 * uniform_below(half, rng)
            x2 = 2 * uniform_below(half, rng)
        return x1 % q, x2 % q
    k2 = k - ell - 1
    t2 = (t >> (ell + 1)) % 2**k2
    y1, y2 = _sample_scaled_type2(blk.a, blk.b, blk.c, t2, k2, want_prim, rng)
    # ell+1 unconstrained top bits per coordinate
    x1 = y1 + (uniform_below(2 ** (ell + 1), rng) << k2)
    x2 = y2 + (uniform_below(2 ** (ell + 1), rng) << k2)
    return x1 % q, x2 % q


def _sample_block(
    blk: Block, pp: PrimePower, t: int, g: PkSymbol, want_prim: bool, rng: RandomSource
) -> tuple[int, ...]:
    """Uniform solution of one block at a reduced t of symbol g, in a
    class the chain walk has weighted by its non-zero count."""
    if isinstance(blk, TypeI):
        return (_sample_type1(blk.d, pp, t, g, want_prim, rng),)
    return _sample_type2(blk, pp.k, t, want_prim, rng)


def _sample_chain(form: PreparedForm, t: int, g: PkSymbol, want_prim: bool, total: int, rng: RandomSource) -> list[int]:
    """Uniform solution of the direct sum of the form's blocks at a
    reduced target t of symbol g in the given class, whose count is
    total, one block peeled off per step, highest order first
    (form.walk_order): draw below the class's count (total, then the
    tail's entry at the chosen g2) and scan to the cell (g1, g2) that
    holds the draw (_pick_cell), give the head block a value of symbol
    g1 and the tail the rest of the target, then go on with the tail.
    The block solutions are returned in the blocks' own order.

    A type I head with a finite g1 draws its x directly
    (_sample_head_type1), with no square root, except in a cell with
    ord g1 = ord g < ord g2; there, and for a zero g1 or a type II head,
    the step splits the target (_split) and solves the head block at its
    share.  Since the lowest-order blocks come last, a head's tail has
    an order at most the head's, and that cell holds a weight of about
    1/p at odd p, so a draw mostly takes one square root: the last
    block's.  The chosen cell is used without checking its size again:
    the walk only picks cells of non-zero weight.  The tail's target has
    the symbol g2 of its cell, the next step's target symbol, and the
    head's value has the symbol g1, so no step takes a symbol or a count
    again.  A one-block form's walk has no step: it reads neither the
    layout nor a table."""
    pp, blocks = form.pp, form.blocks
    *order, last = form.walk_order
    parts: list[tuple[int, ...]] = [()] * len(blocks)
    if order:  # a walk with a step reads the layout and the tables
        layout, per_block, tails = form.walk()
    for j, b in enumerate(order):
        r = uniform_below(total, rng)
        g1, g2, head_prim, want_prim = _pick_cell(layout, per_block[j], tails[j], g, want_prim, r)
        blk = blocks[b]
        if isinstance(blk, TypeI) and g1.ord != INF and (g1.ord != g.ord or g2.ord == g.ord):
            x, t = _sample_head_type1(blk.d, pp, t, g, g1, g2, rng)
            parts[b] = (x,)
        else:
            a, t = _split(pp, t, g, g1, g2, rng)
            parts[b] = _sample_block(blk, pp, a, g1, head_prim, rng)
        c_tot, c_np = tails[j].at(*g2)
        total, g = c_tot - c_np if want_prim else c_np, g2
    parts[last] = _sample_block(blocks[last], pp, t, g, want_prim, rng)
    return [v for part in parts for v in part]


def _sample_head_type1(
    d: int, pp: PrimePower, t: int, g: PkSymbol, g1: PkSymbol, g2: PkSymbol, rng: RandomSource
) -> tuple[int, int]:
    """One chain-walk step for a type I head d*x^2 in the cell (g1, g2)
    of a reduced t of symbol g, where g1 is finite and ord g1 != ord g
    or ord g2 = ord g: the head's x, and the tail's target t - d*x^2.

    Every value of class g1 has the same number of roots x, so an x
    drawn uniformly from {x : symbol(d*x^2) = g1}, kept when t - d*x^2
    has symbol g2, has the law of a uniform split followed by a uniform
    root.  That set is x = p^e*y, e = (ord g1 - ord d)/2, y any unit
    mod p^(k-e): d*y^2 has the sign of d, for odd p because y^2 is a
    square and for p = 2 because y^2 = 1 mod 8.  When ord g1 != ord g,
    every x of the set leaves the tail a target of symbol g2.  The cell
    with ord g1 = ord g2 = ord g occurs for odd p only (at p = 2 it is
    empty); there the tail's sign rests on y mod p alone, so y's unit
    digit is drawn again until that sign is g2's (_draw_unit_digit, the
    loop an equal-orders split also runs; each trial succeeds with
    probability at least 1/3, tending to 1/2), and only then its higher
    digits.  The cell's weight already makes x primitive exactly when
    e = 0.
    """
    p, k, q = pp.p, pp.k, pp.q
    ord_d, cop_d = valuation(pp, d % q)
    e = (g1.ord - ord_d) // 2
    m = k - e
    if p == 2:
        y = 1 + 2 * uniform_below(2 ** (m - 1), rng)
    else:
        if g1.ord == g.ord:
            ct, cd = (t // p**g.ord) % p, cop_d % p
            y0 = _draw_unit_digit(p, lambda u: _is_unit_of_sign(ct - cd * u * u, p, g2.sgn), rng)
        else:
            y0 = 1 + uniform_below(p - 1, rng)
        y = y0 + p * uniform_below(p ** (m - 1), rng)
    x = p**e * y % q
    return x, (t - d * x * x) % q


def _pick_cell(
    layout: SymbolLayout, head: list[tuple[PkSymbol, int, int]], tail: Level, g: PkSymbol, want_prim: bool, r: int
) -> tuple[PkSymbol, PkSymbol, bool, bool]:
    """The cell (g1, g2, head primitive, tail primitive) of the target of
    symbol g whose weight holds r, scanning the head's cells (g1, h, hn)
    (block_cells) and each one's split cells (g1, g2) in partners order.
    A cell weighs its split size times the head's count at g1 times the
    tail's at g2 in their classes: in the primitive class the sum of its
    three primitivity splits, which only the cell that holds r tells
    apart.  r must fall below the sum of the weights, the count of the
    target's class.  The tail is read only at the g2 the scan reaches,
    and the far run of g1 = g, the last of its partners, which starts at
    the symbol (ord g + G, 1), is weighed whole (tail.above) and scanned
    only when r falls in it."""
    far = (g.ord + layout.gap, 1)  # only compared: a plain pair, and no symbol when ord g + G >= k
    for g1, h, hn in head:
        for g2, size in layout.partners(g, g1):
            if g2 == far:  # every symbol from here up, but the zero symbol read first
                (at, an), (zt, zn) = tail.above(far[0]), tail.at(INF, 0)
                w = hn * (an - zn) if not want_prim else hn * (at - an - zt + zn) + (h - hn) * (at - zt)
                if r >= w:
                    r -= w
                    break
                far = None  # scan the run cell by cell
            ct, cn = tail.at(g2.ord, g2.sgn)  # not at(*g2), which copies a tuple subclass per call
            sized_hn = size * hn  # each product below takes one big tail count
            w = size * h * ct - sized_hn * cn if want_prim else sized_hn * cn
            if r >= w:
                r -= w
                continue
            if not want_prim:
                return g1, g2, False, False
            # the splits, in the order (head, tail primitive) = (no, yes), (yes, no), (yes, yes)
            w = sized_hn * (ct - cn)
            if r < w:
                return g1, g2, False, True
            return g1, g2, True, r - w >= size * (h - hn) * cn
    raise RuntimeError("the chain walk ran past its last cell: a tail disagrees with the count drawn below")


def _restarting(draw: Callable[[], T]) -> T:
    """draw(), started again after each LasVegasFail; the RETRY_CAP-th
    failure is raised."""
    for _ in range(RETRY_CAP):
        try:
            return draw()
        except LasVegasFail:
            continue
    raise LasVegasFail("every restart of the draw failed")


def sample_form(
    q_mat, pp: PrimePower, t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, ...] | None:
    """Uniform solution of x'Qx = t mod p^k of the requested kind:
    prepare the form (diagonalize it) and draw from it with
    sample_prepared, whose walk makes the form's tables."""
    return sample_prepared(prepare(q_mat, pp), t, kind, rng)


def sample_prepared(form: PreparedForm, t: int, kind: RepKind, rng: RandomSource) -> tuple[int, ...] | None:
    """Uniform solution of the prepared x'Qx = t mod p^k of the requested
    kind: the draw of sample_factors from its one factor."""
    return sample_factors([form], t, kind, rng)


def sample_composite(
    q_mat, factored_q: list[PrimePower], t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, ...] | None:
    """Uniform solution mod q = prod p_i^k_i of the requested kind:
    check Q once, prepare the form once per prime power and draw with
    sample_factors.  Each factor is counted by its Gauss sums, and its
    tables are made once, for its walk, when the draw reaches it."""
    if factored_q:  # an empty list is sample_factors' error, raised before Q is read
        check_symmetric(q_mat)
    return sample_factors([_prepare(q_mat, pp) for pp in factored_q], t, kind, rng)


def sample_factors(
    forms: list[PreparedForm], t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, ...] | None:
    """Uniform solution mod the product of the prepared factors' moduli,
    of the requested kind, assembled by the Chinese Remainder Theorem.

    Each factor is counted once and t's symbol taken once per factor; a
    class that the product's count leaves empty returns None before any
    draw.  Then each factor takes its class in turn: Primitive the
    primitive one, Any one drawn with probability proportional to its
    count.  NonPrimitive means non-primitive at *some* prime: until a
    factor is drawn non-primitive, each branches, with exact weights,
    between "this factor non-primitive, rest unconstrained" and "this
    factor primitive, constraint pending"; the factors after it are
    drawn as Any.  A choice that only one class can take uses no draw.

    In its class, a factor's walk peels the blocks off one at a time,
    highest order first (_sample_chain): it chooses how the target
    splits between that block and the rest, and how primitivity splits,
    with exact count weights, then goes on with the rest.  Block
    solutions y, put back in the blocks' own order, pull back to x = U y
    since U'QU is the block form, with U applied as the diagonalization's
    moves: U is never built, and nothing is diagonalized here.  A form's
    first walk with a step calls form.walk(), which makes the layout and
    tables and keeps them, so repeated draws of one prepared form pay
    only for the count and the walk.  The form in no variables has no
    blocks and no walk: its one solution, the empty vector, is of value
    0 and non-primitive.  Forms of different numbers of variables raise
    DomainError before any draw.
    """
    _check_forms(forms)
    _check_kind(kind)
    syms = [symbol_of(form.pp, t) for form in forms]
    per = [form.count(t) for form in forms]
    n_any, n_prim, n_non = _crt_counts(per)
    if not (n_prim if kind is RepKind.PRIMITIVE else n_non if kind is RepKind.NONPRIMITIVE else n_any):
        return None
    q = math.prod(form.pp.q for form in forms)
    x = [0] * forms[0].n
    pending = kind is RepKind.NONPRIMITIVE  # and no factor drawn non-primitive yet
    for j, (form, g, c) in enumerate(zip(forms, syms, per)):
        if pending:
            rest = _crt_counts(per[j + 1 :])
            w_non, w_prim = c.nonprimitive * rest.total, c.primitive * rest.nonprimitive
            pending = want_prim = not w_non or bool(w_prim) and uniform_below(w_non + w_prim, rng) >= w_non
        elif kind is RepKind.PRIMITIVE:
            want_prim = True
        elif c.primitive and c.nonprimitive:
            want_prim = uniform_below(c.total, rng) < c.primitive
        else:
            want_prim = bool(c.primitive)
        pp, total = form.pp, c.primitive if want_prim else c.nonprimitive
        y = _restarting(lambda: _sample_chain(form, t % pp.q, g, want_prim, total, rng)) if form.blocks else []
        m = q // pp.q
        e = m * pow(m, -1, pp.q)  # 1 mod this factor's modulus, 0 mod the others'
        for i, v in enumerate(form.diag.u_times(y)):
            x[i] = (x[i] + e * v) % q
    return tuple(x)
