"""Las Vegas exactly-uniform samplers for x'Qx = t mod p^k and mod q.

Draws read prepared forms (counting.prepare), whose tables are built
once per prime-power factor; the chain walk reads its split cells from
the form's symbol layout, which computes the near cells by rule.

Outcomes: a Solution is returned as a plain value (ring element for
one-dimensional samplers, tuple of ring elements for forms); an empty
solution class returns None (NoSolution); exhausting the retry cap of
a randomized search raises LasVegasFail (Fail).  All case selection
draws exact big-integer weights via uniform_below -- no floats, so a
fixed seed gives a fixed transcript.

Only odd-p rejection steps (non-residue search, the equal-orders split
of Lemma-style rejection) can fail; every p = 2 path is deterministic
once its random free digits are drawn.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

from .blockdiag import Block, TypeI, TypeII, mat_vec
from .counting import (
    PreparedForm,
    RepCounts,
    _check_factors,
    _count_scaled_type2,
    count_type1,
    count_type2,
    prepare,
)
from .modring import (
    INF,
    TWO,
    DomainError,
    PrimePower,
    RandomSource,
    legendre,
    uniform_below,
    valuation,
)
from .sqroots import RETRY_CAP, LasVegasFail, lift_sqrt_odd, sqrt_unit_mod_2k
from .symbols import PkSymbol, class_size, split_class_size, symbol_of

logger = logging.getLogger(__name__)


class RepKind(Enum):
    ANY = "any"
    PRIMITIVE = "primitive"
    NONPRIMITIVE = "nonprimitive"


@dataclass
class RejectionStats:
    """Counters for single iterations of the equal-orders rejection loop."""

    trials: int = 0
    rejects: int = 0

    def record(self, accepted: bool) -> None:
        self.trials += 1
        if not accepted:
            self.rejects += 1
            logger.debug("split rejection (%d/%d rejected)", self.rejects, self.trials)

    def failure_rate(self) -> float:
        return self.rejects / self.trials if self.trials else 0.0

    def reset(self) -> None:
        self.trials = 0
        self.rejects = 0


split_rejection_stats = RejectionStats()


def _choose_kind(c: RepCounts, kind: RepKind, rng: RandomSource) -> bool | None:
    """Pick the primitive (True) or non-primitive (False) class with
    probability proportional to its count; None when the request is empty."""
    if kind is RepKind.PRIMITIVE:
        return True if c.primitive else None
    if kind is RepKind.NONPRIMITIVE:
        return False if c.nonprimitive else None
    if c.total == 0:
        return None
    return uniform_below(c.total, rng) < c.primitive


def sample_symbol_elem(pp: PrimePower, g: PkSymbol, rng: RandomSource) -> int:
    """Uniform element of the symbol class of g in Z/p^k."""
    size = class_size(pp, g)  # also validates the symbol shape
    if g.ord == INF:
        return 0
    if size == 0:
        raise DomainError(f"symbol {g} has an empty class for {pp.p}^{pp.k}")
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
        if tau and legendre(tau, p) == g.sgn:
            d = uniform_below(p ** (k - i - 1), rng)
            return (p**i * (d * p + tau)) % q
    raise LasVegasFail("no unit digit with the requested sign found")


def sample_split(
    pp: PrimePower, t: int, g1: PkSymbol, g2: PkSymbol, rng: RandomSource
) -> tuple[int, int] | None:
    """Uniform pair (a, b) with symbol(a) = g1, symbol(b) = g2, a + b = t;
    None when no such pair exists."""
    t %= pp.q
    g = symbol_of(pp, t)
    if split_class_size(pp, g, g1, g2) == 0:
        return None
    return _split(pp, t, g, g1, g2, rng)


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
    # equal finite orders: odd p only (the p=2 split size is 0).  Both
    # unit parts are constrained, so draw the unit part of a and accept
    # when both Legendre signs come out right.
    i = g.ord
    m = k - i
    cop_t = (t // p**i) % p**m
    if p <= 7:
        # few unit digits: enumerate the valid leading-digit pairs
        ct = cop_t % p
        lead = [
            a1
            for a1 in range(1, p)
            if (ct - a1) % p != 0
            and legendre(a1, p) == g1.sgn
            and legendre(ct - a1, p) == g2.sgn
        ]
        a1 = lead[uniform_below(len(lead), rng)]
        tau1 = uniform_below(p ** (m - 1), rng) * p + a1
    else:
        for _ in range(RETRY_CAP):
            tau1 = uniform_below(p**m, rng)
            tau2 = (cop_t - tau1) % p**m
            ok = (
                tau1 % p != 0
                and tau2 % p != 0
                and legendre(tau1, p) == g1.sgn
                and legendre(tau2, p) == g2.sgn
            )
            split_rejection_stats.record(ok)
            if ok:
                break
        else:
            raise LasVegasFail("equal-orders split rejection exhausted")
    a = p**i * tau1 % q
    return a, (t - a) % q


def sample_type1(
    d: int, pp: PrimePower, t: int, kind: RepKind, rng: RandomSource
) -> int | None:
    """Uniform x with d*x^2 = t mod p^k in the requested class."""
    p, k, q = pp.p, pp.k, pp.q
    t %= q
    g = symbol_of(pp, t)
    c = count_type1(d, pp, g)
    want_prim = _choose_kind(c, kind, rng)
    if want_prim is None:
        return None
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
    upper = []  # exponents of the non-primitive levels above the last
    while not want_prim and k2 >= 3:
        upper.append(k2)
        k2 -= 2
        t2 = (t2 // 4) % 2**k2
        p4, n4 = _count_scaled_type2(a, b, c, t2, k2)
        want_prim = uniform_below(p4 + n4, rng) < p4
    q2 = 2**k2
    if want_prim:
        seeds = [s for s in ((0, 1), (1, 0), (1, 1)) if (a * s[0] + b * s[0] * s[1] + c * s[1] - t2) % 2 == 0]
        y1, y2 = seeds[uniform_below(len(seeds), rng)]
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


def sample_type2(
    blk: TypeII, k: int, t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, int] | None:
    """Uniform (x1, x2) with 2^(ell+1)(a x1^2 + b x1x2 + c x2^2) = t mod 2^k."""
    q = 2**k
    t %= q
    ell = blk.ell
    c = count_type2(blk, k, symbol_of(TWO.with_exponent(k), t))
    want_prim = _choose_kind(c, kind, rng)
    if want_prim is None:
        return None
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
    blk: Block, pp: PrimePower, t: int, want_prim: bool, rng: RandomSource
) -> tuple[int, ...]:
    kind = RepKind.PRIMITIVE if want_prim else RepKind.NONPRIMITIVE
    if isinstance(blk, TypeI):
        v = sample_type1(blk.d, pp, t, kind, rng)
        assert v is not None, "routed into an empty block class"
        return (v,)
    pair = sample_type2(blk, pp.k, t, kind, rng)
    assert pair is not None, "routed into an empty block class"
    return pair


def _sample_chain(form: PreparedForm, t: int, want_prim: bool, rng: RandomSource) -> list[int]:
    """Uniform solution of the direct sum of the form's blocks at target
    t in the given class, one block peeled off per step: draw the cell,
    split the target, solve the head block, then go on with the tail.
    The cells' split sizes come from the layout, and the chosen cell is
    split without checking its size again: the walk only picks cells of
    non-zero weight.  The tail's target b has the symbol g2 of its cell,
    which carries over as the next step's target symbol."""
    pp, layout, blocks = form.pp, form.layout, form.blocks
    g = symbol_of(pp, t)
    y: list[int] = []
    for j in range(len(blocks) - 1):
        tail_tbl = form.suffix[j + 1]
        # weight every (value-symbol pair, primitivity split) cell by its
        # exact solution count: split size times head count times tail count
        cells = []
        for g1, h in form.per_block[j].items():
            if h.total == 0:
                continue
            for g2, s in layout.partners(g, g1):
                ct = tail_tbl[g2]
                if ct.total == 0:
                    continue
                if want_prim:
                    for hp, tp in ((False, True), (True, False), (True, True)):
                        w = (
                            s
                            * (h.primitive if hp else h.nonprimitive)
                            * (ct.primitive if tp else ct.nonprimitive)
                        )
                        if w:
                            cells.append((w, g1, g2, hp, tp))
                else:
                    w = s * h.nonprimitive * ct.nonprimitive
                    if w:
                        cells.append((w, g1, g2, False, False))
        total = sum(w for w, *_ in cells)
        r = uniform_below(total, rng)
        for w, g1, g2, hp, tp in cells:
            if r < w:
                break
            r -= w
        a, t = _split(pp, t, g, g1, g2, rng)
        y.extend(_sample_block(blocks[j], pp, a, hp, rng))
        want_prim, g = tp, g2
    y.extend(_sample_block(blocks[-1], pp, t, want_prim, rng))
    return y


def sample_prepared(form: PreparedForm, t: int, kind: RepKind, rng: RandomSource) -> tuple[int, ...] | None:
    """Uniform solution of the prepared x'Qx = t mod p^k of the requested kind.

    Peel blocks off the front of the form's tables: choose how the
    target splits between the first block and the rest (and how
    primitivity splits) with exact count weights, then go on with the
    rest.  Block solutions y pull back to x = U y since U'QU is the
    block form.  Nothing is diagonalized or tabulated here, so repeated
    draws of one prepared form pay only for the walk.
    """
    pp = form.pp
    t %= pp.q
    if not form.blocks:
        # the empty vector is the one solution, of value 0 and non-primitive
        return () if t == 0 and kind is not RepKind.PRIMITIVE else None
    want_prim = _choose_kind(form.count(t), kind, rng)
    if want_prim is None:
        return None
    for _ in range(RETRY_CAP):
        try:
            y = _sample_chain(form, t, want_prim, rng)
            break
        except LasVegasFail:
            continue
    else:
        raise LasVegasFail("sampling driver exhausted its restarts")
    return tuple(mat_vec(form.u, y, pp.q))


def sample_form(
    q_mat, pp: PrimePower, t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, ...] | None:
    """Uniform solution of x'Qx = t mod p^k of the requested kind:
    prepare the form (diagonalize it and build its tables, once) and
    draw from it with sample_prepared."""
    return sample_prepared(prepare(q_mat, pp), t, kind, rng)


def sample_composite(
    q_mat, factored_q: list[PrimePower], t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, ...] | None:
    """Uniform solution mod q = prod p_i^k_i of the requested kind:
    prepare the form once per prime power and draw with sample_factors.
    Each factor's tables are built once and give both its count weight
    and the weights of its walk."""
    return sample_factors([prepare(q_mat, pp) for pp in factored_q], t, kind, rng)


def sample_factors(
    forms: list[PreparedForm], t: int, kind: RepKind, rng: RandomSource
) -> tuple[int, ...] | None:
    """Uniform solution mod the product of the prepared factors' moduli,
    of the requested kind, assembled by the Chinese Remainder Theorem.

    Any and Primitive are per-factor constraints.  NonPrimitive means
    non-primitive at *some* prime, sampled by walking the factors and
    branching, with exact weights, between "this factor non-primitive,
    rest unconstrained" and "this factor primitive, constraint pending".
    """
    _check_factors([form.pp for form in forms])
    per = [form.count(t) for form in forms]

    if kind is RepKind.NONPRIMITIVE:
        r = len(forms)
        suffix_tot = [1] * (r + 1)
        suffix_prim = [1] * (r + 1)
        for j in range(r - 1, -1, -1):
            suffix_tot[j] = per[j].total * suffix_tot[j + 1]
            suffix_prim[j] = per[j].primitive * suffix_prim[j + 1]
        if suffix_tot[0] - suffix_prim[0] == 0:
            return None
        parts = []
        pending = True
        for j, form in enumerate(forms):
            if not pending:
                parts.append(sample_prepared(form, t, RepKind.ANY, rng))
                continue
            w_non = per[j].nonprimitive * suffix_tot[j + 1]
            w_prim = per[j].primitive * (suffix_tot[j + 1] - suffix_prim[j + 1])
            if uniform_below(w_non + w_prim, rng) < w_non:
                parts.append(sample_prepared(form, t, RepKind.NONPRIMITIVE, rng))
                pending = False
            else:
                parts.append(sample_prepared(form, t, RepKind.PRIMITIVE, rng))
    else:
        needed = [c.primitive if kind is RepKind.PRIMITIVE else c.total for c in per]
        if any(cnt == 0 for cnt in needed):
            return None
        parts = [sample_prepared(form, t, kind, rng) for form in forms]

    # componentwise CRT
    q = math.prod(form.pp.q for form in forms)
    n = len(forms[0].u)
    x = [0] * n
    for form, vec in zip(forms, parts):
        assert vec is not None
        m = q // form.pp.q
        e = m * pow(m, -1, form.pp.q)
        for i in range(n):
            x[i] = (x[i] + e * vec[i]) % q
    return tuple(x)
