"""Square roots in Z/p^k.

Odd p: one root mod p, by a single exponentiation when p = 3 mod 4
(t^((p+1)/4)) or p = 5 mod 8 (Atkin's formula), and by Tonelli-Shanks,
which needs a random non-residue, when p = 1 mod 8; then Newton's
iteration for the inverse square root 1/sqrt(t), which doubles the
precision each step and takes no inverse beyond the one mod p.  p = 2:
closed-form root sets for k <= 3, and above that the same Newton
iteration from 1/sqrt(t) = 1 mod 8, whose precision goes from 2^e to
2^(2e-2) each step.
"""

from __future__ import annotations

from .modring import (
    DomainError,
    PrimePower,
    RandomSource,
    draw_until,
    legendre,
)


class NonResidue(DomainError):
    """The argument is a quadratic non-residue."""


class NotASquare(DomainError):
    """The argument is not a square in Z/2^k."""


def sqrt_unit_mod_p(p: int, t: int, rng: RandomSource) -> tuple[int, int]:
    """Both square roots of a unit residue t mod an odd prime p.

    p = 3 mod 4: x = t^((p+1)/4).  p = 5 mod 8: Atkin's formula,
    v = (2t)^((p-5)/8), i = 2t v^2 (a square root of -1, since 2 is a
    non-residue), x = t v (i - 1).  Either way a non-residue t shows as
    x^2 != t, and rng is not read.  p = 1 mod 8: Tonelli-Shanks; the
    non-residue needed to start is drawn from 2..p-1 until one is found
    (each trial succeeds with probability (p-1)/(2(p-2)), about 1/2).
    The roots do not depend on which non-residue is drawn.
    """
    if p % 2 == 0:
        raise DomainError("sqrt_unit_mod_p needs an odd prime")
    t %= p
    if t == 0:
        raise DomainError("t must be a unit mod p")

    if p % 8 != 1:
        if p % 4 == 3:
            x = pow(t, (p + 1) // 4, p)
        else:
            t2 = 2 * t % p
            v = pow(t2, (p - 5) // 8, p)
            x = t * v * (t2 * v * v - 1) % p
        if x * x % p != t:
            raise NonResidue("t is a non-residue mod p")
        return (x, p - x) if x <= p - x else (p - x, x)

    if legendre(t, p) == -1:
        raise NonResidue("t is a non-residue mod p")
    # write p - 1 = u * 2^e with u odd.
    u, e = p - 1, 0
    while u % 2 == 0:
        u //= 2
        e += 1
    z = draw_until(2, p - 2, lambda v: legendre(v, p) == -1, rng)
    c = pow(z, u, p)  # generator of the 2-Sylow of (Z/p)*
    x = pow(t, (u + 1) // 2, p)
    b = pow(t, u, p)
    m = e
    while b != 1:
        # order of b is 2^(j+1); square up to find j
        b2, j = b, 0
        while b2 != 1:
            b2 = b2 * b2 % p
            j += 1
        g = pow(c, 1 << (m - j - 1), p)
        x = x * g % p
        c = g * g % p
        b = b * c % p
        m = j
    return (x, p - x) if x <= p - x else (p - x, x)


def lift_sqrt_odd(pp: PrimePower, t: int, rng: RandomSource) -> tuple[int, int]:
    """Both square roots of a unit square t in Z/p^k, odd p.

    Newton's iteration for r = 1/sqrt(t): from r mod p^e, the step
    r <- r (3 - t r^2) / 2 is right mod p^2e (the error t r^2 - 1 is
    squared), and 1/2 mod an odd m is (m+1)/2.  The start is the inverse
    of a root mod p, the only inverse taken; the root is t r.
    """
    p, k = pp.p, pp.k
    q = pp.q
    t %= q
    if t % p == 0:
        raise DomainError("t must be a unit")
    r = pow(sqrt_unit_mod_p(p, t, rng)[0], -1, p)
    e = 1
    while e < k:
        e = min(2 * e, k)
        mod = p**e
        r = r * (3 - t * r * r % mod) * ((mod + 1) // 2) % mod
    a = t * r % q
    other = q - a
    return (a, other) if a <= other else (other, a)


def sqrt_unit_mod_2k(k: int, t: int) -> tuple[int, ...]:
    """All square roots of odd t in Z/2^k, sorted.

    Squares of odd numbers are exactly the residues = 1 mod min(8, 2^k);
    the root count is 1, 2, 4 for k = 1, 2, >= 3.  For k >= 3 one root
    b comes from O(log k) Newton steps on 1/sqrt(t), and the four are
    +-b and 2^(k-1) +- b.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    q = 2**k
    t %= q
    if t % 2 == 0:
        raise DomainError("t must be odd")
    if t % min(8, q) != 1:
        raise NotASquare(f"t is not a square mod 2^{k}")
    if k == 1:
        return (1,)
    if k == 2:
        return (1, 3)
    # Newton's iteration for r = 1/sqrt(t) from r = 1 mod 8: if
    # t r^2 = 1 + eps with 2^e | eps, then r (3 - t r^2)/2 = r (1 - eps/2)
    # leaves t r^2 = 1 - 3 eps^2/4 + eps^3/4, right mod 2^(2e-2).  3 - t r^2
    # is even, so a shift halves it, and a mask reduces mod 2^e without a
    # division.  The root is t r.
    r, e = 1, 3
    while e < k:
        e = min(2 * e - 2, k)
        r = r * ((3 - t * r * r) >> 1) & (2**e - 1)
    b = t * r
    half = q // 2
    return tuple(sorted({b % q, (q - b) % q, (half + b) % q, (half - b) % q}))
