"""Square roots in Z/p^k.

Odd p: Tonelli-Shanks mod p, then quadratic Hensel lifting (the
precision doubles each step).  p = 2: closed-form root sets for k <= 3,
digit-by-digit lifting above that.
"""

from __future__ import annotations

from .modring import (
    DomainError,
    PrimePower,
    RandomSource,
    legendre,
    uniform_below,
)

# One Las Vegas attempt block: this many rejections in a row aborts with Fail.
RETRY_CAP = 64


class NonResidue(DomainError):
    """The argument is a quadratic non-residue."""


class NotASquare(DomainError):
    """The argument is not a square in Z/2^k."""


class LasVegasFail(RuntimeError):
    """A randomized search exhausted its retry cap (probability ~2^-64)."""


def sqrt_unit_mod_p(p: int, t: int, rng: RandomSource) -> tuple[int, int]:
    """Both square roots of a unit residue t mod an odd prime p.

    Tonelli-Shanks; the non-residue needed to start is found by random
    draws (each succeeds with probability 1/2).
    """
    if p % 2 == 0:
        raise DomainError("sqrt_unit_mod_p needs an odd prime")
    t %= p
    if t == 0:
        raise DomainError("t must be a unit mod p")
    if legendre(t, p) == -1:
        raise NonResidue(f"{t} is a non-residue mod {p}")

    if p % 4 == 3:
        x = pow(t, (p + 1) // 4, p)
        return (x, p - x) if x <= p - x else (p - x, x)

    # p = 1 mod 4: write p - 1 = u * 2^e with u odd.
    u, e = p - 1, 0
    while u % 2 == 0:
        u //= 2
        e += 1
    for _ in range(RETRY_CAP):
        z = 2 + uniform_below(p - 2, rng)
        if legendre(z, p) == -1:
            break
    else:
        raise LasVegasFail("no quadratic non-residue found")
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

    Hensel lifting with doubling precision: a root mod p^e extends to
    mod p^2e by a += b*p^e where b = ((t - a^2)/p^e) / (2a) mod p^e.
    """
    p, k = pp.p, pp.k
    q = pp.q
    t %= q
    if t % p == 0:
        raise DomainError("t must be a unit")
    a = sqrt_unit_mod_p(p, t, rng)[0]
    e = 1
    while e < k:
        e2 = min(2 * e, k)
        mod = p**e2
        diff = (t - a * a) % mod  # divisible by p^e since a is a root mod p^e
        b = (diff // p**e) * pow(2 * a, -1, p**e) % p**e
        a = (a + b * p**e) % mod
        e = e2
    a %= q
    other = q - a
    return (a, other) if a <= other else (other, a)


def sqrt_unit_mod_2k(k: int, t: int) -> tuple[int, ...]:
    """All square roots of odd t in Z/2^k, sorted.

    Squares of odd numbers are exactly the residues = 1 mod min(8, 2^k);
    the root count is 1, 2, 4 for k = 1, 2, >= 3.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    q = 2**k
    t %= q
    if t % 2 == 0:
        raise DomainError("t must be odd")
    if t % min(8, q) != 1:
        raise NotASquare(f"{t} is not a square mod 2^{k}")
    if k == 1:
        return (1,)
    if k == 2:
        return (1, 3)
    # Lift b from mod 8 upward: given b^2 = t mod 2^j, the correction
    # b += 2^(j-1)*d with d = ((t - b^2)/2^j mod 2) fixes the next bit
    # (the 2^(2j-2) term is invisible mod 2^(j+1) once j >= 3).
    b = 1
    for j in range(3, k):
        d = ((t - b * b) >> j) & 1
        b += d << (j - 1)
    half = q // 2
    return tuple(sorted({b % q, (q - b) % q, (half + b) % q, (half - b) % q}))
