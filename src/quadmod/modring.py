"""Arithmetic helpers for the ring Z/p^k.

Everything downstream works with plain Python ints as ring elements,
canonically reduced into ``range(p**k)`` at the boundaries.  A
:class:`PrimePower` instance carries the modulus around.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

INF = math.inf  # p-adic order of 0

# Any deterministic seeded RNG with randrange(); random.Random is the one we use.
RandomSource = random.Random


class DomainError(ValueError):
    """An argument is outside the domain of the operation."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_probable_prime_base2(n: int) -> bool:
    """Miller-Rabin round to base 2 for odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 2 that is not a perfect square.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    Jacobi symbol (D/n) = -1, P = 1, Q = (1 - D)/4.  With n + 1 = d 2^s,
    d odd, n passes when U_d = 0 or V_(d 2^r) = 0 for some r < s.
    """
    d_par = 5
    while True:
        j = _jacobi(d_par, n)
        if j == -1:
            break
        if j == 0 and abs(d_par) != n:
            return False  # D shares a factor with n
        d_par = -d_par - 2 if d_par > 0 else -d_par + 2
    q_par = (1 - d_par) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def halve(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_1 = 1, V_1 = P = 1; double (U_2m = U_m V_m, V_2m = V_m^2 - 2 Q^m)
    # and step (U_m+1 = (P U_m + V_m)/2, V_m+1 = (D U_m + P V_m)/2) along
    # the bits of d.
    u, v, qk = 1, 1, q_par % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = halve(u + v), halve(d_par * u + v), qk * q_par % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes up to 37, a strong
    probable-prime test to base 2, and a strong Lucas test.

    Exact for n < 2^64 (every base-2 strong pseudoprime below 2^64 is
    known, and none passes the Lucas test); no composite of any size is
    known to pass.
    """
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    if not _strong_probable_prime_base2(n):
        return False
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_lucas_probable_prime(n)


@dataclass(frozen=True)
class PrimePower:
    """The modulus p^k with p prime and k >= 1."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"exponent must be >= 1, got {self.k}")
        if not is_probable_prime(self.p):
            raise DomainError(f"{self.p} is not prime")

    @property
    def q(self) -> int:
        """The modulus itself, p**k."""
        return self.p**self.k

    def with_exponent(self, k: int) -> PrimePower:
        """p^k for the same prime, without testing p again."""
        if k < 1:
            raise DomainError(f"exponent must be >= 1, got {k}")
        out = object.__new__(PrimePower)
        object.__setattr__(out, "p", self.p)
        object.__setattr__(out, "k", k)
        return out


TWO = PrimePower(2, 1)  # 2^k without a primality test: TWO.with_exponent(k)


class Valuation(NamedTuple):
    """ord = p-adic order, cop = coprime part, so a = cop * p**ord."""

    ord: int | float
    cop: int


def valuation(pp: PrimePower, a: int) -> Valuation:
    """Split the integer a as cop * p**ord with p not dividing cop.

    The order of 0 is INF (with coprime part 0 by convention).
    """
    if a == 0:
        return Valuation(INF, 0)
    p = pp.p
    ord_ = 0
    while a % p == 0:
        a //= p
        ord_ += 1
    return Valuation(ord_, a)


def legendre(t: int, p: int) -> int:
    """Legendre symbol (t/p) for odd prime p and t coprime to p.

    For prime p it equals the Jacobi symbol, which quadratic reciprocity
    computes in O(log p) division steps: faster than Euler's criterion
    t^((p-1)/2) mod p, which needs O(log p) modular multiplications.
    """
    if p == 2:
        raise DomainError("Legendre symbol needs an odd prime")
    t %= p
    if t == 0:
        raise DomainError("Legendre symbol needs gcd(t, p) = 1")
    return _jacobi(t, p)


def uniform_below(n: int, rng: RandomSource) -> int:
    """Uniform integer in [0, n).  Exact: no floating point involved."""
    if n < 1:
        raise DomainError(f"uniform_below needs n >= 1, got {n}")
    return rng.randrange(n)
