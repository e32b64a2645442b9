"""Arithmetic helpers for the ring Z/p^k.

Everything downstream works with plain Python ints as ring elements,
canonically reduced into ``range(p**k)`` at the boundaries.  A
:class:`PrimePower` instance carries the modulus around.

The package's immutable values (PrimePower, the blocks, BlockDiagForm,
cli.Instance) are Frozen subclasses, not dataclasses: importing
dataclasses loads inspect and ast, a cost to every start of the CLI.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
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


# sets an attribute of a Frozen instance, which refuses plain assignment
_set = object.__setattr__


class Frozen:
    """Base of an immutable value class.  A subclass lists its slots,
    names in _fields the ones that make its value, and sets its slots
    with _set.  Its repr, == and hash read those fields, and == holds
    only between instances of one class.  pickle and copy rebuild an
    instance by calling the class on its fields, so a slot outside
    _fields must follow from them."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class PrimePower(Frozen):
    """The modulus p^k with p prime and k >= 1; q is the modulus itself,
    p**k, computed once (it takes no part in ==, hash or repr)."""

    __slots__ = ("p", "k", "q")
    _fields = ("p", "k")
    p: int
    k: int
    q: int

    def __init__(self, p: int, k: int) -> None:
        # exact ints only: a float p or k gives a float q and rounded counts
        if type(p) is not int or type(k) is not int:
            raise DomainError(f"p and k must be ints, got {type(p).__name__} and {type(k).__name__}")
        if k < 1:
            raise DomainError("exponent must be >= 1")
        if not is_probable_prime(p):
            raise DomainError("p is not prime")
        _set(self, "p", p)
        _set(self, "k", k)
        _set(self, "q", p**k)

    def with_exponent(self, k: int) -> PrimePower:
        """p^k for the same prime, without testing p again."""
        if type(k) is not int or k < 1:
            raise DomainError("exponent must be an int >= 1")
        out = object.__new__(PrimePower)
        _set(out, "p", self.p)
        _set(out, "k", k)
        _set(out, "q", self.p**k)
        return out


class Valuation(NamedTuple):
    """ord = p-adic order, cop = coprime part, so a = cop * p**ord."""

    ord: int | float
    cop: int


def valuation(pp: PrimePower, a: int) -> Valuation:
    """Split the integer a as cop * p**ord with p not dividing cop.

    The order of 0 is INF (with coprime part 0 by convention).  A unit
    costs one %.  Otherwise a is divided by p, and then by p, p^2, p^4,
    ... while each divides, which leaves an order below the first power
    that did not, and then by each smaller power on the way back down
    (the isqrt of the last) that divides: O(log ord) divisions, not one
    per p.  Every p-adic order of a ring element or target is taken
    here.
    """
    if a == 0:
        return Valuation(INF, 0)
    p = pp.p
    if a % p:
        return Valuation(0, a)
    a, ord_, n, pw = a // p, 1, 1, p  # pw = p^n
    while not (qr := divmod(a, pw))[1]:  # one division gives both
        a, ord_, n, pw = qr[0], ord_ + n, 2 * n, pw * pw
    while n > 1:  # the order left is below n
        n, pw = n // 2, math.isqrt(pw)
        if not (qr := divmod(a, pw))[1]:
            a, ord_ = qr[0], ord_ + n
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
        raise DomainError("uniform_below needs n >= 1")
    return rng.randrange(n)


def draw_until(lo: int, n: int, accept: Callable[[int], bool], rng: RandomSource) -> int:
    """The first v = lo + uniform_below(n) with accept(v): uniform over
    the accepted values of lo..lo+n-1, which must not all be refused.
    The loop has no cap, so a rejection draw has exactly this law."""
    while True:
        v = lo + uniform_below(n, rng)
        if accept(v):
            return v
