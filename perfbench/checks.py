"""Output checks that share no code with quadmod's counting or sampling.

Every function here returns a list of failure messages (empty when the
output is right), so the benchmark can report all of them at once.
Class sizes, symbols, determinants and brute-force enumerations are
computed here from first principles; numpy is imported only by the
enumerators, after the timed part of a run has ended.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

INF = math.inf


# --- arithmetic -----------------------------------------------------------


def ord_p(p: int, a: int) -> float:
    """p-adic order of a (INF for 0)."""
    if a == 0:
        return INF
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


def symbol(p: int, k: int, t: int) -> tuple:
    """(order, sign) of t mod p^k: Legendre sign of the unit part for odd
    p, the unit part mod 8 for p = 2, and (INF, 0) for zero."""
    r = t % p**k
    if r == 0:
        return (INF, 0)
    e = int(ord_p(p, r))
    u = r // p**e
    if p == 2:
        return (e, u % 8)
    return (e, 1 if pow(u, (p - 1) // 2, p) == 1 else -1)


def class_size(p: int, k: int, g: tuple) -> int:
    """Number of elements of Z/p^k with symbol g."""
    e, s = g
    if e == INF:
        return 1
    m = k - e
    if p != 2:
        return (p - 1) // 2 * p ** (m - 1)
    if m >= 3:
        return 2 ** (m - 3)
    return 1 if s < 2**m else 0


def det(mat: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def form_value(q: list[list[int]], x) -> int:
    """x'Qx over the integers."""
    n = len(q)
    return sum(q[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def is_primitive(x, primes) -> bool:
    """Primitive mod m = prod of the given primes' powers: no prime of m
    divides every component."""
    return all(any(v % p for v in x) for p in primes)


# --- counts ---------------------------------------------------------------


def check_partition(q, p: int, k: int, table: dict) -> list[str]:
    """The full symbol table of x'Qx mod p^k must partition the cube:
    sum_g count(g) * |class g| = p^(kn), and the primitive counts must
    sum to p^(kn) - p^((k-1)n)."""
    n = len(q)
    total = sum(c.total * class_size(p, k, tuple(g)) for g, c in table.items())
    prim = sum(c.primitive * class_size(p, k, tuple(g)) for g, c in table.items())
    errors = []
    if total != p ** (k * n):
        errors.append(f"partition identity fails mod {p}^{k}: {total} != p^(kn)")
    if prim != p ** (k * n) - p ** ((k - 1) * n):
        errors.append(f"primitive partition fails mod {p}^{k}")
    if any(c.total != c.primitive + c.nonprimitive for c in table.values()):
        errors.append(f"total != primitive + nonprimitive in a table mod {p}^{k}")
    return errors


def table_counts(table: dict, p: int, k: int, t: int) -> tuple[int, int]:
    """(total, primitive) at t, read from a symbol table."""
    c = table.get(symbol(p, k, t))
    return (0, 0) if c is None else (c.total, c.primitive)


def brute_counts(q, m: int, t: int, primes) -> tuple[int, int]:
    """(total, primitive) solutions of x'Qx = t mod m by enumerating (Z/m)^n."""
    import numpy as np

    n = len(q)
    axes = np.meshgrid(*[np.arange(m, dtype=np.int64)] * n, indexing="ij")
    vals = np.zeros(axes[0].shape, dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            coef = (q[i][j] if i == j else 2 * q[i][j]) % m
            vals = (vals + coef * (axes[i] * axes[j] % m)) % m
    hit = vals == t % m
    prim = np.ones(hit.shape, dtype=bool)
    for p in primes:
        unit = np.zeros(hit.shape, dtype=bool)
        for a in axes:
            unit |= a % p != 0
        prim &= unit
    return int(hit.sum()), int((hit & prim).sum())


def check_counts(label: str, got, want_total: int, want_prim: int) -> list[str]:
    if (got.total, got.primitive, got.nonprimitive) != (want_total, want_prim, want_total - want_prim):
        return [f"{label}: counted {tuple(got)}, expected total {want_total}, primitive {want_prim}"]
    return []


def density_level(q, p: int, t: int) -> int:
    """The stabilizing level s = 1 + ord_p(8 t det Q)."""
    return 1 + int(ord_p(p, 8 * t * det(q)))


# --- draws ----------------------------------------------------------------


def check_vector(label: str, q, x, m: int, t: int, primes, kind: str) -> list[str]:
    """A drawn vector must solve x'Qx = t mod m and be primitive or
    non-primitive as requested ("any", "primitive", "nonprimitive")."""
    if x is None:
        return [f"{label}: no vector returned for a non-empty class"]
    if len(x) != len(q) or any(not 0 <= v < m for v in x):
        return [f"{label}: {x} is not a reduced vector mod {m}"]
    if (form_value(q, x) - t) % m:
        return [f"{label}: x'Qx != t mod {m} for x = {x}"]
    prim = is_primitive(x, primes)
    if kind == "primitive" and not prim:
        return [f"{label}: non-primitive vector {x} returned for primitive"]
    if kind == "nonprimitive" and prim:
        return [f"{label}: primitive vector {x} returned for nonprimitive"]
    return []


def chi_square_p_value(observed: list[int], support: int) -> float:
    """Upper-tail p-value of Pearson's statistic against the uniform law
    on `support` cells (unseen cells count as zeros), by the
    Wilson-Hilferty normal approximation."""
    n = sum(observed)
    expect = n / support
    stat = sum((o - expect) ** 2 for o in observed) / expect
    stat += (support - len(observed)) * expect
    df = support - 1
    if df == 0:
        return 1.0
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


# A correct sampler fails at this rate; a run makes four such tests, so
# a spurious failure comes about four times in a million runs.
CHI_SQUARE_ALPHA = 1e-6


def check_uniform(label: str, draws: list, support: int) -> list[str]:
    """Draws that all lie in a class of `support` vectors must look uniform."""
    counts = Counter(tuple(x) for x in draws)
    if len(counts) > support:
        return [f"{label}: {len(counts)} distinct draws from a class of {support}"]
    pv = chi_square_p_value(list(counts.values()), support)
    if pv < CHI_SQUARE_ALPHA:
        return [f"{label}: chi-square p = {pv:.3g} over {len(draws)} draws, support {support}"]
    return []


def support_size(q, m: int, t: int, primes, kind: str) -> int:
    total, prim = brute_counts(q, m, t, primes)
    return {"any": total, "primitive": prim, "nonprimitive": total - prim}[kind]


def density_from_count(count: int, p: int, s: int, n: int) -> Fraction:
    return Fraction(count, p ** (s * (n - 1)))
