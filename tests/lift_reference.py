"""The p-adic loops that step one digit at a time, the referees of the
doubling steps that replace them in the package: modring.valuation
divides by p, p^2, p^4, ...; sqroots.sqrt_unit_mod_2k and the primitive
branch of sampling._sample_scaled_type2 lift by Newton's iteration.
Each function here gives the same result by one division or one bit
per step, and the type II draw makes the same RNG calls in the same
order.
"""

from quadmod.modring import INF, uniform_below


def valuation_by_digits(p: int, a: int) -> tuple:
    """(ord, cop) with a = cop * p**ord, by one division by p per order."""
    if a == 0:
        return INF, 0
    ord_ = 0
    while a % p == 0:
        a //= p
        ord_ += 1
    return ord_, a


def sqrt_unit_mod_2k_by_digits(k: int, t: int) -> tuple[int, ...]:
    """The sorted roots of t = 1 mod 8 in Z/2^k, k >= 3, lifted one bit
    at a time from b = 1 mod 8: given b^2 = t mod 2^j, the correction
    b += 2^(j-1) d with d = ((t - b^2)/2^j mod 2) fixes the next bit (the
    2^(2j-2) term is invisible mod 2^(j+1) once j >= 3)."""
    q = 2**k
    t %= q
    b = 1
    for j in range(3, k):
        d = ((t - b * b) >> j) & 1
        b += d << (j - 1)
    half = q // 2
    return tuple(sorted({b % q, (q - b) % q, (half + b) % q, (half - b) % q}))


def primitive_type2_by_bits(a: int, b: int, c: int, t2: int, k2: int, rng) -> tuple[int, int]:
    """A uniform primitive solution of a x^2 + b xy + c y^2 = t2 mod 2^k2,
    b odd, built one bit per level: F(y) = t2 mod 2^j so far, and adding
    (b1, b2) 2^j changes F by b (y1 b2 + y2 b1) 2^j mod 2^(j+1), so one
    bit is forced and the other, of the coordinate that is odd, is
    drawn."""
    starts = [s for s in ((0, 1), (1, 0), (1, 1)) if (a * s[0] + b * s[0] * s[1] + c * s[1] - t2) % 2 == 0]
    y1, y2 = starts[uniform_below(len(starts), rng)]
    for j in range(1, k2):
        r = ((t2 - a * y1 * y1 - b * y1 * y2 - c * y2 * y2) >> j) & 1
        if y1 % 2:
            b1 = uniform_below(2, rng)
            b2 = (r - y2 * b1) % 2
        else:
            b2 = uniform_below(2, rng)
            b1 = r
        y1 += b1 << j
        y2 += b2 << j
    return y1 % 2**k2, y2 % 2**k2
