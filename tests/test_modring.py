import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod.counting import count_form
from quadmod.modring import (
    INF,
    DomainError,
    PrimePower,
    Valuation,
    draw_until,
    is_probable_prime,
    legendre,
    uniform_below,
    valuation,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_prime_power_validation():
    pp = PrimePower(5, 3)
    assert pp.q == 125
    with pytest.raises(DomainError):
        PrimePower(4, 1)
    with pytest.raises(DomainError):
        PrimePower(5, 0)
    with pytest.raises(DomainError):
        PrimePower(-3, 2)
    # values past the interpreter's 4300-digit cap on int -> str
    # conversion get the documented error, not one from its message
    with pytest.raises(DomainError, match="not prime"):
        PrimePower(10**5000, 1)
    with pytest.raises(DomainError, match="exponent"):
        PrimePower(5, -(10**5000))


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-2, 38):
        assert is_probable_prime(n) == (n in primes)


def test_is_probable_prime_carmichael_and_big():
    # Carmichael numbers fool Fermat but not Miller-Rabin
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_probable_prime(n)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)  # = 193707721 * 761838257287


# psi_12: a strong pseudoprime to every prime base up to 37
PSI12 = 318665857834031151167461
# strong pseudoprimes to base 2 (including squares of Wieferich primes),
# strong Lucas pseudoprimes, and Carmichael numbers
PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 1093**2, 3511**2, 3215031751, 2152302898747,
    3474749660383, 341550071728321, 3825123056546413051, PSI12,
    5459, 5777, 10877, 16109, 18971, 561, 41041, 825265,
)


def test_is_probable_prime_rejects_pseudoprimes():
    assert PSI12 == 399165290221 * 798330580441
    for n in PSEUDOPRIMES:
        assert not is_probable_prime(n), n
    for n in (2**89 - 1, 2**107 - 1, 2**127 - 1, 85070591730234615865843651857942052973):
        assert is_probable_prime(n), n


def test_is_probable_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in PSEUDOPRIMES:
        assert is_probable_prime(n) == sympy.isprime(n), n
    rng = random.Random(12)
    for _ in range(400):
        n = rng.getrandbits(rng.randint(64, 200))
        assert is_probable_prime(n) == sympy.isprime(n), n
        p = sympy.nextprime(n)
        assert is_probable_prime(p), p
        assert not is_probable_prime(p * sympy.nextprime(p)), p


def test_with_exponent_keeps_the_prime():
    pp = PrimePower(7, 3)
    assert pp.with_exponent(5) == PrimePower(7, 5)
    assert pp.with_exponent(1).q == 7
    with pytest.raises(DomainError):
        pp.with_exponent(0)


def test_prime_power_stores_its_modulus():
    # q is set once by either constructor and takes no part in the
    # value: equality, hash and repr read p and k alone
    for pp, p, k in ((PrimePower(3, 4), 3, 4), (PrimePower(3, 1).with_exponent(4), 3, 4), (PrimePower(2, 60), 2, 60)):
        assert pp.q == p**k
        assert repr(pp) == f"PrimePower(p={p}, k={k})"
        assert pp == PrimePower(p, k) and hash(pp) == hash((p, k))
    assert PrimePower(3, 4) != PrimePower(3, 5)
    with pytest.raises(TypeError):
        PrimePower(3, 4, 81)


def test_prime_power_takes_int_p_and_k_only():
    # a float p gave a float modulus, and counts came back as rounded
    # floats (1.6210220612075905e+19 for this one); a float k made q =
    # 2**2.5, and a bool k printed as k=True
    assert count_form([[1, 0], [0, 1]], PrimePower(3, 40), 1).total == 16210220612075905068
    with pytest.raises(DomainError):
        count_form([[1, 0], [0, 1]], PrimePower(3.0, 40), 1)
    with pytest.raises(DomainError):
        PrimePower(2, 2.5)
    with pytest.raises(DomainError):
        PrimePower(5, True)
    with pytest.raises(DomainError):
        PrimePower(True, 1)
    # the message names types: the repr of an int past the 4300-digit
    # limit on int -> str conversion raised a bare ValueError
    with pytest.raises(DomainError, match="got int and float"):
        PrimePower(10**5000, 1.5)
    with pytest.raises(DomainError, match="got float and int"):
        PrimePower(3.0, 10**5000)
    pp = PrimePower(3, 1)
    for k in (2.0, True):
        with pytest.raises(DomainError):
            pp.with_exponent(k)


def test_prime_power_is_an_immutable_value():
    pp = PrimePower(3, 4)
    assert pp != (3, 4) and pp != PrimePower(3, 1).with_exponent(5)
    for name in ("p", "k", "q", "extra"):
        with pytest.raises(AttributeError):
            setattr(pp, name, 5)
    with pytest.raises(AttributeError):
        del pp.k
    assert (pp.p, pp.k, pp.q) == (3, 4, 81)
    copies = [copy.copy(pp), copy.deepcopy(pp)]
    copies += [pickle.loads(pickle.dumps(pp, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is PrimePower and other == pp and hash(other) == hash(pp)
        assert other.q == 81 and repr(other) == repr(pp)


def test_valuation_examples():
    pp = PrimePower(5, 3)
    assert valuation(pp, 50) == Valuation(2, 2)
    assert valuation(pp, 1) == (0, 1)
    assert valuation(pp, 0) == (INF, 0)
    # integer-level: the order is of the integer, even past k
    assert valuation(pp, 125) == (3, 1)
    two = PrimePower(2, 4)
    assert valuation(two, 24) == (3, 3)  # 24 = 8*3 mod 16


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_valuation_reconstructs(p, k, a):
    pp = PrimePower(p, k)
    o, c = valuation(pp, a)
    if o == INF:
        assert a % pp.q == 0
    else:
        assert (p**o * c - a) % pp.q == 0
        assert c % p != 0


def test_legendre_matches_squares():
    for p in ODD_PRIMES:
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
    with pytest.raises(DomainError):
        legendre(10, 5)
    with pytest.raises(DomainError):
        legendre(1, 2)


def test_legendre_multiplicative():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice(ODD_PRIMES)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if a * b % p:
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


# Mersenne primes 2^61 - 1, 2^89 - 1, 2^127 - 1 and a 127-bit prime = 1 mod 4
BIG_PRIMES = [2**61 - 1, 2**89 - 1, 2**127 - 1, 85070591730234615865843651857942052973]


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_legendre_matches_euler_criterion(p):
    rng = random.Random(p % 997)
    for t in [1, 2, 3, p - 1, -1, p + 2] + [rng.randrange(1, p) for _ in range(200)]:
        euler = pow(t, (p - 1) // 2, p)
        assert legendre(t, p) == (1 if euler == 1 else -1), t
        assert euler in (1, p - 1)


@pytest.mark.parametrize("p", [3, 5, 13, *BIG_PRIMES])
def test_legendre_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(p % 991)
    for _ in range(100):
        t = rng.randrange(1, p)
        assert legendre(t, p) == sympy.legendre_symbol(t, p), t


def test_uniform_below_deterministic_and_in_range():
    out1 = [uniform_below(10, random.Random(42)) for _ in range(5)]
    out2 = [uniform_below(10, random.Random(42)) for _ in range(5)]
    assert out1 == out2
    rng = random.Random(1)
    big = 10**30
    draws = [uniform_below(big, rng) for _ in range(100)]
    assert all(0 <= d < big for d in draws)
    # all 10^30 residues reachable, not capped at float precision
    assert len(set(draws)) == 100
    with pytest.raises(DomainError):
        uniform_below(0, rng)
    with pytest.raises(DomainError):
        uniform_below(-(10**5000), rng)


class ScriptedRng:
    """Answers randrange calls from a script, and records each call's n."""

    def __init__(self, answers):
        self.answers, self.calls = list(answers), []

    def randrange(self, n):
        self.calls.append(n)
        return self.answers.pop(0)


def test_draw_until_returns_the_first_accepted_answer():
    # 5 + 4 = 9 and 5 + 0 = 5 are odd, 5 + 3 = 8 is the first even value;
    # the answers after it are not read
    rng = ScriptedRng([4, 0, 3, 1, 2])
    assert draw_until(5, 6, lambda v: v % 2 == 0, rng) == 8
    assert rng.calls == [6, 6, 6]
    assert rng.answers == [1, 2]
