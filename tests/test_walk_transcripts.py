"""Seeded draws pinned where the chain walk's scan order matters.

A step of the walk scans its cells in order and stops at the one that
holds its draw, so a change to the order in which cells are listed, or
to how the far run (the cells g1 = g, g2 at orders >= ord g + G) is
weighed and entered, changes the transcript.  The deep cases pin Q4 at
2^60, 3^60 and (2^127 - 1)^30 by the sha256 of their draws; a wrapper on
Level.above and Level.at sees, over those cases, a far run weighed and
skipped and one scanned into.  The workload-shape case pins 300 fresh
draws over the shapes of perfbench's draws workload: moduli with
k <= 10, composites, and a type II block at 2^10.
"""

import hashlib
import math
import random

import quadmod.gauss
from quadmod import PrimePower, RepKind, sample_composite, sample_form

Q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]
M127 = 2**127 - 1
P127B = 85070591730234615865843651857942052973
DEEP_DRAWS = 6

DEEP_GOLDEN = {
    ('2^60', 'any'): '5923292d51135ccbfcaee59e2a0b45f143b57084c9dd2c735738153082ad9ce7',
    ('2^60', 'primitive'): '4269dcc5e8216b084c39020037a8446aca232be16ba1d70fa4ede2077c75edff',
    ('2^60', 'nonprimitive'): '7d08b4b05995b6ea5dc0052099194d0ff1eb37034834490ef52a6ce00e70cc2f',
    ('3^60', 'any'): 'a09b4f6b45268b07e8e94ea696ba2f26584d933974119fd2a67d6d453e2f6e5c',
    ('3^60', 'primitive'): '6d10a2ed56d267e0a9099bc9add36aae78190d762495469c0837178e9c93daa1',
    ('3^60', 'nonprimitive'): '97feebf13ebdd66935da2417ff2aec541ab3c7377996e5b98874b5ad9a959051',
    ('M127^30', 'any'): 'f754a0718f457e07c4b4f7a4a884e5e0325a02f6e8a007ec7bacbe336d9deaae',
    ('M127^30', 'primitive'): '5be4332f3c2d446547a9511f295bf725895d01cafa9ab7a3b37e171409431155',
    ('M127^30', 'nonprimitive'): '97feebf13ebdd66935da2417ff2aec541ab3c7377996e5b98874b5ad9a959051',
}


class FarRuns:
    """Level.above and Level.at wrapped: each above(m) call is a far run
    weighed, and an at read of a finite order >= m on the same Level
    after it is the scan entering that run."""

    def __init__(self, monkeypatch):
        self.runs = []  # [level, m, scanned into]
        above, at = quadmod.gauss.Level.above, quadmod.gauss.Level.at

        def watched_above(level, m):
            self.runs.append([level, m, False])
            return above(level, m)

        def watched_at(level, o, s):
            for run in self.runs:
                if run[0] is level and run[1] <= o < level.k:
                    run[2] = True
            return at(level, o, s)

        monkeypatch.setattr(quadmod.gauss.Level, "above", watched_above)
        monkeypatch.setattr(quadmod.gauss.Level, "at", watched_at)


DEEP_CASES = [("2^60", 2, 60, 8), ("3^60", 3, 60, 7), ("M127^30", M127, 30, 7)]


def test_deep_draws_pinned_with_both_far_run_outcomes(monkeypatch):
    far = FarRuns(monkeypatch)
    for name, p, k, t in DEEP_CASES:
        pp = PrimePower(p, k)
        for kind in RepKind:
            rng = random.Random(f"{name}:{t}:{kind.value}")
            got = [sample_form(Q4, pp, t, kind, rng) for _ in range(DEEP_DRAWS)]
            digest = hashlib.sha256(repr(got).encode()).hexdigest()
            assert digest == DEEP_GOLDEN[name, kind.value], (name, kind)
    outcomes = {scanned for _, _, scanned in far.runs}
    assert outcomes == {False, True}, outcomes


def shaped_form(rng, primes, profile):
    """A symmetric matrix with the given Jordan profile at every prime of
    primes, made dense by a unimodular change of variables: an int e is
    a 1x1 block u prod(p^e) with u prime to every p, "h0" a 2x2 block
    [[2a, b], [b, 2c]] with b odd (a type II block at 2)."""
    blocks = []
    for e in profile:
        if e == "h0":
            b = 2 * rng.randrange(8) + 1
            blocks.append([[2 * rng.randrange(1, 9), b], [b, 4 * rng.randrange(5)]])
        else:
            u = next(u for u in iter(lambda: rng.randrange(1, 200), None) if all(u % p for p in primes))
            blocks.append([[u * math.prod(p**e for p in primes)]])
    n = sum(len(blk) for blk in blocks)
    d = [[0] * n for _ in range(n)]
    pos = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            d[pos + i][pos : pos + len(blk)] = row
        pos += len(blk)
    # U unit upper triangular, Q = U' D U
    u = [[int(i == j) or (rng.randrange(-3, 4) if j > i else 0) for j in range(n)] for i in range(n)]
    du = [[sum(d[i][m] * u[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[m][i] * du[m][j] for m in range(n)) for j in range(n)] for i in range(n)]


# (factors, profile), as in perfbench's draws workload
SHAPES = [
    ([(2, 10)], (0, "h0", 1)),
    ([(5, 6)], (0, 0, 1, 2)),
    ([(13, 5)], (0, 0, 1)),
    ([(P127B, 8)], (0, 0, 1, 1)),
    ([(2, 4), (3, 3)], (0, 0, 1)),
    ([(3, 2), (5, 2), (7, 2)], (0, 0, 1, 1)),
    ([(2, 5), (3, 3)], (0, 0, 1)),
    ([(2, 5), (5, 3)], (0, 0, 1)),
    ([(2, 5), (3, 4)], (0, 0, 1)),
    ([(2, 4), (3, 3)], (0, 0, 1, 1)),
    ([(2, 6), (3, 3)], (0, 0, 1)),
    ([(2, 6), (3, 4)], (0, 0, 1)),
    ([(3, 3), (P127B, 2)], (0, 0, 1)),
    ([(5, 3), (13, 2), (2, 4)], (0, 0, 0, 1)),
    ([(2, 5), (5, 3)], (0, 0, 1, 1)),
    ([(3, 3), (P127B, 2)], (0, 0, 1, 1)),
]
SHAPE_DRAWS = 300
SHAPE_DIGEST = "2bdc1885a8fabb2093dbe37725a0699cd926fd8135e7823e58bf0dd1f61c146f"


def test_workload_shape_draws_pinned():
    # each draw gets a fresh form and a target that a random vector of
    # its kind reaches, so no class is empty
    rng = random.Random("workload shapes")
    got = []
    for i in range(SHAPE_DRAWS):
        factors, profile = SHAPES[i % len(SHAPES)]
        kind = list(RepKind)[i // len(SHAPES) % 3]
        primes = [p for p, _ in factors]
        q = shaped_form(rng, primes, profile)
        m = math.prod(p**k for p, k in factors)
        x = [rng.randrange(m) for _ in q]
        if kind is RepKind.NONPRIMITIVE:
            x = [primes[0] * v % m for v in x]
        else:
            x[0] = 1  # a unit at every prime
        t = sum(q[a][b] * x[a] * x[b] for a in range(len(q)) for b in range(len(q))) % m
        pps = [PrimePower(p, k) for p, k in factors]
        if len(pps) == 1:
            got.append(sample_form(q, pps[0], t, kind, rng))
        else:
            got.append(sample_composite(q, pps, t, kind, rng))
    assert None not in got
    assert hashlib.sha256(repr(got).encode()).hexdigest() == SHAPE_DIGEST
