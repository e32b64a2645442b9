"""Seeded inputs for the two workloads.

`build(name, seed, seconds)` returns the run's fixed operation list.  A
list is whole rounds of one workload's round; a round draws fresh forms
and targets from the seeded generator but keeps the same moduli, form
shapes and operation order, so every seed does the same kind and
amount of work.  Forms are built from a fixed Jordan profile (the
p-adic scales of their blocks) with random unit parts, so the cost of
counting depends on the profile rather than on the seed.

An operation is a plain dict: "op" names the public call, the rest are
its inputs plus what the checks need.  Moduli are (p, k) pairs; the
worker turns them into `PrimePower`s inside the timed region, as a
caller would.
"""

from __future__ import annotations

import json
import math
import random

from checks import form_value

P127 = 2**127 - 1  # = 3 mod 4
P127B = 85070591730234615865843651857942052973  # 127-bit prime, = 1 mod 4
KINDS = ("any", "primitive", "nonprimitive")

# Nominal seconds of one round on the reference host; a run does
# max(1, round(seconds / ROUND_SECONDS)) rounds.
ROUND_SECONDS = {"count": 45.0, "draws": 5.0}


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[name]))


# --- forms ----------------------------------------------------------------


def _coprime(r: int, primes) -> bool:
    return all(r % p for p in primes)


def _unit(rng: random.Random, primes, index: int = 0) -> int:
    """c * r^2 with r random and c the index-th small integer prime to
    every p: the square class at each prime depends on the index only."""
    c = [c for c in range(1, 40) if _coprime(c, primes)][index]
    while True:
        r = rng.randrange(1, 100)
        if _coprime(r, primes):
            return c * r * r


def jordan_form(rng: random.Random, primes, profile) -> list[list[int]]:
    """A symmetric integer matrix with the given p-adic Jordan profile at
    every prime of `primes`.  An integer e in the profile is a 1x1 block
    u * prod(p^e); "hE" is a 2x2 block m * [[2a, b], [b, 2c]] with b odd,
    c even and m = prod(p^E) (a hyperbolic type II block at 2).  The
    square class of every block is fixed by its position, so forms of
    one profile differ only in unit values and cost the same to count."""
    scale = lambda e: math.prod(p**e for p in primes)
    blocks = []
    for i, e in enumerate(profile):
        if isinstance(e, str):
            m = scale(int(e[1:]))
            a, c = rng.randrange(1, 9), 2 * rng.randrange(0, 5)
            b = 2 * rng.randrange(0, 8) + 1
            blocks.append([[2 * a * m, b * m], [b * m, 2 * c * m]])
        else:
            blocks.append([[_unit(rng, primes, i % 3) * scale(e)]])
    n = sum(len(b) for b in blocks)
    d = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            d[pos + i][pos : pos + len(b)] = row
        pos += len(b)
    return d


def dense_form(rng: random.Random, n: int, even_diagonal: bool) -> list[list[int]]:
    """Random symmetric matrix with entries below 1000."""
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = 2 * rng.randrange(500) if even_diagonal else rng.randrange(1000)
        for j in range(i):
            q[i][j] = q[j][i] = rng.randrange(1000)
    return q


def witness_target(rng: random.Random, q, factors, kind: str) -> int:
    """A target whose solution class of the given kind is non-empty: the
    value of a random vector of that kind."""
    m = math.prod(p**k for p, k in factors)
    n = len(q)
    if kind == "nonprimitive":
        p = factors[0][0]
        x = [p * rng.randrange(m) % m for _ in range(n)]
    else:
        x = [rng.randrange(m) for _ in range(n)]
        x[0] = 1  # a unit at every prime
    return form_value(q, x) % m


# --- count ----------------------------------------------------------------

# (p, k, profile, forms): count_form of that many forms of one profile at
# one modulus.  The first form of an entry fills the symbols caches for
# its symbol pattern (cold); the others find them filled (warm).  Warm
# costs on the reference host rise from about 60 ms (5^40) to 290 ms
# (P^30) in steps of a fifth or less; with the dense counts below they
# hold both the median and the p90 tail, so that no reported percentile
# sits between two clusters of unlike cost, where it would jump between
# the host's fast and slow speeds instead of following them.  195
# operations make the tail p90, with 19 operations above it: about ten
# cold counts and the n = 64 count, then the top of the warm revisits.
COUNT_WARM = [
    (5, 40, (0, 1), 8),
    (3, 40, (0, 1), 8),
    (P127, 20, (0, 0, 1, 2), 8),
    (3, 45, (0, 1), 8),
    (2, 16, (0, 0, 1, 2), 8),
    (5, 50, (0, 1), 8),
    (3, 50, (0, 1), 8),
    (2, 20, (0, 0, 1, 2), 8),
    (P127, 25, (0, 0, 1, 2), 8),
    (3, 60, (0, 1), 8),
    (P127, 27, (0, 0, 1, 2), 8),
    (5, 60, (0, 1), 8),
    (2, 24, (0, 0, 1, 2), 9),
    (P127, 30, (0, 0, 1, 2), 9),
]
# Counts on other profiles and moduli, each cold or nearly so; 2^5 and
# 3^3 are small enough to enumerate.
DEEP_COUNTS = [
    (2, 5, (0, 0, 1), 1),
    (3, 3, (0, 1, 1), 1),
    (2, 12, (0, 0, 1), 1),
    (3, 15, (0, 0, 1), 1),
    (5, 20, (0, 0, 1), 1),
    (P127, 8, (0, 0, 1, 2), 1),
    (5, 40, (0, 0, 2), 2),
]

# (factors, profile): count_composite
DEEP_COMPOSITES = [
    ([(2, 3), (3, 2)], (0, 0, 1)),
    ([(2, 2), (3, 1), (5, 1)], (0, 1, 1)),
    ([(2, 12), (3, 15)], (0, 0, 1)),
    ([(3, 30), (5, 20), (P127, 8)], (0, 0, 1)),
]

# (p, s, profile): local_density with a target whose order puts the
# stabilizing level s = 1 + ord_p(8 t det Q) on a modulus above.
DEEP_DENSITIES = [
    (2, 12, (0, 0, 1)),
    (5, 20, (0, 0, 1)),
    (P127, 8, (0, 0, 1, 2)),
    (3, 60, (0, 1)),
]

# Dense forms with entries below 1000 (even diagonal at 2^6, so type II
# pivots occur): block diagonalization is nearly all of their cost, which
# grows as about n^4, from 15 ms at n = 12 to 250 ms at n = 24.
WIDE_MODULI = [(3, 4), (5, 3), (P127, 2), (2, 6)]
# (n, forms per modulus)
WIDE_COUNTS = [(12, 2), (14, 3), (16, 3), (18, 3), (20, 2), (22, 2), (24, 1)]
# (n, p, k): the wide end, once
WIDE_BIG = [(64, 3, 4)]


def _profile_det_order(profile) -> int:
    return sum(2 * int(e[1:]) if isinstance(e, str) else e for e in profile)


def _wide_count(rng: random.Random, n: int, p: int, k: int) -> dict:
    q = dense_form(rng, n, even_diagonal=(p == 2))
    return {"op": "count_form", "q": q, "p": p, "k": k, "t": rng.randrange(p**k)}


def _count_round(rng: random.Random) -> list[dict]:
    def visits(p, k, profile, forms):
        return [
            {"op": "count_form", "q": jordan_form(rng, [p], profile), "p": p, "k": k, "t": rng.randrange(p**k)}
            for _ in range(forms)
        ]

    warm = [visits(*entry) for entry in COUNT_WARM]
    rest = [ops[1:] for ops in warm] + [visits(*entry) for entry in DEEP_COUNTS]
    for factors, profile in DEEP_COMPOSITES:
        q = jordan_form(rng, [p for p, _ in factors], profile)
        t = rng.randrange(math.prod(p**k for p, k in factors))
        rest.append([{"op": "count_composite", "q": q, "factors": factors, "t": t}])
    for p, s, profile in DEEP_DENSITIES:
        q = jordan_form(rng, [p], profile)
        e = s - 1 - (3 if p == 2 else 0) - _profile_det_order(profile)
        t = p**e * _unit(rng, [p])
        rest.append([{"op": "local_density", "q": q, "p": p, "t": t, "s": s}])
    for n, forms in WIDE_COUNTS:
        rest += [[_wide_count(rng, n, p, k) for _ in range(forms)] for p, k in WIDE_MODULI]
    rest += [[_wide_count(rng, *big)] for big in WIDE_BIG]
    # the warm revisits are spread over the whole run, after their moduli
    # have been visited cold
    return [ops[0] for ops in warm] + _interleave(rest)


# --- draws ----------------------------------------------------------------

# (factors, profile, draws per kind per round); a single factor means
# sample_form, several mean sample_composite.  The composite draws hold
# the median; their costs rise from about 3 to 9.5 ms on the reference
# host in steps of an eighth or less around the median (and of at most
# a third elsewhere), so that the median moves smoothly with the host's
# speed rather than jumping between a fast and a slow cluster.  The
# cheaper draws are a fifth of all operations and the dearer ones a
# tenth; the 2^10 draws hold the p99 tail.
DRAW_INSTANCES = [
    ([(2, 10)], (0, "h0", 1), 12),
    ([(5, 6)], (0, 0, 1, 2), 13),
    ([(13, 5)], (0, 0, 1), 13),
    ([(P127B, 8)], (0, 0, 1, 1), 12),
    ([(2, 4), (3, 3)], (0, 0, 1), 14),
    ([(3, 2), (5, 2), (7, 2)], (0, 0, 1, 1), 14),
    ([(2, 5), (3, 3)], (0, 0, 1), 14),
    ([(2, 5), (5, 3)], (0, 0, 1), 14),
    ([(2, 5), (3, 4)], (0, 0, 1), 14),
    ([(2, 4), (3, 3)], (0, 0, 1, 1), 14),
    ([(2, 6), (3, 3)], (0, 0, 1), 14),
    ([(2, 6), (3, 4)], (0, 0, 1), 14),
    ([(3, 3), (P127B, 2)], (0, 0, 1), 14),
    ([(5, 3), (13, 2), (2, 4)], (0, 0, 0, 1), 14),
    ([(2, 5), (5, 3)], (0, 0, 1, 1), 14),
    ([(3, 3), (P127B, 2)], (0, 0, 1, 1), 14),
]

# (factors, profile, kind, draws): one instance per run, drawn often
# enough for a chi-square test against its support (at most 30, 24, 27
# and 48 vectors); the draws are spread evenly over the run.
UNIFORM_INSTANCES = [
    ([(5, 1)], (0, 0, 0), "any", 180),
    ([(2, 2)], (0, "h0"), "primitive", 150),
    ([(3, 2)], (0, 0, 1), "nonprimitive", 160),
    ([(2, 1), (3, 1)], (0, 0, 0), "any", 290),
]


def _draw_op(q, factors, t, kind, group=None) -> dict:
    op = {"q": q, "factors": factors, "t": t, "kind": kind}
    if len(factors) == 1:
        op.update(op="sample_form", p=factors[0][0], k=factors[0][1])
    else:
        op["op"] = "sample_composite"
    if group is not None:
        op["group"] = group
    return op


def _draws_round(rng: random.Random) -> list[dict]:
    lists = []
    for factors, profile, reps in DRAW_INSTANCES:
        q = jordan_form(rng, [p for p, _ in factors], profile)
        for kind in KINDS:
            lists.append([_draw_op(q, factors, witness_target(rng, q, factors, kind), kind) for _ in range(reps)])
    return _interleave(lists)


def _uniform_draws(rng: random.Random) -> list[dict]:
    """The chi-square instances' draws, interleaved; "group" ties each
    draw to its instance."""
    groups = []
    for g, (factors, profile, kind, draws) in enumerate(UNIFORM_INSTANCES):
        q = jordan_form(rng, [p for p, _ in factors], profile)
        t = 0 if kind == "nonprimitive" else witness_target(rng, q, factors, kind)
        groups.append([_draw_op(q, factors, t, kind, group=g) for _ in range(draws)])
    return _interleave(groups)


def _interleave(lists: list[list]) -> list:
    """Merge lists so each one's items are spread evenly over the result."""
    keyed = [((j + 0.5) / len(items), i, item) for i, items in enumerate(lists) for j, item in enumerate(items)]
    return [item for *_, item in sorted(keyed, key=lambda e: e[:2])]


# --- instances ------------------------------------------------------------


def instance_json(q, factors, t) -> str:
    """An instance in the CLI's JSON format, integers as strings."""
    obj = {"q": [[str(v) for v in row] for row in q], "t": str(t)}
    if len(factors) == 1:
        obj["p"], obj["k"] = str(factors[0][0]), str(factors[0][1])
    else:
        obj["factors"] = [{"p": str(p), "k": str(k)} for p, k in factors]
    return json.dumps(obj)


# --- entry point ----------------------------------------------------------

WORKLOADS = ("count", "draws")


def build(name: str, seed: int, seconds: float) -> list[dict]:
    """The fixed operation list of one run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    rounds = rounds_for(name, seconds)
    if name == "count":
        return [op for _ in range(rounds) for op in _count_round(rng)]
    ops = [op for _ in range(rounds) for op in _draws_round(rng)]
    return _interleave([ops, _uniform_draws(rng)])
