"""Acceptance gate.

One test per criterion, run in order; each prints a single
"criterion N (label): PASS" line on success (visible with -s or -rA).
Every criterion is checked at its stated scale and tolerance; the
statistical sampler criterion re-runs failed cells once with a second
seed before judging, all other criteria are zero-tolerance.
"""

import random
import time
from collections import Counter
from math import gcd

from matrix_helpers import apply_transform
from quadmod.blockdiag import (
    TypeI,
    TypeII,
    block_diagonalize,
    blocks_to_matrix,
    integer_det,
)
from quadmod.counting import RepCounts, count_composite, count_form, form_counts_by_symbol
from quadmod.modring import INF, PrimePower, valuation
from quadmod.oracle import (
    chi_square_uniform,
    enumerate_reps,
    histogram_counts,
    nonprimitive_composite,
    solutions_mod,
)
from quadmod.sampling import (
    RepKind,
    sample_composite,
    sample_form,
    sample_split,
    split_rejection_stats,
)
from quadmod.sqroots import LasVegasFail, NonResidue, NotASquare, lift_sqrt_odd, sqrt_unit_mod_2k
from quadmod.symbols import PkSymbol, class_size, enumerate_symbols, split_class_size, symbol_of


def random_symmetric(rng, n, q):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randrange(q)
            mat[i][j] = v
            mat[j][i] = v
    return mat


def kind_filter(sols, kind, modulus, p=None):
    if kind is RepKind.ANY:
        return set(sols)
    if p is not None:
        prim = {v for v in sols if any(c % p for c in v)}
    else:
        prim = {v for v in sols if gcd(modulus, *v) == 1}
    return prim if kind is RepKind.PRIMITIVE else set(sols) - prim


def test_criterion_1_count_oracle_equivalence():
    """count_form == enumerate_reps on all of Z/p^k, every p^k <= 256, n <= 3."""
    rng = random.Random(101)
    start = time.time()
    checked = 0
    for p in (2, 3, 5, 7):
        k = 1
        while p**k <= 256:
            pp = PrimePower(p, k)
            for n in (1, 2, 3):
                for _ in range(25):
                    mat = random_symmetric(rng, n, pp.q)
                    per_t = histogram_counts(mat, pp)
                    # count_form(mat, pp, t) looks its answer up in this
                    # symbol table, so checking the table value at every t
                    # checks count_form's value at every t ...
                    table = form_counts_by_symbol(mat, pp)
                    zero = RepCounts(0, 0, 0)
                    for t in range(pp.q):
                        got = table.get(symbol_of(pp, t), zero)
                        assert got == per_t[t], (p, k, n, mat, t)
                        checked += 1
                    # ... and spot calls pin the public entry point itself
                    for t in rng.sample(range(pp.q), min(pp.q, 8)):
                        assert count_form(mat, pp, t) == per_t[t], (p, k, n, mat, t)
            k += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 1 overran: {elapsed:.0f}s"
    print(f"criterion 1 (counting oracle equivalence): PASS "
          f"({checked} (form,t) comparisons in {elapsed:.0f}s)")


def test_criterion_2_split_size_exhaustive():
    """split_class_size == brute-force pair counting for all triples."""
    for p, kmax in ((2, 4), (3, 4), (5, 3), (7, 2)):
        for k in range(1, kmax + 1):
            pp = PrimePower(p, k)
            assert pp.q <= 256
            table = [symbol_of(pp, t) for t in range(pp.q)]
            syms = enumerate_symbols(pp)
            done = set()
            for t in range(pp.q):
                g = table[t]
                if g in done:
                    continue
                done.add(g)
                for g1 in syms:
                    for g2 in syms:
                        brute = sum(
                            1 for a in range(pp.q) if table[a] == g1 and table[(t - a) % pp.q] == g2
                        )
                        assert split_class_size(pp, g, g1, g2) == brute, (p, k, t, g1, g2)
    # spot values at p = 13: the [+,+] split of a residue target has (p-1)/4 - 1 pairs
    pp = PrimePower(13, 1)
    plus = PkSymbol(0, 1)
    brute = sum(1 for a in range(1, 13) if pow(a, 6, 13) == 1 and pow((1 - a) % 13, 6, 13) == 1)
    assert brute == (13 - 1) // 4 - 1 == 2
    assert split_class_size(pp, plus, plus, plus) == brute
    print("criterion 2 (split sizes exhaustive + p=13 spot value): PASS")


def test_criterion_3_diagonalization_contract():
    """200 random instances: structure, unimodularity, and count agreement."""
    rng = random.Random(303)
    counted = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        k = rng.randint(1, 5)
        n = rng.randint(1, 4)
        pp = PrimePower(p, k)
        mat = random_symmetric(rng, n, pp.q)
        bd = block_diagonalize(mat, pp)
        u = [list(row) for row in bd.u]
        assert integer_det(u) % pp.q == 1
        assert apply_transform(mat, u, pp) == blocks_to_matrix(bd)
        for blk in bd.blocks:
            if p != 2:
                assert isinstance(blk, TypeI)
            if isinstance(blk, TypeII):
                assert blk.b % 2 == 1
        if pp.q**n <= 2**16:
            # unimodular changes of variable preserve all three counts
            blocks_mat = blocks_to_matrix(bd)
            for t in rng.sample(range(pp.q), min(pp.q, 4)):
                _, c_q = enumerate_reps(mat, pp, t)
                _, c_b = enumerate_reps(blocks_mat, pp, t)
                assert c_q == c_b, (mat, bd.blocks, t)
                counted += 1
    assert counted > 100
    print(f"criterion 3 (diagonalization contract, {counted} count agreements): PASS")


def test_criterion_4_square_root_suite():
    """Complete 2-adic root sets up to 2^11; both odd-p roots for p <= 50, k <= 3."""
    for k in range(1, 12):
        q = 2**k
        roots_of = {}
        for x in range(1, q, 2):
            roots_of.setdefault(x * x % q, []).append(x)
        for t in range(1, q, 2):
            if t in roots_of:
                got = sqrt_unit_mod_2k(k, t)
                assert list(got) == sorted(roots_of[t])
                assert len(got) == {1: 1, 2: 2}.get(k, 4)
            else:
                raised = False
                try:
                    sqrt_unit_mod_2k(k, t)
                except NotASquare:
                    raised = True
                assert raised, (k, t)
    rng = random.Random(404)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in (1, 2, 3):
            pp = PrimePower(p, k)
            squares = {x * x % pp.q for x in range(pp.q) if x % p}
            for t in range(1, pp.q):
                if t % p == 0:
                    continue
                if t in squares:
                    r1, r2 = lift_sqrt_odd(pp, t, rng)
                    assert r1 != r2 and r1 * r1 % pp.q == t and r2 * r2 % pp.q == t
                else:
                    raised = False
                    try:
                        lift_sqrt_odd(pp, t, rng)
                    except NonResidue:
                        raised = True
                    assert raised, (p, k, t)
    print("criterion 4 (square-root suite, exhaustive): PASS")


def _sampler_cells():
    """The fixed sampler grid: (draw, support) cells with 0 < |S| <= 64."""
    rng = random.Random(505)
    cells = []
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            pp = PrimePower(p, k)
            for n in (1, 2):
                for _ in range(2):
                    mat = random_symmetric(rng, n, pp.q)
                    for t in rng.sample(range(pp.q), min(pp.q, 4)):
                        sols, _ = enumerate_reps(mat, pp, t)
                        for kind in RepKind:
                            want = kind_filter(sols, kind, pp.q, p=p)
                            if 0 < len(want) <= 64:
                                cells.append((mat, pp, t, kind, want))
    return cells


def test_criterion_5_sampler_support_and_uniformity():
    """Exact support and chi-square uniformity at alpha=0.001 per grid cell."""
    start = time.time()
    cells = _sampler_cells()
    assert len(cells) >= 100
    passed = 0
    for idx, (mat, pp, t, kind, want) in enumerate(cells):
        size = len(want)
        ok = False
        support_ok = True
        for attempt, seed in enumerate((1000 + idx, 5000 + idx)):
            rng = random.Random(seed)
            got = Counter(sample_form(mat, pp, t, kind, rng) for _ in range(100 * size))
            support_ok = set(got) == want
            assert set(got) <= want, (mat, pp, t, kind)  # never an invalid draw
            if support_ok:
                stat, ok = chi_square_uniform(list(got.values()), size)
                if ok:
                    break
        assert support_ok, f"support mismatch at cell {idx}: {(mat, pp, t, kind)}"
        passed += ok
    rate = passed / len(cells)
    elapsed = time.time() - start
    assert rate >= 0.95, f"only {rate:.1%} of cells passed chi-square"
    assert elapsed < 600, f"criterion 5 overran: {elapsed:.0f}s"
    print(f"criterion 5 (sampler uniformity): PASS "
          f"({passed}/{len(cells)} cells, {elapsed:.0f}s)")


def test_criterion_6_stabilization_law():
    """A_{p^(k+1)} = p^(n-1) A_{p^k} for two consecutive k above s."""
    rng = random.Random(606)
    done = 0
    while done < 50:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(1, 3)
        mat = random_symmetric(rng, n, p**2 if p < 7 else p)
        det = integer_det(mat)
        if det == 0:
            continue
        t = rng.randint(1, 8)
        s = 1
        arg = 8 * t * det
        while arg % p == 0:
            s += 1
            arg //= p
        if s > 9:
            continue
        a_s = count_form(mat, PrimePower(p, s), t).total
        a_s1 = count_form(mat, PrimePower(p, s + 1), t).total
        a_s2 = count_form(mat, PrimePower(p, s + 2), t).total
        assert a_s1 == p ** (n - 1) * a_s, (mat, p, t, s)
        assert a_s2 == p ** (n - 1) * a_s1, (mat, p, t, s)
        done += 1
    print("criterion 6 (stabilization law, 50 instances): PASS")


def test_criterion_7_crt_law():
    """Composite counts match brute force; composite sampler hits the whole set."""
    rng = random.Random(707)
    start = time.time()
    specs = [
        [(2, 1), (3, 1)],           # 6, square-free
        [(3, 1), (5, 1)],           # 15
        [(2, 1), (5, 1), (3, 1)],   # 30
        [(5, 1), (7, 1)],           # 35
        [(2, 2), (3, 1)],           # 12, non-square-free
        [(3, 2), (5, 1)],           # 45
        [(2, 2), (7, 2)],           # 196
        [(2, 3), (5, 2)],           # 200
    ]
    support_checked = 0
    for spec in specs:
        facs = [PrimePower(p, k) for p, k in spec]
        q = 1
        for pp in facs:
            q *= pp.q
        assert q <= 200
        for n in (1, 2):
            mat = random_symmetric(rng, n, q)
            for t in rng.sample(range(q), 3):
                sols = solutions_mod(mat, q, t)
                prim = sum(1 for v in sols if not nonprimitive_composite(v, q))
                got = count_composite(mat, facs, t)
                assert got == (len(sols), prim, len(sols) - prim), (spec, mat, t)
                for kind in RepKind:
                    want = kind_filter(sols, kind, q)
                    if not want:
                        assert sample_composite(mat, facs, t, kind, rng) is None
                    elif len(want) <= 100:
                        seen = set()
                        for _ in range(15 * len(want)):
                            v = sample_composite(mat, facs, t, kind, rng)
                            assert v in want, (spec, mat, t, kind, v)
                            seen.add(v)
                        assert seen == want, (spec, mat, t, kind)
                        support_checked += 1
                    else:
                        for _ in range(50):
                            assert sample_composite(mat, facs, t, kind, rng) in want
    elapsed = time.time() - start
    assert support_checked >= 20
    assert elapsed < 120, f"criterion 7 overran: {elapsed:.0f}s"
    print(f"criterion 7 (CRT law, {support_checked} full-support cells): PASS ({elapsed:.0f}s)")


def test_criterion_8_las_vegas_discipline():
    """No Fail outcomes under the driver cap; rejection rate within bounds."""
    # a rejection-heavy workload: equal-orders splits at large primes
    rng = random.Random(808)
    split_rejection_stats.reset()
    fails = 0
    draws = 0
    for p in (11, 13, 17, 19):
        pp = PrimePower(p, 2)
        syms = [PkSymbol(0, 1), PkSymbol(0, -1)]
        for t in range(1, p):
            g = symbol_of(pp, t)
            for g1 in syms:
                for g2 in syms:
                    if split_class_size(pp, g, g1, g2) == 0:
                        continue
                    for _ in range(8):
                        try:
                            pair = sample_split(pp, t, g1, g2, rng)
                        except LasVegasFail:
                            fails += 1
                            continue
                        draws += 1
                        assert pair is not None
    # driver-level sampling at p=11 exercises restarts end to end
    pp = PrimePower(11, 2)
    mat = [[1, 0], [0, 1]]
    for t in range(1, 30):
        try:
            x = sample_form(mat, pp, t, RepKind.ANY, rng)
        except LasVegasFail:
            fails += 1
            continue
        draws += 1
        assert x is None or (x[0] ** 2 + x[1] ** 2) % pp.q == t % pp.q
    rate = split_rejection_stats.failure_rate()
    assert split_rejection_stats.trials > 1000
    assert fails == 0
    assert rate <= 11 / 12 + 0.05, f"rejection rate {rate:.3f} too high"
    print(f"criterion 8 (Las Vegas discipline): PASS "
          f"(0 Fail in {draws} draws; rejection rate {rate:.3f} <= {11/12 + 0.05:.3f})")
