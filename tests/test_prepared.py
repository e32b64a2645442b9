"""The prepared pipeline: one diagonalization and one set of tables per
factor, read by every count and draw of the form.

The counts are refereed by enumeration (oracle.solutions_mod), the
one-pass block cells by count_block symbol by symbol, and the draws by
the wrappers' own transcripts: preparing draws no randomness, so draws
from one prepared form equal fresh sample_form calls on the same
generator.
"""

import copy
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from conftest import CallCounter

import quadmod.blockdiag
import quadmod.cli
import quadmod.counting
import quadmod.gauss
import quadmod.sampling
import quadmod.symbols
from quadmod import (
    PrimePower,
    RepKind,
    count_composite,
    count_factors,
    count_form,
    form_counts_by_symbol,
    local_density,
    prepare,
    sample_composite,
    sample_factors,
    sample_form,
    sample_prepared,
)
from quadmod.blockdiag import TypeI, TypeII
from quadmod.cli import main
from quadmod.counting import RepCounts, block_cells
from quadmod.modring import INF, legendre
from quadmod.oracle import solutions_mod
from quadmod.symbols import SymbolLayout, class_size, enumerate_symbols, symbol_of
from dp_reference import Positions, dense, table_classes, table_dict
from test_counting import count_block

P127 = 2**127 - 1
Q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]


def random_form(rng, n, singular):
    """A symmetric n x n matrix with small entries; a singular one is
    c * v v' (rank at most one), with v = (0) when n = 1."""
    if singular:
        v = [rng.randrange(-3, 4) if n > 1 else 0 for _ in range(n)]
        c = rng.randrange(1, 5)
        return [[c * a * b for b in v] for a in v]
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            q[i][j] = q[j][i] = rng.randrange(-6, 7)
    return q


def small_instances():
    """(form, p^k) with p in {2, 3, 5} and (p^k)^n <= 4096, n <= 4."""
    rng = random.Random(4096)
    out = []
    for p in (2, 3, 5):
        k = 1
        while p**k <= 64:
            pp = PrimePower(p, k)
            for n in range(1, 5):
                if pp.q**n > 4096:
                    break
                out += [(random_form(rng, n, singular), pp) for singular in (False, False, True)]
            k += 1
    return out


SMALL = small_instances()


@pytest.mark.parametrize("q_mat, pp", SMALL, ids=[f"{pp.p}^{pp.k}-n{len(q)}-{i}" for i, (q, pp) in enumerate(SMALL)])
def test_prepared_counts_match_enumeration(q_mat, pp):
    form = prepare(q_mat, pp)
    for t in range(pp.q):
        sols = solutions_mod(q_mat, pp.q, t)
        prim = sum(1 for v in sols if gcd(pp.p, *v) == 1)
        got = form.count(t)
        assert (got.total, got.primitive, got.nonprimitive) == (len(sols), prim, len(sols) - prim), t
        # every public count is the prepared table's entry at t's symbol
        assert got == form.table.get(symbol_of(pp, t), (0, 0, 0)) == count_form(q_mat, pp, t)
    assert form_counts_by_symbol(q_mat, pp) == form.table


def test_composite_count_is_the_product_of_prepared_factors():
    q_mat = [[2, 1], [1, 4]]
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(5, 1)]
    forms = [prepare(q_mat, pp) for pp in factors]
    m = 8 * 9 * 5
    for t in range(0, m, 7):
        sols = solutions_mod(q_mat, m, t)
        prim = sum(1 for v in sols if gcd(m, *v) == 1)
        assert count_factors(forms, t) == count_composite(q_mat, factors, t) == (len(sols), prim, len(sols) - prim)


def test_local_density_reads_the_prepared_count():
    q_mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # det = 1 and t = 1, so the stabilizing level at 2 is s = 1 + ord_2(8) = 4
    form = prepare(q_mat, PrimePower(2, 4))
    assert local_density(q_mat, 2, 1) == Fraction(form.count(1).total, 2 ** (4 * 2))


def random_type1(rng, pp):
    """d = 0, a unit, or p^e times a unit for a random 0 < e < k + 2."""
    roll = rng.randrange(4)
    if roll == 0:
        return TypeI(0)
    u = rng.randrange(1, 10**6) * pp.p + rng.randrange(1, pp.p if pp.p > 2 else 2)
    if roll == 1:
        return TypeI(u)
    return TypeI(u * pp.p ** rng.randrange(1, pp.k + 2))


@pytest.mark.parametrize("p", [2, 3, 5, 13, P127])
def test_block_table_equals_count_block(p):
    rng = random.Random(p % 1000)
    for k in range(1, 10):
        pp = PrimePower(p, k)
        layout = SymbolLayout(pp)
        blocks = [random_type1(rng, pp) for _ in range(8)]
        if p == 2:
            blocks += [
                TypeII(rng.randrange(k + 2), rng.randrange(8), 2 * rng.randrange(8) + 1, rng.randrange(8))
                for _ in range(6)
            ]
        for blk in blocks:
            want = {g: count_block(blk, pp, g) for g in enumerate_symbols(pp) if class_size(pp, g) > 0}
            cells = block_cells(table_classes((blk,), pp)[0], layout)
            got = table_dict(layout, dense(cells, layout))
            assert got == want and list(got) == list(want), (pp, blk)
            # the cells are the non-zero entries, in strictly increasing positions
            index = Positions(layout).index
            positions = [index[g] for g, _, _ in cells]
            assert positions == sorted(set(positions)) and all(tot for _, tot, _ in cells), (pp, blk)


def symbol_rep(pp, g):
    """An element of Z/p^k whose symbol is g."""
    if g.ord == INF:
        return 0
    if pp.p == 2:
        return 2**g.ord * g.sgn
    return pp.p**g.ord * next(u for u in range(1, pp.p) if legendre(u, pp.p) == g.sgn)


def dense_even(seed, n):
    """A dense symmetric n x n matrix with an even diagonal, so that
    type II blocks occur mod powers of 2."""
    rng = random.Random(seed)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = 2 * rng.randrange(500)
        for j in range(i):
            q[i][j] = q[j][i] = rng.randrange(1000)
    return q


CROSS_PATH = {
    "Q4-2^60": (Q4, PrimePower(2, 60)),
    "Q4-3^60": (Q4, PrimePower(3, 60)),
    "Q4-5^60": (Q4, PrimePower(5, 60)),
    "Q4-P^30": (Q4, PrimePower(P127, 30)),
    "Q4-P^60": (Q4, PrimePower(P127, 60)),
    "dense-24-2^6": (dense_even(6, 24), PrimePower(2, 6)),
    "diagonal-2^20": ([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 10, 0], [0, 0, 0, 28]], PrimePower(2, 20)),
    "one-type1-3^5": ([[6]], PrimePower(3, 5)),
    "one-type2-2^7": ([[2, 1], [1, 2]], PrimePower(2, 7)),
    "zero-dim-5^3": ([], PrimePower(5, 3)),
}


@pytest.mark.parametrize("q_mat, pp", CROSS_PATH.values(), ids=CROSS_PATH)
def test_count_equals_the_full_top_level(q_mat, pp):
    # count reads the form's Level of the blocks' Gauss-sum terms at t's
    # symbol, and table reads a new Level of the same terms at every one
    form = prepare(q_mat, pp)
    table = form.table
    inhabited = [g for g in enumerate_symbols(pp) if class_size(pp, g) > 0]
    if form.blocks:
        assert list(table) == inhabited
    for g in inhabited:
        assert symbol_of(pp, symbol_rep(pp, g)) == g
        assert form.count(symbol_rep(pp, g)) == table.get(g, RepCounts(0, 0, 0)), g


def count_by_partners(form, t):
    """The sum of the chain walk's first-step cell weights at t: every
    split cell (g1, g2) of t's symbol that layout.partners lists, one
    cell at a time, weighed by the head's cells and the first tail."""
    layout, per_block, tails = form.walk()
    g = symbol_of(form.pp, t)
    head, tail = per_block[0], tails[0]
    total = nprim = 0
    for g1, h_tot, h_np in head:
        for g2, size in layout.partners(g, g1):
            c_tot, c_np = tail.at(*g2)
            total += size * h_tot * c_tot
            nprim += size * h_np * c_np
    return RepCounts(total, total - nprim, nprim)


MIXED_2 = [[2, 1, 0, 0, 0], [1, 4, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 20]]
FAR_CELL_FORMS = {
    "Q4-P^30": (Q4, PrimePower(P127, 30)),
    "Q4-3^12": (Q4, PrimePower(3, 12)),
    "Q4-5^7": (Q4, PrimePower(5, 7)),
    "Q4-2^12": (Q4, PrimePower(2, 12)),
    "mixed-2^9": (MIXED_2, PrimePower(2, 9)),
    "mixed-2^3": (MIXED_2, PrimePower(2, 3)),
    "singular-3^5": ([[1, 0, 0], [0, 0, 0], [0, 0, 9]], PrimePower(3, 5)),
    "dense-12-2^6": (dense_even(3, 12), PrimePower(2, 6)),
}


@pytest.mark.parametrize("q_mat, pp", FAR_CELL_FORMS.values(), ids=FAR_CELL_FORMS)
def test_count_sums_the_far_cells_by_order(q_mat, pp):
    # a draw draws below count(t), and its walk's first step scans the
    # cells of t's symbol: their weights must sum to that count, in
    # both classes, at every symbol; at p = 2 the two top orders have
    # the class size of the order below them, a ratio of 1
    form = prepare(q_mat, pp)
    layout, _, tails = form.walk()
    assert tails
    if pp.p == 2:
        assert [o for o in range(1, pp.k) if layout.size(o - 1) == layout.size(o)] == list(range(max(1, pp.k - 2), pp.k))
    for g in layout:
        t = symbol_rep(pp, g)
        assert count_by_partners(form, t) == form.count(t), g


LEVEL_FORMS = [([[j + 1 if i == j else 0 for j in range(n)] for i in range(n)], PrimePower(3, 4)) for n in range(6)]
LEVEL_FORMS.append((Q4, PrimePower(2, 6)))  # type II blocks among its blocks


def scan_reach(layout, head, g, cell):
    """The tail symbols that the walk's scan at the target symbol g reads
    up to the cell (g1, g2) it stops at: every partner of every head
    cell, in scan order, up to that cell."""
    reach = set()
    for g1, _, _ in head:
        for g2, _ in layout.partners(g, g1):
            reach.add(g2)
            if (g1, g2) == cell:
                return reach
    raise AssertionError("the scan never reaches its cell")


@pytest.mark.parametrize("q_mat, pp", LEVEL_FORMS, ids=[f"n{len(q)}-{pp}" for q, pp in LEVEL_FORMS])
def test_prepare_builds_only_the_levels_the_walk_reads(monkeypatch, layer_calls, q_mat, pp):
    _, tables = layer_calls
    built = CallCounter(quadmod.counting.Level)
    monkeypatch.setattr(quadmod.counting, "Level", built)
    pick, reached = quadmod.sampling._pick_cell, {}

    def recorded(layout, head, tail, g, want_prim, r):
        cell = pick(layout, head, tail, g, want_prim, r)
        reached.setdefault(id(tail), set()).update(scan_reach(layout, head, g, cell[:2]))
        return cell

    monkeypatch.setattr(quadmod.sampling, "_pick_cell", recorded)
    form, t = prepare(q_mat, pp), 8 if pp.p == 2 else 9
    form.count(t)
    # preparing and counting build no tail Level: only the form's own
    assert (tables.calls, built.calls) == (0, 1)
    # the first read of the tables makes one Level per tail, once
    tails = max(0, len(form.blocks) - 1)
    layout, per_block, form_tails = form.walk()
    assert len(form_tails) == len(per_block) == tails
    assert (tables.calls, built.calls) == (1, 1 + tails)
    assert sample_prepared(form, t, RepKind.ANY, random.Random(9)) is not None or not form.blocks
    assert (tables.calls, built.calls) == (1, 1 + tails)
    # each step computes the tail entries its scan reaches, and no other:
    # at a symbol, or (tail.above) from the order of a reached symbol up
    for tail in form_tails:
        syms = reached[id(tail)]
        keys = {(pp.k, 0) if g.ord == INF else g for g in syms} | {(g.ord, None) for g in syms if g.ord != INF}
        assert tail._read and set(tail._read) <= keys, (set(tail._read), keys)
        assert len([key for key in tail._read if key[1] is not None]) < len(list(layout))
    # the top level is read from a new Level on each read of table, and not kept
    assert form.table == form.table
    assert built.calls == 1 + tails + 2 * bool(form.blocks)


@pytest.mark.parametrize("pp", [PrimePower(3, 60), PrimePower(P127, 60)], ids=["3^60", "P^60"])
def test_a_one_block_walk_builds_no_table(monkeypatch, layer_calls, pp):
    # a one-block form's walk has no step, so its draw reads neither a
    # table nor the layout
    _, tables = layer_calls
    heads = CallCounter(quadmod.counting.block_cells)
    layouts = CallCounter(quadmod.counting.SymbolLayout)
    monkeypatch.setattr(quadmod.counting, "block_cells", heads)
    monkeypatch.setattr(quadmod.counting, "SymbolLayout", layouts)
    form = prepare([[7]], pp)
    assert sample_prepared(form, 7 * 4, RepKind.ANY, random.Random(7)) is not None
    assert (tables.calls, heads.calls) == (0, 0)
    assert layouts.calls == 0


# (diagonal mod 101^6, the residues mod 101 of its units and of each
# order's product of units)
LEGENDRE_FORMS = {
    "three-orders": ((2, 3 * 101, 5 * 101**2), {2, 3, 5}),
    "a-shared-order": ((2, 3, 5 * 101), {2, 3, 5, 6}),
}


@pytest.mark.parametrize("diagonal, residues", LEGENDRE_FORMS.values(), ids=LEGENDRE_FORMS)
def test_a_count_and_a_draw_take_one_legendre_symbol_per_block(monkeypatch, diagonal, residues):
    # each type I block's order and unit are taken in one pass: a count
    # takes one Legendre symbol per order, of the product of its units,
    # and the first draw's tables one per block but the last of each
    # order, so the two take one per block between them, none twice
    pp = PrimePower(101, 6)
    calls = Counter()

    def counted(a, p):
        calls[a % p] += 1
        return legendre(a, p)

    for mod in (quadmod.counting, quadmod.gauss):
        if hasattr(mod, "legendre"):
            monkeypatch.setattr(mod, "legendre", counted)
    # prepare takes the count's symbols, so the counter is in place first
    form = prepare([[d if i == j else 0 for j in range(3)] for i, d in enumerate(diagonal)], pp)
    assert sorted(blk.d for blk in form.blocks) == sorted(diagonal)
    t = 2 * 3**2  # a unit part and its negative that are none of the residues
    assert form.count(t).total > 0
    assert sample_prepared(form, t, RepKind.ANY, random.Random(3)) is not None
    assert form.walk()[2]
    taken = {r: calls[r] for r in residues if calls[r]}
    assert sum(taken.values()) == len(diagonal) and max(taken.values()) == 1, taken


@pytest.mark.parametrize("q_mat", [Q4, [[1, 2], [2, 1]], []], ids=["Q4", "2x2", "empty"])
def test_prepare_checks_symmetry_once(monkeypatch, q_mat):
    check = CallCounter(quadmod.blockdiag.check_symmetric)
    monkeypatch.setattr(quadmod.counting, "check_symmetric", check)
    monkeypatch.setattr(quadmod.blockdiag, "check_symmetric", check)
    for pp in (PrimePower(2, 5), PrimePower(3, 4)):
        check.calls = 0
        prepare(q_mat, pp)
        assert check.calls == 1, pp


THREE_FACTORS = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(13, 1)]
CHECKED_ONCE = {
    "count_composite": lambda: count_composite(Q4, THREE_FACTORS, 14),
    "sample_composite-any": lambda: sample_composite(Q4, THREE_FACTORS, 14, RepKind.ANY, random.Random(2)),
    "sample_composite-primitive": lambda: sample_composite(Q4, THREE_FACTORS, 14, RepKind.PRIMITIVE, random.Random(2)),
    "sample_composite-nonprimitive": lambda: sample_composite(
        Q4, THREE_FACTORS, 14, RepKind.NONPRIMITIVE, random.Random(2)
    ),
    "local_density": lambda: local_density(Q4, 3, 7),
}


@pytest.mark.parametrize("name", CHECKED_ONCE)
def test_composites_and_densities_check_q_once(monkeypatch, name):
    # a composite call checks Q once, not once per prime power, and
    # local_density once, not again inside its count
    check = CallCounter(quadmod.blockdiag.check_symmetric)
    for mod in (quadmod.blockdiag, quadmod.counting, quadmod.sampling):
        if hasattr(mod, "check_symmetric"):
            monkeypatch.setattr(mod, "check_symmetric", check)
    CHECKED_ONCE[name]()
    assert check.calls == 1


CLI_INSTANCES = {
    "single": {"q": Q4, "p": "3", "k": 4, "t": "7"},
    "three-factors": {"q": Q4, "factors": [{"p": str(pp.p), "k": pp.k} for pp in THREE_FACTORS], "t": "14"},
}
CLI_COMMANDS = [
    ("count", "three-factors", []),
    ("sample", "three-factors", ["--kind", "primitive", "--seed", "2"]),
    ("density", "single", []),
    ("diagonalize", "single", []),
    ("check", "three-factors", ["--trials", "0"]),
    ("check", "three-factors", ["--trials", "20", "--seed", "2"]),
]


@pytest.mark.parametrize(
    "command, instance, flags", CLI_COMMANDS, ids=[" ".join([c, *f[:2]]) for c, _, f in CLI_COMMANDS]
)
def test_cli_commands_check_q_once_before_any_work(monkeypatch, tmp_path, capsys, command, instance, flags):
    # the parser checks Q, and no command checks it again: one check in
    # all, before the first diagonalization, which every count and draw
    # starts from
    events = []
    check = quadmod.blockdiag.check_symmetric

    def counted_check(q_mat):
        events.append("check")
        return check(q_mat)

    for mod in (quadmod.blockdiag, quadmod.counting, quadmod.sampling, quadmod.cli):
        if hasattr(mod, "check_symmetric"):
            monkeypatch.setattr(mod, "check_symmetric", counted_check)
        if hasattr(mod, "block_diagonalize"):
            diag = getattr(mod, "block_diagonalize")
            monkeypatch.setattr(mod, "block_diagonalize", lambda q, pp, diag=diag: events.append("diag") or diag(q, pp))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(CLI_INSTANCES[instance]))
    assert main([command, str(path), *flags]) == 0
    assert events.count("check") == 1 and events[0] == "check", events
    assert "diag" in events or flags == ["--trials", "0"]
    capsys.readouterr()


def test_cli_check_without_oracle_or_draws_rejects_an_asymmetric_q(tmp_path, capsys):
    # with the oracle over budget and no trials, check counts nothing, and
    # the parser's one check still rejects Q
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"q": [[1, 2], [3, 1]], "factors": CLI_INSTANCES["three-factors"]["factors"], "t": "1"}))
    assert main(["check", str(path), "--trials", "0", "--budget", "0"]) == 3
    assert capsys.readouterr().err.strip() == "error: q[1][0] != q[0][1]"


@pytest.mark.parametrize("kind", list(RepKind))
def test_sample_form_prepares_once(layer_calls, kind):
    # the tables are built once, and only when a walk runs: an empty
    # class (the non-primitive one at t = 7) ends the draw before them
    diag, tables = layer_calls
    drawn = sample_form(Q4, PrimePower(3, 4), 7, kind, random.Random(1))
    assert (diag.calls, tables.calls) == (1, int(drawn is not None))
    assert (drawn is None) == (kind is RepKind.NONPRIMITIVE)


@pytest.mark.parametrize("kind", list(RepKind))
def test_sample_composite_prepares_once_per_factor(layer_calls, kind):
    diag, tables = layer_calls
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(13, 1)]
    drawn = sample_composite(Q4, factors, 14, kind, random.Random(2))
    assert (diag.calls, tables.calls) == (3, 3 if drawn is not None else 0)
    assert (drawn is None) == (kind is RepKind.NONPRIMITIVE)


@pytest.mark.parametrize("kind", list(RepKind))
def test_prepared_draws_repeat_the_wrapper_transcripts(kind):
    pp = PrimePower(2, 6)
    form = prepare(Q4, pp)
    rng_a, rng_b = random.Random(11), random.Random(11)
    for t in (0, 12, 40):
        for _ in range(5):
            assert sample_prepared(form, t, kind, rng_a) == sample_form(Q4, pp, t, kind, rng_b)
    factors = [PrimePower(2, 3), PrimePower(3, 2), PrimePower(P127, 1)]
    forms = [prepare(Q4, pp) for pp in factors]
    for t in (0, 14, 78):
        for _ in range(5):
            assert sample_factors(forms, t, kind, rng_a) == sample_composite(Q4, factors, t, kind, rng_b)


def container_sizes():
    """Sizes of every container and cache held by the three modules."""
    sizes = {}
    for mod in (quadmod.counting, quadmod.sampling, quadmod.symbols):
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set, tuple)):
                sizes[mod.__name__, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[mod.__name__, name] = value.cache_info().currsize
    return sizes


def test_layout_is_local_to_one_prepared_form():
    # the layout is fixed once prepared (near cells are computed by rule,
    # not stored), and no module-level container grows across calls
    before = container_sizes()
    rng = random.Random(3)
    pp = PrimePower(3, 6)
    form = prepare(Q4, pp)
    layout = form.walk()[0]
    layout_state = copy.deepcopy(vars(layout))
    for t in range(0, 40, 3):
        sample_prepared(form, t, RepKind.ANY, rng)
        sample_prepared(form, t, RepKind.PRIMITIVE, rng)
    assert vars(layout) == layout_state
    for _ in range(3):
        count_form(Q4, pp, 5)
        sample_form(Q4, pp, 5, RepKind.PRIMITIVE, rng)
        sample_composite(Q4, [PrimePower(2, 5), pp], 5, RepKind.NONPRIMITIVE, rng)
    assert prepare(Q4, pp).walk()[0] is not layout
    assert container_sizes() == before


def test_counts_never_build_u(monkeypatch, tmp_path, capsys):
    # a count reads the blocks and tables only, and a draw applies the
    # recorded moves to its one vector; u is built from the moves only
    # where it is printed, once per diagonalization.  A read of u that
    # finds it unbuilt is a build.
    builds = SimpleNamespace(calls=0)
    read_u = quadmod.blockdiag.BlockDiagForm.u.fget

    def counted_u(bd):
        builds.calls += bd._u is None
        return read_u(bd)

    monkeypatch.setattr(quadmod.blockdiag.BlockDiagForm, "u", property(counted_u))
    pp = PrimePower(3, 4)
    count_form(Q4, pp, 7)
    count_form(dense_even(6, 24), PrimePower(2, 6), 8)
    count_composite(Q4, [PrimePower(2, 5), pp, PrimePower(P127, 2)], 7)
    local_density(Q4, 3, 7)
    path = tmp_path / "q4.json"
    path.write_text(json.dumps({"q": Q4, "p": "3", "k": 4, "t": "7"}))
    assert main(["count", str(path)]) == 0
    assert main(["density", str(path)]) == 0
    assert builds.calls == 0

    assert main(["diagonalize", str(path)]) == 0
    assert builds.calls == 1
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])["u"]
    assert printed == [[str(v) for v in row] for row in prepare(Q4, pp).diag.u]

    form = prepare(Q4, pp)
    builds.calls = 0
    rng = random.Random(5)
    for t in (7, 9, 1, 7):
        assert sample_prepared(form, t, RepKind.ANY, rng) is not None
    forms = [prepare(Q4, f) for f in (PrimePower(2, 3), PrimePower(3, 2), PrimePower(13, 1))]
    for t in (14, 78):
        assert sample_factors(forms, t, RepKind.ANY, rng) is not None
    assert sample_form(Q4, pp, 7, RepKind.PRIMITIVE, rng) is not None
    assert main(["sample", str(path), "--seed", "3"]) == 0
    assert builds.calls == 0
