import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadmod.symbols
from quadmod.modring import INF, DomainError, PrimePower, legendre
from quadmod.sampling import sample_split, sample_symbol_elem
from quadmod.symbols import (
    PkSymbol,
    SymbolLayout,
    class_size,
    enumerate_symbols,
    split_class_size,
    split_pair_count_mod_p,
    symbol_of,
)

PPS = [PrimePower(p, k) for p, kmax in ((2, 5), (3, 3), (5, 2), (7, 2)) for k in range(1, kmax + 1)]


def test_symbol_of_examples():
    assert symbol_of(PrimePower(5, 2), 4) == (0, 1)
    assert symbol_of(PrimePower(2, 4), 12) == (2, 3)
    assert symbol_of(PrimePower(3, 2), 0) == (INF, 0)
    assert symbol_of(PrimePower(5, 3), 50) == (2, -1)


def test_class_size_examples():
    assert class_size(PrimePower(2, 4), PkSymbol(0, 1)) == 2
    assert class_size(PrimePower(5, 2), PkSymbol(1, 1)) == 2
    assert class_size(PrimePower(3, 1), PkSymbol(0, -1)) == 1
    assert class_size(PrimePower(3, 2), PkSymbol(INF, 0)) == 1
    # formal two-adic symbols near the top order can be empty
    assert class_size(PrimePower(2, 3), PkSymbol(2, 3)) == 0
    assert class_size(PrimePower(2, 3), PkSymbol(2, 1)) == 1


def test_enumerate_symbols_counts():
    got = enumerate_symbols(PrimePower(3, 2))
    assert got == [(INF, 0), (0, 1), (0, -1), (1, 1), (1, -1)]
    assert len(enumerate_symbols(PrimePower(2, 1))) == 5
    assert len(enumerate_symbols(PrimePower(2, 4))) == 17
    assert len(enumerate_symbols(PrimePower(7, 3))) == 7


@pytest.mark.parametrize("pp", PPS, ids=str)
def test_partition_and_membership(pp):
    # symbols partition Z/p^k, and class_size counts each class exactly
    sizes = {g: class_size(pp, g) for g in enumerate_symbols(pp)}
    assert sum(sizes.values()) == pp.q
    seen = {g: 0 for g in sizes}
    for t in range(pp.q):
        seen[symbol_of(pp, t)] += 1
    assert seen == sizes


def test_split_pair_count_examples():
    assert split_pair_count_mod_p(13, 1, 1, 1) == 2
    assert split_pair_count_mod_p(7, 1, 1, -1) == 2
    assert split_pair_count_mod_p(5, 1, 1, 1) == 0


def test_split_pair_count_brute():
    for p in (3, 5, 7, 11, 13, 17):
        sq = {x * x % p for x in range(1, p)}
        for a in (1, next(iter(set(range(1, p)) - sq))) if len(sq) < p - 1 else (1,):
            leg_a = 1 if a in sq else -1
            for s1 in (1, -1):
                for s2 in (1, -1):
                    want = sum(
                        1
                        for x in range(1, p)
                        if (x + a) % p != 0
                        and (1 if x in sq else -1) == s1
                        and (1 if (x + a) % p in sq else -1) == s2
                    )
                    assert split_pair_count_mod_p(p, leg_a, s1, s2) == want, (p, a, s1, s2)


def test_split_class_size_examples():
    assert split_class_size(PrimePower(5, 1), PkSymbol(0, 1), PkSymbol(0, -1), PkSymbol(0, -1)) == 1
    zero = PkSymbol(INF, 0)
    assert split_class_size(PrimePower(7, 2), zero, zero, zero) == 1
    for k in (1, 2, 3):
        # equal finite orders never split over the 2-adics
        assert split_class_size(PrimePower(2, k), PkSymbol(0, 1), PkSymbol(0, 1), PkSymbol(0, 1)) == 0


@pytest.mark.parametrize("pp", [PrimePower(2, 3), PrimePower(3, 2), PrimePower(5, 1), PrimePower(7, 1)], ids=str)
def test_split_class_size_brute(pp):
    syms = enumerate_symbols(pp)
    table = [symbol_of(pp, t) for t in range(pp.q)]
    for t in range(pp.q):
        g = table[t]
        for g1 in syms:
            for g2 in syms:
                want = sum(1 for a in range(pp.q) if table[a] == g1 and table[(t - a) % pp.q] == g2)
                assert split_class_size(pp, g, g1, g2) == want, (pp, t, g1, g2)


@pytest.mark.parametrize("pp", PPS, ids=str)
def test_split_completeness(pp):
    # for every t, the split sizes over all symbol pairs sum to p^k
    syms = enumerate_symbols(pp)
    for t in range(pp.q):
        g = symbol_of(pp, t)
        total = sum(split_class_size(pp, g, g1, g2) for g1 in syms for g2 in syms)
        assert total == pp.q, (pp, t)


def test_malformed_symbols_rejected():
    pp = PrimePower(5, 2)
    with pytest.raises(DomainError):
        class_size(pp, PkSymbol(0, 3))  # odd-p signs are +-1
    with pytest.raises(DomainError):
        class_size(pp, PkSymbol(2, 1))  # order must stay below k
    with pytest.raises(DomainError):
        class_size(PrimePower(2, 3), PkSymbol(0, 2))


@given(st.sampled_from(PPS), st.data())
@settings(max_examples=150)
def test_symbol_constant_on_unit_square_orbits(pp, data):
    t = data.draw(st.integers(min_value=0, max_value=pp.q - 1))
    u = data.draw(st.integers(min_value=1, max_value=pp.q - 1))
    if u % pp.p == 0:
        u += 1
    assert symbol_of(pp, t * u * u) == symbol_of(pp, t)


def dense_split_size(pp, g, g1, g2):
    """Reference split size of one (g; g1, g2) triple, from the order
    case analysis with no knowledge of which triples are non-zero."""
    p, k = pp.p, pp.k

    def diff(g, h):  # symbol of t - a, ord(t) != ord(a)
        o = min(g.ord, h.ord)
        if p != 2:
            return PkSymbol(o, g.sgn if g.ord < h.ord else legendre(-1, p) * h.sgn)
        lead = g.sgn - 2 ** (h.ord - o) * h.sgn if g.ord < h.ord else 2 ** (g.ord - o) * g.sgn - h.sgn
        return PkSymbol(o, lead % min(8, 2 ** (k - o)))

    if class_size(pp, g) == 0:
        return 0
    if g.ord == INF:
        if g1.ord == INF or g2.ord == INF:
            return 1 if g1.ord == g2.ord == INF else 0
        neg = PkSymbol(g1.ord, legendre(-1, p) * g1.sgn if p != 2 else (2 ** (k - g1.ord) - g1.sgn) % 8)
        return class_size(pp, g1) if g2 == neg else 0
    if g1.ord == INF or g2.ord == INF:
        return 1 if {g1, g2} == {g, PkSymbol(INF, 0)} else 0
    if g.ord == g1.ord == g2.ord:
        return 0 if p == 2 else split_pair_count_mod_p(p, g1.sgn, g2.sgn, g.sgn) * p ** (k - g.ord - 1)
    if g.ord == g1.ord:
        g1, g2 = g2, g1
    return class_size(pp, g1) if diff(g, g1) == g2 else 0


P127 = 85070591730234615865843651857942052973
PARTNER_GRID = [
    PrimePower(p, k)
    for p, kmax in ((2, 8), (3, 6), (5, 4), (7, 3), (13, 3), (P127, 3))
    for k in range(1, kmax + 1)
]


@pytest.mark.parametrize("pp", [pp for pp in PARTNER_GRID if pp.q <= 256], ids=str)
def test_dense_reference_matches_brute_force(pp):
    syms = enumerate_symbols(pp)
    table = [symbol_of(pp, t) for t in range(pp.q)]
    for g in set(table):
        t = table.index(g)
        for g1 in syms:
            for g2 in syms:
                want = sum(1 for a in range(pp.q) if table[a] == g1 and table[(t - a) % pp.q] == g2)
                assert dense_split_size(pp, g, g1, g2) == want, (pp, g, g1, g2)


def partner_symbols(layout, g, g1):
    """SymbolLayout.partners at the inhabited symbols (g, g1), read back
    as (g2, size) by layout.symbol."""
    return [(layout.symbol(i2), size) for i2, size in layout.partners(layout.index(g), layout.index(g1))]


@pytest.mark.parametrize("pp", PARTNER_GRID, ids=str)
def test_split_partners_equal_dense_filter(pp):
    # the sparse list is exactly the dense row with its zeros dropped,
    # in enumerate_symbols order, and lists only inhabited symbols; an
    # empty target or first-summand class, which the layout does not
    # number, has an all-zero row
    syms = enumerate_symbols(pp)
    layout = SymbolLayout(pp)
    for g in syms:
        for g1 in syms:
            want = [(g2, s) for g2 in syms if (s := dense_split_size(pp, g, g1, g2))]
            if class_size(pp, g) and class_size(pp, g1):
                assert partner_symbols(layout, g, g1) == want, (pp, g, g1)
            else:
                assert want == [], (pp, g, g1)
            assert all(class_size(pp, g2) > 0 for g2, _ in want)
            for g2 in syms:
                assert split_class_size(pp, g, g1, g2) == dict(want).get(g2, 0)


def symbol_rep(pp, g):
    """The least p^ord * u of symbol g with u a small positive integer."""
    u = next(u for u in range(1, 8 * pp.p) if symbol_of(pp, pp.p**g.ord * u) == g)
    return pp.p**g.ord * u


P127 = 2**127 - 1
LAYOUT_GRID = [PrimePower(2, k) for k in (*range(1, 13), 60)] + [
    PrimePower(p, k) for p in (3, 5, 7, 13, P127) for k in (*range(1, 7), 60)
]


@pytest.mark.parametrize("pp", LAYOUT_GRID, ids=lambda pp: f"{pp.p if pp.p < 100 else 'P127'}^{pp.k}")
def test_layout_rule_matches_the_symbol_functions(pp):
    # positions, per-order sizes, signs and negations come from the
    # layout's one position rule; each is checked against the per-symbol
    # functions
    layout = SymbolLayout(pp)
    inhabited = [g for g in enumerate_symbols(pp) if class_size(pp, g) > 0]
    assert [layout.symbol(i) for i in range(len(layout))] == inhabited
    for i, g in enumerate(inhabited):
        assert layout.index(layout.symbol(i)) == i
        assert layout.size[layout.ords[i]] == class_size(pp, g)
        assert (layout.ords[i], layout.sgns[i]) == ((pp.k, 0) if g.ord == INF else g)
        assert layout.symbol(layout.neg[i]) == symbol_of(pp, -symbol_rep(pp, g) if i else 0)
    # O(k) data: no symbol is stored, and no per-position big int
    lists = {name: v for name, v in vars(layout).items() if isinstance(v, list)}
    assert sorted(lists) == ["first", "neg", "ords", "sgns", "size"]
    assert len(layout.first) == len(layout.size) == pp.k + 1
    assert not [v for v in vars(layout).values() if isinstance(v, PkSymbol)]
    assert all(type(x) is int for v in lists.values() for x in v)
    for v in (layout.ords, layout.neg):
        assert len(v) == len(layout) and all(0 <= x < len(layout) for x in v)
    assert len(layout.sgns) == len(layout)


@pytest.mark.parametrize("pp", PARTNER_GRID, ids=str)
def test_split_partners_far_rules_and_near_cells(pp):
    # with o = ord(g) and G the gap, a cell whose g1 or g2 lies at least
    # G away from o has a partner and size fixed by the orders alone;
    # every other cell is a near cell, in order
    gap = 3 if pp.p == 2 else 1
    live = [g for g in enumerate_symbols(pp) if class_size(pp, g) > 0]
    zero = PkSymbol(INF, 0)

    def beyond(g2, o):
        return g2.ord == INF or g2.ord >= o + gap

    layout = SymbolLayout(pp)
    for g in live:
        for g1 in live:
            got = partner_symbols(layout, g, g1)
            size1 = class_size(pp, g1)
            if g1.ord == INF:
                assert got == [(g, 1)], (pp, g, g1)
            elif g.ord == INF or g1.ord <= g.ord - gap:
                negated = symbol_of(pp, -symbol_rep(pp, g1))
                assert got == [(negated, size1)], (pp, g, g1)
            elif g1.ord >= g.ord + gap:
                assert got == [(g, size1)], (pp, g, g1)
            else:
                far = [(g2, s) for g2, s in got if beyond(g2, g.ord)]
                above = [(g2, class_size(pp, g2)) for g2 in live if beyond(g2, g.ord)]
                assert far == (above if g1 == g else []), (pp, g, g1)
                assert above[0] == (zero, 1)
                near = [(g2, s) for g2, s in got if not beyond(g2, g.ord)]
                assert near == scan_near_partners(pp, g, g1), (pp, g, g1)


def scan_near_partners(pp, g, g1):
    """Reference near cells of finite, inhabited g and g1: the candidate
    scan over every formal symbol of the orders between ord(g) and
    ord(g) + G, each kept when its class is inhabited and the symbol of
    the difference of representatives is g1.  Difference symbols come
    from arithmetic on elements, not from the rule under test."""
    p, k, rep = pp.p, pp.k, symbol_rep(pp, g)
    if g1.ord != g.ord:
        return [(symbol_of(pp, rep - symbol_rep(pp, g1)), class_size(pp, g1))]
    out = []
    if p != 2:
        scale = p ** (k - g.ord - 1)
        for s2 in (1, -1):
            mod_p = split_pair_count_mod_p(p, g1.sgn, s2, g.sgn)
            if mod_p:
                out.append((PkSymbol(g.ord, s2), mod_p * scale))
    top = min(k, g.ord + (3 if p == 2 else 1))
    for g2 in enumerate_symbols(pp):
        if g.ord < g2.ord < top and class_size(pp, g2) and symbol_of(pp, rep - symbol_rep(pp, g2)) == g1:
            out.append((g2, class_size(pp, g2)))
    return out


NEAR_GRID = [PrimePower(p, k) for p, kmax in ((2, 12), (3, 6), (5, 6), (2**127 - 1, 6)) for k in range(1, kmax + 1)]


@pytest.mark.parametrize("pp", NEAR_GRID, ids=str)
def test_near_partners_closed_form_matches_candidate_scan(pp):
    # the near part of SymbolLayout.partners: its partners of finite
    # order below ord(g) + G
    gap = 3 if pp.p == 2 else 1
    layout = SymbolLayout(pp)
    finite = [g for g in enumerate_symbols(pp) if g.ord != INF and class_size(pp, g) > 0]
    for g in finite:
        for g1 in finite:
            near = [(g2, s) for g2, s in partner_symbols(layout, g, g1) if g2.ord < g.ord + gap]
            assert near == scan_near_partners(pp, g, g1), (g, g1)


def test_split_partners_validate_symbols():
    # split_class_size validates each of its three symbols
    pp = PrimePower(5, 2)
    with pytest.raises(DomainError, match="sign 3 invalid for p=5"):
        split_class_size(pp, PkSymbol(0, 3), PkSymbol(0, 1), PkSymbol(0, 1))
    with pytest.raises(DomainError, match="order 2 out of range for k=2"):
        split_class_size(pp, PkSymbol(0, 1), PkSymbol(2, 1), PkSymbol(0, 1))
    with pytest.raises(DomainError, match="order INF must carry sign 0"):
        split_class_size(pp, PkSymbol(0, 1), PkSymbol(0, 1), PkSymbol(INF, 1))
    # an order or sign past the interpreter's 4300-digit limit on int ->
    # str conversion raised a bare ValueError from the message; it is
    # named by its size, by every function that checks a symbol
    huge, rng = 10**5000, random.Random(0)
    for g, message in (
        (PkSymbol(huge, 1), "order of 16610 bits out of range for k=2"),
        (PkSymbol(-huge, 1), "order of 16610 bits out of range for k=2"),
        (PkSymbol(0, huge), "sign of 16610 bits invalid for p=5"),
        (PkSymbol(INF, huge), "order INF must carry sign 0, got sign of 16610 bits"),
    ):
        with pytest.raises(DomainError, match=message):
            split_class_size(pp, PkSymbol(0, 1), g, PkSymbol(0, 1))
        with pytest.raises(DomainError, match=message):
            sample_split(pp, 3, g, PkSymbol(0, 1), rng)
        with pytest.raises(DomainError, match=message):
            sample_symbol_elem(pp, g, rng)


def test_symbols_module_holds_no_caches():
    # nothing in the module may grow with the moduli it has seen
    assert not [name for name, value in vars(quadmod.symbols).items() if hasattr(value, "cache_info")]
