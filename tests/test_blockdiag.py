import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadmod.blockdiag
from matrix_helpers import apply_transform, block_matrix, blocks_to_matrix, mat_mul
from quadmod.blockdiag import (
    TypeI,
    TypeII,
    block_diagonalize,
    check_symmetric,
    integer_det,
)
from quadmod.modring import DomainError, PrimePower


def test_check_symmetric():
    assert check_symmetric([[1, 2], [2, 3]]) == 2
    with pytest.raises(DomainError):
        check_symmetric([[1, 2], [3, 1]])
    with pytest.raises(DomainError):
        check_symmetric([[1, 2]])


def test_integer_det():
    assert integer_det([[1, 2], [2, 1]]) == -3
    assert integer_det([[2]]) == 2
    assert integer_det([]) == 1
    assert integer_det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3


def test_integer_det_matches_sympy():
    # Bareiss's elimination against sympy, on random matrices, singular
    # ones, and ones whose leading minors vanish so a pivot needs a row swap
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240)
    for n in range(9):
        for _ in range(12):
            bound = 10 ** rng.choice((1, 3, 40))
            a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            cases = [a]
            if n >= 2:
                i, j, r = rng.sample(range(n), 2) + [rng.randrange(n)]
                c1, c2 = rng.randint(-9, 9), rng.randint(-9, 9)
                singular = [row[:] for row in a]
                singular[i] = [c1 * x + c2 * y for x, y in zip(a[j], a[r])] if r not in (i, j) else a[j][:]
                column = [row[:] for row in a]  # only the last row has a non-zero first entry
                for row in column[:-1]:
                    row[0] = 0
                minor = [row[:] for row in a]  # the leading 2 x 2 minor vanishes
                minor[1][:2] = [c1 * x for x in a[0][:2]]
                perm = rng.sample(range(n), n)
                permutation = [[bound * (perm[row] == col) for col in range(n)] for row in range(n)]
                cases += [singular, column, minor, permutation]
            for m in cases:
                assert integer_det(m) == sympy.Matrix(n, n, [x for row in m for x in row]).det(), m
    assert integer_det([[0, 0], [0, 5]]) == 0


def test_matrix_helpers():
    q = 7
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [0, 1]]
    assert mat_mul(a, b, q) == [[5, 1], [1, 1]]


def test_type2_matrix_scaling():
    blk = TypeII(1, 1, 3, 0)
    assert block_matrix(blk) == [[4, 6], [6, 0]]
    with pytest.raises(DomainError):
        TypeII(0, 1, 2, 1)  # middle coefficient must be odd


def copies(value):
    out = [copy.copy(value), copy.deepcopy(value)]
    return out + [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


def test_blocks_and_forms_are_immutable_values():
    pp = PrimePower(2, 5)
    bd = block_diagonalize([[0, 1, 0], [1, 0, 0], [0, 0, 3]], pp)
    u = bd.u
    assert bd.u is u  # built on the first read, then kept
    values = [
        (TypeI(3), (3,), "TypeI(d=3)"),
        (TypeII(0, 0, 1, 0), (0, 0, 1, 0), "TypeII(ell=0, a=0, b=1, c=0)"),
        (bd, (bd.blocks, pp, bd.moves), f"BlockDiagForm(blocks={bd.blocks!r}, modulus={pp!r}, moves={bd.moves!r})"),
    ]
    assert [type(b) for b in bd.blocks] == [TypeI, TypeII] and bd.moves
    for value, fields, text in values:
        assert repr(value) == text
        assert value != fields and value == type(value)(*fields) and hash(value) == hash(type(value)(*fields))
        for name in (*value._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        for other in copies(value):
            assert type(other) is type(value) and other == value and hash(other) == hash(value)
            assert repr(other) == text
    for other in copies(bd):
        assert other.u == u
    with pytest.raises(AttributeError):
        del bd.blocks
    with pytest.raises(DomainError):
        TypeII(0, 1, 2, 1)


def test_hyperbolic_plane_odd():
    # x y form splits into two squares over Z/5
    bd = block_diagonalize([[0, 1], [1, 0]], PrimePower(5, 1))
    assert bd.blocks == (TypeI(2), TypeI(2))
    assert bd.u == ((1, 2), (1, 3))


def test_hyperbolic_plane_two():
    bd = block_diagonalize([[0, 1], [1, 0]], PrimePower(2, 3))
    assert bd.blocks == (TypeII(0, 0, 1, 0),)
    assert bd.u == ((1, 0), (0, 1))


def test_already_diagonal():
    bd = block_diagonalize([[3, 0], [0, 10]], PrimePower(5, 2))
    assert bd.blocks == (TypeI(3), TypeI(10))


@pytest.mark.parametrize("pp", [PrimePower(2**127 - 1, 8), PrimePower(2, 12), PrimePower(3, 5)], ids=str)
def test_a_pivot_takes_its_inverse_only_to_clear_its_row(monkeypatch, pp):
    # a Jordan form has nothing to clear, so no pivot inverts its unit part
    # or, at p = 2, its block's determinant; a pivot with entries to clear
    # takes one inverse however many it clears
    inverses = []

    def counted(base, exp, mod=None):
        if exp == -1:
            inverses.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(quadmod.blockdiag, "pow", counted, raising=False)
    jordan = [TypeI(3), TypeI(5 * pp.p), TypeI(7 * pp.p**3)] + ([TypeII(1, 1, 1, 0)] if pp.p == 2 else [])
    moves = block_diagonalize(blocks_to_matrix(jordan), pp).moves
    assert inverses == [] and all(a is None for *_, a in moves), moves  # swaps only
    dense = [[2 * (i == j) + 4 * pp.p * (i != j) + 4 * (i + j == 1) for j in range(4)] for i in range(4)]
    type2 = [[2, 1, 2, 2], [1, 4, 2, 6], [2, 2, 6, 1], [2, 6, 1, 2]]  # two type II pivots at p = 2
    for q in [dense] + [type2] * (pp.p == 2):
        inverses.clear()
        form = block_diagonalize(q, pp)
        assert len(inverses) == len(form.blocks) - 1, (q, inverses, form.blocks)


def test_zero_form():
    bd = block_diagonalize([[0, 0], [0, 0]], PrimePower(3, 2))
    assert bd.blocks == (TypeI(0), TypeI(0))
    assert blocks_to_matrix(bd) == [[0, 0], [0, 0]]


@st.composite
def instances(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=4))
    pp = PrimePower(p, k)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_value=0, max_value=pp.q - 1))
            mat[i][j] = v
            mat[j][i] = v
    return pp, mat


@given(instances())
@settings(max_examples=200, deadline=None)
def test_block_diagonalize_contract(inst):
    pp, mat = inst
    n = len(mat)
    bd = block_diagonalize(mat, pp)
    u = [list(row) for row in bd.u]
    assert integer_det(u) % pp.q == 1
    assert apply_transform(mat, u, pp) == blocks_to_matrix(bd)
    assert sum(b.dim for b in bd.blocks) == n
    y = [(3 * i + 1) % pp.q for i in range(n)]
    assert list(bd.u_times(y)) == times(u, y, pp.q)
    for b in bd.blocks:
        if pp.p != 2:
            assert isinstance(b, TypeI)
        if isinstance(b, TypeII):
            assert b.b % 2 == 1
            assert 0 <= b.ell < pp.k


P127 = 2**127 - 1


def wide_forms(n, p, k):
    """Seeded n x n forms mod p^k with entries of every order: a full one,
    one whose last row and column repeat the first (singular), and one
    with a zero row and column.  At p = 2 the diagonal is even, so type
    II pivots occur."""
    rng = random.Random(f"wide {n} {p} {k}")
    q = p**k
    full = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randrange(q) * p ** rng.randrange(k) % q
            full[i][j] = full[j][i] = 2 * v % q if p == 2 and i == j else v
    repeated = [row[:] for row in full]
    for i in range(n):
        repeated[i][n - 1] = repeated[n - 1][i] = full[0][i]
    repeated[n - 1][n - 1] = full[0][0]
    zero = [row[:] for row in full]
    z = rng.randrange(n)
    for i in range(n):
        zero[i][z] = zero[z][i] = 0
    return [full, repeated, zero]


@pytest.mark.parametrize(
    "n, p, k",
    [(n, p, k) for n in (12, 24, 40) for p, k in ((2, 6), (3, 4), (P127, 2))]
    + [(64, p, k) for p, k in ((2, 6), (3, 4), (P127, 2))],
    ids=lambda v: "P127" if v == P127 else str(v),
)
def test_block_diagonalize_contract_wide(n, p, k):
    pp = PrimePower(p, k)
    for mat in wide_forms(n, p, k):
        bd = block_diagonalize(mat, pp)
        u = [list(row) for row in bd.u]
        assert integer_det(u) % pp.q == 1
        assert apply_transform(mat, u, pp) == blocks_to_matrix(bd)
        assert sum(b.dim for b in bd.blocks) == n
        assert all(b.b % 2 == 1 for b in bd.blocks if isinstance(b, TypeII))


def value(mat, y, q):
    """y'My mod q."""
    return sum(v * w for v, w in zip(y, times(mat, y, q))) % q


def times(u, y, q):
    """u y mod q, as a dense product."""
    return [row[0] for row in mat_mul(u, [[v] for v in y], q)]


@pytest.mark.parametrize(
    "n, p, k",
    [(n, p, k) for n in (4, 12, 24) for p, k in ((2, 6), (3, 4), (P127, 2))],
    ids=lambda v: "P127" if v == P127 else str(v),
)
def test_u_times_applies_the_moves_as_u(n, p, k):
    # a draw pulls its block solution back through the recorded moves
    # alone; both kinds of move must occur for the check to mean much.
    # u is built from u_times, so the pull-back is also checked without
    # u: Q(u_times(y)) = D(y) mod q, D the direct sum of the blocks
    pp = PrimePower(p, k)
    rng = random.Random(f"u_times {n} {p} {k}")
    kinds = set()
    for mat in wide_forms(n, p, k):
        bd = block_diagonalize(mat, pp)
        d = blocks_to_matrix(bd)
        kinds |= {a is None for _, _, a in bd.moves}
        for _ in range(3):
            y = [rng.randrange(pp.q) for _ in range(n)]
            x = list(bd.u_times(y))
            assert x == times(bd.u, y, pp.q)
            assert value(mat, x, pp.q) == value(d, y, pp.q)
    assert kinds == {True, False}
