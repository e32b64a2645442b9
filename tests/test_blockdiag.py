import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_helpers import apply_transform, mat_mul
from quadmod.blockdiag import (
    TypeI,
    TypeII,
    block_diagonalize,
    blocks_to_matrix,
    check_symmetric,
    integer_det,
    mat_vec,
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


def test_matrix_helpers():
    q = 7
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [0, 1]]
    assert mat_mul(a, b, q) == [[5, 1], [1, 1]]
    assert mat_vec(a, [1, 1], q) == [3, 0]


def test_type2_matrix_scaling():
    blk = TypeII(1, 1, 3, 0)
    assert blk.matrix() == [[4, 6], [6, 0]]
    with pytest.raises(DomainError):
        TypeII(0, 1, 2, 1)  # middle coefficient must be odd


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
    [(n, p, k) for n in (12, 24, 40) for p, k in ((2, 6), (3, 4), (P127, 2))] + [(64, 3, 4)],
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
