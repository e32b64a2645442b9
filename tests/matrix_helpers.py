"""Dense matrix products mod q, the referee of the diagonalization
contract U'QU = D.  The library applies its basis moves in place and
needs none of these."""

from quadmod.blockdiag import check_symmetric
from quadmod.modring import DomainError, PrimePower

Matrix = list[list[int]]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for j in range(m):
            out[i][j] = sum(ai[r] * b[r][j] for r in range(inner)) % q
    return out


def apply_transform(q_mat: Matrix, u: Matrix, pp: PrimePower) -> Matrix:
    """u'Qu reduced mod p^k."""
    n = check_symmetric(q_mat)
    if len(u) != n or any(len(row) != n for row in u):
        raise DomainError("transform dimensions do not match the form")
    u = [list(map(int, row)) for row in u]
    return mat_mul(transpose(u), mat_mul(q_mat, u, pp.q), pp.q)
