"""Dense matrix products mod q and the direct-sum matrix of blocks, the
referee of the diagonalization contract U'QU = D.  The library applies
its basis moves in place and needs none of these."""

from quadmod.blockdiag import BlockDiagForm, TypeI, check_symmetric
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


def block_matrix(blk) -> Matrix:
    """The matrix of one block: [[d]] for TypeI(d), and
    2^ell [[2a, b], [b, 2c]] for TypeII(ell, a, b, c)."""
    if isinstance(blk, TypeI):
        return [[blk.d]]
    s = 2**blk.ell
    return [[2 * s * blk.a, s * blk.b], [s * blk.b, 2 * s * blk.c]]


def blocks_to_matrix(bd) -> Matrix:
    """Direct-sum matrix of the blocks (accepts a BlockDiagForm or a block list)."""
    blocks = bd.blocks if isinstance(bd, BlockDiagForm) else bd
    n = sum(b.dim for b in blocks)
    out = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        m = block_matrix(b)
        for i in range(b.dim):
            for j in range(b.dim):
                out[pos + i][pos + j] = m[i][j]
        pos += b.dim
    return out
