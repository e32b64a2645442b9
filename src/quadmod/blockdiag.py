"""Block diagonalization of symmetric matrices over Z/p^k.

Any symmetric Q is congruent, by a determinant-1 change of basis U
(so U'QU = D), to a direct sum of 1x1 blocks [d] and -- only for
p = 2 -- 2x2 blocks 2^ell * [[2a, b], [b, 2c]] with b odd.  The three
basis moves: shear columns against a minimal-order diagonal pivot;
for odd p, add one column into another to pull a minimal-order
off-diagonal entry onto the diagonal; for p = 2, keep the 2x2 pivot
whole and clear the rest of its two rows/columns with a Cramer solve.

Each move (a swap, or column c += a * column s) is applied in place:
to the columns of U, and to the working matrix as column and then row
operations on indices >= pos only, since the rows and columns before
the current pivot position pos are already split off and are zero
against everything after it.  A move costs O(n * (n - pos)), so the
whole pass is O(n^3).

Matrices are plain lists of lists of ints, reduced mod p^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .modring import DomainError, PrimePower, valuation

Matrix = list[list[int]]


@dataclass(frozen=True)
class TypeI:
    """1x1 block [d]."""

    d: int

    @property
    def dim(self) -> int:
        return 1

    def matrix(self) -> Matrix:
        return [[self.d]]


@dataclass(frozen=True)
class TypeII:
    """2x2 block 2^ell * [[2a, b], [b, 2c]] with b odd (p = 2 only)."""

    ell: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.b % 2 == 0:
            raise DomainError(f"TypeII needs odd b, got {self.b}")

    @property
    def dim(self) -> int:
        return 2

    def matrix(self) -> Matrix:
        s = 2**self.ell
        return [[2 * s * self.a, s * self.b], [s * self.b, 2 * s * self.c]]


Block = TypeI | TypeII


@dataclass(frozen=True)
class BlockDiagForm:
    """blocks with the basis change u: u'Qu = direct sum of blocks mod p^k."""

    blocks: tuple[Block, ...]
    u: tuple[tuple[int, ...], ...]
    modulus: PrimePower


class AsymmetricEntry(DomainError):
    """The matrix differs from its transpose at entry (i, j), i > j."""

    def __init__(self, i: int, j: int):
        super().__init__(f"matrix not symmetric at ({i},{j})")
        self.i, self.j = i, j


def check_symmetric(q_mat: Matrix) -> int:
    """Validate a square symmetric matrix; return its dimension."""
    n = len(q_mat)
    if any(len(row) != n for row in q_mat):
        raise DomainError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if q_mat[i][j] != q_mat[j][i]:
                raise AsymmetricEntry(i, j)
    return n


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, v: list[int], q: int) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) % q for row in a]


def integer_det(a: Matrix) -> int:
    """Exact determinant over Z (fraction-free via Fractions; n is small)."""
    n = len(a)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    assert det.denominator == 1
    return int(det)


def blocks_to_matrix(bd) -> Matrix:
    """Direct-sum matrix of the blocks (accepts a BlockDiagForm or a block list)."""
    blocks = bd.blocks if isinstance(bd, BlockDiagForm) else bd
    n = sum(b.dim for b in blocks)
    out = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        m = b.matrix()
        for i in range(b.dim):
            for j in range(b.dim):
                out[pos + i][pos + j] = m[i][j]
        pos += b.dim
    return out


def _entry_order(pp: PrimePower, x: int) -> int:
    """p-order of x as a ring element, clamped to k for x = 0 mod p^k."""
    r = x % pp.q
    if r == 0:
        return pp.k
    return valuation(pp, r).ord


def _min_order_entry(m: Matrix, pp: PrimePower, pos: int) -> tuple[int, int, int]:
    """Minimal-order entry (i, j, ord) with pos <= i <= j, diagonal preferred."""
    n = len(m)
    unit = next((i for i in range(pos, n) if m[i][i] % pp.p), None)
    if unit is not None:
        return unit, unit, 0  # no key beats the first diagonal unit
    best = None
    for i in range(pos, n):
        for j in range(i, n):
            key = (_entry_order(pp, m[i][j]), 0 if i == j else 1, i, j)
            if best is None or key < best:
                best = key
    o, _, i, j = best
    return i, j, o


def _swap(m: Matrix, u: Matrix, pos: int, i: int, j: int, q: int) -> None:
    """Exchange basis vectors i, j >= pos, negating the new j to keep
    det = +1: on the columns of u, then the columns and rows of m."""
    for row in chain(u, m[pos:]):
        row[i], row[j] = row[j], -row[i] % q
    m[i], m[j] = m[j], [-x % q for x in m[i]]


def _add_columns(m: Matrix, u: Matrix, pos: int, moves: list[tuple[int, int, int]], q: int) -> None:
    """Change basis by column c += a * column s for each (c, s, a) in
    moves, where no target c is also a source s: on the columns of u,
    then the columns and rows of m with indices >= pos."""
    for row in chain(u, m[pos:]):
        for c, s, a in moves:
            row[c] = (row[c] + a * row[s]) % q
    for c, s, a in moves:
        row, src = m[c], m[s]
        for x in range(pos, len(row)):
            row[x] = (row[x] + a * src[x]) % q


def block_diagonalize(q_mat: Matrix, pp: PrimePower) -> BlockDiagForm:
    """Deterministic block diagonalization over Z/p^k."""
    n = check_symmetric(q_mat)
    p, k, q = pp.p, pp.k, pp.q
    m = [[x % q for x in row] for row in q_mat]
    u = identity(n)
    blocks: list[Block] = []
    pos = 0
    while pos < n:
        i, j, o = _min_order_entry(m, pp, pos)
        if o >= k:
            # remaining form is identically 0
            blocks.extend(TypeI(0) for _ in range(pos, n))
            pos = n
            break
        if i == j:
            if i != pos:
                _swap(m, u, pos, pos, i, q)
            piv = m[pos][pos]
            cop = piv // p**o
            inv_cop = pow(cop, -1, p ** (k - o))
            shear = []
            for col in range(pos + 1, n):
                x = m[pos][col]
                if x:
                    # x has order >= o, so the quotient below is exact
                    shear.append((col, pos, -((x // p**o) * inv_cop % p ** (k - o))))
            _add_columns(m, u, pos, shear, q)
            blocks.append(TypeI(m[pos][pos]))
            pos += 1
        elif p != 2:
            # pull the off-diagonal minimum onto the diagonal:
            # col_i += col_j makes entry (i,i) = Q_ii + 2 Q_ij + Q_jj,
            # whose order is exactly o (2 Q_ij dominates; diagonals are
            # strictly deeper or they would have been preferred).
            _add_columns(m, u, pos, [(i, j, 1)], q)
            # re-run selection; the pivot is now diagonal
        else:
            # p = 2: the 2x2 pivot stays; move it to (pos, pos+1)
            if i != pos:
                _swap(m, u, pos, pos, i, q)
            if j != pos + 1:
                _swap(m, u, pos, pos + 1, j, q)
            ell = o
            scale = 2**ell
            two_a = m[pos][pos] // scale  # even: diagonal order > ell
            b = m[pos][pos + 1] // scale  # odd: order exactly ell
            two_c = m[pos + 1][pos + 1] // scale
            det = (two_a * two_c - b * b) % 2 ** (k - ell)
            det_inv = pow(det, -1, 2 ** (k - ell))
            shear = []
            for col in range(pos + 2, n):
                d_m = m[pos][col] // scale
                e_m = m[pos + 1][col] // scale
                r = (two_c * d_m - b * e_m) * det_inv % 2 ** (k - ell)
                s_ = (two_a * e_m - b * d_m) * det_inv % 2 ** (k - ell)
                shear += [(col, pos, -r), (col, pos + 1, -s_)]
            _add_columns(m, u, pos, shear, q)
            blocks.append(
                TypeII(
                    ell,
                    m[pos][pos] // (2 * scale),
                    m[pos][pos + 1] // scale,
                    m[pos + 1][pos + 1] // (2 * scale),
                )
            )
            pos += 2
    return BlockDiagForm(tuple(blocks), tuple(tuple(row) for row in u), pp)
