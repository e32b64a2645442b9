"""Block diagonalization of symmetric matrices over Z/p^k.

Any symmetric Q is congruent, by a determinant-1 change of basis U
(so U'QU = D), to a direct sum of 1x1 blocks [d] and -- only for
p = 2 -- 2x2 blocks 2^ell * [[2a, b], [b, 2c]] with b odd.  Each step
takes a minimal-order pivot in the trailing block: its order is that of
the gcd of p^k and the block's entries, and it is the first diagonal
entry of that order, else the first one off the diagonal in row order.
The three basis moves: shear the other basis vectors against a
diagonal pivot; for odd p, add one basis vector into another to pull
an off-diagonal pivot onto the diagonal; for p = 2, keep the 2x2 pivot
whole and clear the rest of its two rows/columns with a Cramer solve.

Only the upper triangle of the trailing block (indices >= the pivot
position pos) is kept.  Shearing each basis vector c by a_c times the
pivot s changes the trailing entry (c, x) by a_c Q_sx + a_x Q_sc +
a_c a_x Q_ss, and as a_x Q_ss = -Q_sx mod p^k that is a_c Q_sx: row c
becomes row c + a_c * row s, one list comprehension over its upper
part.  The 2x2 pivot's shear is the same with two source rows.  A swap
or a pull reads the lower half of the two rows it moves, so it first
mirrors those two rows and columns.  A step costs O((n - pos)^2), and
the whole pass O(n^3).

The elimination does not build U: it records its moves, and
BlockDiagForm.u_times applies them to one vector, last move first.  A
draw pulls its block solution back that way, a count reads the blocks
only, and BlockDiagForm.u, built the first time it is read, is u_times
of the unit vectors.

Matrices are plain lists of lists of ints.  The input is reduced mod
p^k once; after that a row is reduced only when it becomes a pivot row
(a type I row once it has an entry to clear), and a block's entries as
the block is made.  The sweep, the swaps and the odd-p pull leave the
rows they change unreduced, so an entry grows to about twice the width
of p^k plus log n bits.  The pivot search reads entries only mod powers
of p and through gcds with p^k, which an unreduced entry gives the
same.
"""

from __future__ import annotations

from math import gcd

from .modring import DomainError, Frozen, PrimePower, _set

Matrix = list[list[int]]


class TypeI(Frozen):
    """1x1 block [d]."""

    __slots__ = _fields = ("d",)
    d: int

    def __init__(self, d: int) -> None:
        _set(self, "d", d)

    @property
    def dim(self) -> int:
        return 1


class TypeII(Frozen):
    """2x2 block 2^ell * [[2a, b], [b, 2c]] with b odd (p = 2 only)."""

    __slots__ = _fields = ("ell", "a", "b", "c")
    ell: int
    a: int
    b: int
    c: int

    def __init__(self, ell: int, a: int, b: int, c: int) -> None:
        if b % 2 == 0:
            raise DomainError("TypeII needs an odd b")
        _set(self, "ell", ell)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    @property
    def dim(self) -> int:
        return 2


Block = TypeI | TypeII

# One recorded basis move: (c, s, a) adds a times basis vector s to
# basis vector c; (i, j, None) exchanges basis vectors i and j and
# negates the new j, keeping det = +1.
Move = tuple[int, int, int | None]


class BlockDiagForm(Frozen):
    """The blocks of Q and the moves that reach them: u'Qu is the
    direct sum of the blocks mod p^k.  u_times applies u to one vector,
    and u is built from it the first time it is read."""

    __slots__ = ("blocks", "modulus", "moves", "_u")
    _fields = ("blocks", "modulus", "moves")
    blocks: tuple[Block, ...]
    modulus: PrimePower
    moves: tuple[Move, ...]

    def __init__(self, blocks: tuple[Block, ...], modulus: PrimePower, moves: tuple[Move, ...]) -> None:
        _set(self, "blocks", blocks)
        _set(self, "modulus", modulus)
        _set(self, "moves", moves)
        _set(self, "_u", None)

    @property
    def u(self) -> tuple[tuple[int, ...], ...]:
        """u mod q, built on its first read: column j is u_times(e_j)."""
        if self._u is None:
            n = sum(b.dim for b in self.blocks)
            cols = [self.u_times([int(i == j) for i in range(n)]) for j in range(n)]
            _set(self, "_u", tuple(zip(*cols)))
        return self._u

    def u_times(self, y: list[int]) -> tuple[int, ...]:
        """u y mod q, without building u.  u is the product of the
        moves' elementary matrices in order, so u y applies them to y
        last move first: a shear (c, s, a) adds a y[c] to y[s], and a
        swap (i, j) makes (y[i], y[j]) = (-y[j], y[i]).  A coordinate is
        reduced mod q when a shear reads it as the multiplier, and all of
        them once at the end."""
        q, y = self.modulus.q, list(y)
        for c, s, a in reversed(self.moves):
            if a is None:
                y[c], y[s] = -y[s], y[c]
            else:
                y[c] %= q
                y[s] += a * y[c]
        return tuple(v % q for v in y)


class AsymmetricEntry(DomainError):
    """The matrix differs from its transpose at entry (i, j), i > j."""

    def __init__(self, i: int, j: int):
        super().__init__(f"matrix not symmetric at ({i},{j})")
        self.i, self.j = i, j


def check_symmetric(q_mat: Matrix) -> int:
    """Validate a square symmetric matrix of ints, each of type int
    exactly (a float, Fraction or bool entry raises); return its
    dimension."""
    n = len(q_mat)
    for i, row in enumerate(q_mat):
        if len(row) != n:
            raise DomainError("matrix is not square")
        for j in range(i + 1):  # rows 0..i are n long
            a, b = row[j], q_mat[j][i]
            # an int object held in both places needs no second look
            if type(a) is not int or a is not b and (type(b) is not int or a != b):
                if type(a) is type(b) is int:
                    raise AsymmetricEntry(i, j)
                r, c, v = (i, j, a) if type(a) is not int else (j, i, b)
                raise DomainError(f"matrix entry ({r},{c}) is a {type(v).__name__}, not an int")
    return n


def integer_det(a: Matrix) -> int:
    """Exact determinant over Z by Bareiss's fraction-free elimination.
    After the step at pivot column c, entry (i, j) below and right of
    the pivot is the minor of a (its rows as swapped so far) on rows
    0..c, i and columns 0..c, j.  So each step's division by the
    previous pivot is exact, every entry stays an integer, and the last
    entry is the determinant.  A zero pivot is exchanged with a row
    below it, which negates the determinant; a column with none makes
    it 0."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top = m[col]
        pivot, right = top[col], top[col + 1 :]
        for row in m[col + 1 :]:
            f = row[col]
            row[col + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[col + 1 :], right)]
        prev = pivot
    return sign * m[-1][-1] if n else 1


def _pivot(m: Matrix, pp: PrimePower, pos: int) -> tuple[int, int, int]:
    """Minimal-order entry (i, j, ord) with pos <= i <= j: the first
    diagonal entry of that order, else the first off-diagonal one in
    row order.  The order is that of the gcd of p^k and the entries, k
    when they all vanish."""
    p, q, n = pp.p, pp.q, len(m)
    unit = next((i for i in range(pos, n) if m[i][i] % p), None)
    if unit is not None:
        return unit, unit, 0  # no entry beats the first diagonal unit
    g, first = q, pos  # least row gcd so far, and the first row with it
    for i in range(pos, n):
        g_row = gcd(q, *m[i][i:])
        if g_row < g:
            g, first = g_row, i
            if g == 1:
                break  # no diagonal unit: row i holds the pivot
    o, rest = 0, g
    while rest > 1:
        o, rest = o + 1, rest // p
    if o == pp.k:
        return pos, pos, o
    above = g * p  # entries of order o are those it does not divide
    diag = next((i for i in range(pos, n) if m[i][i] % above), None)
    if diag is not None:
        return diag, diag, o
    row = m[first]
    return first, next(j for j in range(first + 1, n) if row[j] % above), o


def _mirror(m: Matrix, pos: int, i: int) -> None:
    """Copy the upper-triangle entries of row and column i into their
    lower places, so both read in full over the indices >= pos."""
    row = m[i]
    for r in range(pos, i):
        row[r] = m[r][i]
    for r in range(i + 1, len(m)):
        m[r][i] = row[r]


def _swap(m: Matrix, moves: list[Move], pos: int, i: int, j: int) -> None:
    """Exchange basis vectors i, j >= pos, negating the new j to keep
    det = +1: on the columns and then the rows of m."""
    _mirror(m, pos, i)
    _mirror(m, pos, j)
    for row in m[pos:]:
        row[i], row[j] = row[j], -row[i]
    m[i], m[j] = m[j], [-x for x in m[i]]
    moves.append((i, j, None))


def block_diagonalize(q_mat: Matrix, pp: PrimePower) -> BlockDiagForm:
    """Deterministic block diagonalization over Z/p^k: check Q
    (check_symmetric), then eliminate."""
    check_symmetric(q_mat)
    return _eliminate(q_mat, pp)


def _eliminate(q_mat: Matrix, pp: PrimePower) -> BlockDiagForm:
    """block_diagonalize of a Q that check_symmetric has passed."""
    n = len(q_mat)
    p, k, q = pp.p, pp.k, pp.q
    m = [[x % q for x in row] for row in q_mat]
    moves: list[Move] = []
    blocks: list[Block] = []
    pos = 0
    while pos < n:
        i, j, o = _pivot(m, pp, pos)
        if o >= k:
            # remaining form is identically 0
            blocks.extend(TypeI(0) for _ in range(pos, n))
            break
        if i == j:
            if i != pos:
                _swap(m, moves, pos, pos, i)
            top = m[pos]
            scale, mod = p**o, p ** (k - o)
            inv_cop = 0  # the pivot's inverse, taken at the first entry to clear
            for c in range(pos + 1, n):
                if top[c] % q:
                    if not inv_cop:
                        top[pos:] = [x % q for x in top[pos:]]
                        inv_cop = pow(top[pos] // scale, -1, mod)
                    # top[c] has order >= o, so the quotient is exact
                    a = -((top[c] // scale) * inv_cop % mod)
                    moves.append((c, pos, a))
                    row = m[c]
                    row[c:] = [y + a * z for y, z in zip(row[c:], top[c:])]
            blocks.append(TypeI(top[pos] % q))
            pos += 1
        elif p != 2:
            # pull the off-diagonal minimum onto the diagonal:
            # basis vector i += basis vector j makes entry (i,i) =
            # Q_ii + 2 Q_ij + Q_jj, whose order is exactly o (2 Q_ij
            # dominates; diagonals are strictly deeper or they would
            # have been preferred)
            _mirror(m, pos, i)
            _mirror(m, pos, j)
            for row in m[pos:]:
                row[i] += row[j]
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            moves.append((i, j, 1))
            # re-run selection; the pivot is now diagonal
        else:
            # p = 2: the 2x2 pivot stays; move it to (pos, pos+1)
            if i != pos:
                _swap(m, moves, pos, pos, i)
            if j != pos + 1:
                _swap(m, moves, pos, pos + 1, j)
            top, second = m[pos], m[pos + 1]
            top[pos:] = [x % q for x in top[pos:]]
            second[pos:] = [x % q for x in second[pos:]]
            scale, mod = 2**o, 2 ** (k - o)
            two_a = top[pos] // scale  # even: diagonal order > o
            b = top[pos + 1] // scale  # odd: order exactly o
            two_c = second[pos + 1] // scale
            det_inv = 0  # the block's inverse determinant, taken at the first entries to clear
            for c in range(pos + 2, n):
                # (r, s) solves the pivot block against (d, e) mod 2^(k-o): 0 just where they are
                d, e = top[c] // scale, second[c] // scale
                if d or e:
                    det_inv = det_inv or pow((two_a * two_c - b * b) % mod, -1, mod)
                    r = (two_c * d - b * e) * det_inv % mod
                    s = (two_a * e - b * d) * det_inv % mod
                    moves += [(c, pos, -r), (c, pos + 1, -s)]
                    row = m[c]
                    row[c:] = [y - r * z - s * w for y, z, w in zip(row[c:], top[c:], second[c:])]
            blocks.append(TypeII(o, top[pos] // (2 * scale), b, second[pos + 1] // (2 * scale)))
            pos += 2
    return BlockDiagForm(tuple(blocks), pp, tuple(moves))
