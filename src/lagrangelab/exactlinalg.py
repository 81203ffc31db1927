"""Exact integer and rational linear algebra.

Everything here is exact: integer matrices use Python ints, rational results
use fractions.Fraction. No floating point enters any verdict computed from
these routines.

det, rational_rank and solve_rational share one fraction-free (Bareiss)
elimination over the integers; Fractions appear only at the API boundary,
in scaled input rows and in solve_rational's result. Its integer form,
_solve_augmented (numerators over one positive denominator), is also what
polytope.enumerate_vertices solves with.

Conventions:
  * matrices are row-major IntMatrix values (immutable),
  * hnf() is a row-style Hermite normal form: pivots positive, entries above
    each pivot reduced into [0, pivot),
  * snf() is Smith normal form with a nonnegative divisibility chain,
  * integer_kernel(M) returns a basis (as rows) of {x in Z^cols : M x = 0},
    saturated and HNF-canonical.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "hnf",
    "snf",
    "integer_kernel",
    "solve_rational",
    "lattice_index",
    "rational_rank",
    "det",
    "mat_mul",
    "mat_vec",
    "identity",
    "is_unimodular",
    "gcd_list",
]

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix.

    `cols` is stored explicitly so that matrices with zero rows (e.g. the
    kernel of an injective map) still know their width.
    """

    data: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows in IntMatrix")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"IntMatrix entries must be int, got {x!r}")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer width of an empty matrix; pass cols")
            cols = len(data[0])
        return IntMatrix(data, cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "IntMatrix":
        if not self.data:  # transpose of 0 x n is n x 0
            return IntMatrix(tuple(() for _ in range(self.cols)), 0)
        return IntMatrix(tuple(zip(*self.data)), self.rows)

    def __str__(self) -> str:  # compact, for diagnostics
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.data) + "]"


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bt = b.transpose().data
    out = tuple(
        tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a.data
    )
    return IntMatrix(out, b.cols)


def mat_vec(a: IntMatrix, v: Sequence[int | Fraction]) -> Vec:
    if a.cols != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in a.data)


def gcd_list(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U @ m == H, H upper-echelon with
    positive pivots and entries above each pivot reduced into [0, pivot).
    H has the same shape as m (zero rows trail).
    """
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        live = [i for i in range(r, nrows) if a[i][c] != 0]
        if not live:
            continue
        # Euclidean reduction among the live rows until one pivot survives.
        while len(live) > 1:
            live.sort(key=lambda i: abs(a[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = a[i][c] // a[i0][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
                u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
            live = [i for i in live if a[i][c] != 0]
        i0 = live[0]
        a[r], a[i0] = a[i0], a[r]
        u[r], u[i0] = u[i0], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p  # floor division leaves a remainder in [0, p)
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    h = IntMatrix(tuple(tuple(row) for row in a), ncols)
    uu = IntMatrix(tuple(tuple(row) for row in u), nrows)
    return h, uu


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, U, V) with U @ m @ V == D.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; U and V are
    unimodular. Pivots are chosen as the smallest nonzero |entry| of the
    remaining submatrix.
    """
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row_dst -= q * row_src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):  # col_dst -= q * col_src
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(nrows, ncols):
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t; restart if a smaller remainder appears
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # enforce divisibility: d_t must divide every later entry
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    offender = j
                    break
            if offender is not None:
                break
        if offender is not None:
            add_col(t, offender, -1)  # mix the offending column in and redo
            continue
        t += 1
    d = IntMatrix(tuple(tuple(row) for row in a), ncols)
    uu = IntMatrix(tuple(tuple(row) for row in u), nrows)
    vv = IntMatrix(tuple(tuple(row) for row in v), ncols)
    return d, uu, vv


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """HNF-canonical basis, as rows, of {x in Z^cols : m @ x = 0}.

    The returned lattice is saturated: any integer vector killed by m is an
    integer combination of the rows.
    """
    if m.rows == 0:
        return identity(m.cols)
    h, u = hnf(m.transpose())
    zero_rows = [i for i in range(h.rows) if all(x == 0 for x in h.data[i])]
    basis = [u.data[i] for i in zero_rows]
    if not basis:
        return IntMatrix((), m.cols)
    hh, _ = hnf(IntMatrix.from_rows(basis, m.cols))
    nonzero = [row for row in hh.data if any(x != 0 for x in row)]
    return IntMatrix.from_rows(nonzero, m.cols) if nonzero else IntMatrix((), m.cols)


def _echelon(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Least-index pivot columns, first usable row swapped up, columns without
    a pivot skipped. Each entry is a minor of the input, so the division by
    the previous pivot is exact. Returns the pivot columns (pivot k in row
    k) and the row-swap sign."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        # entries left of c are zero in rows r.., and column c cancels
        for i in range(r + 1, nrows):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
    return pivots, sign


def _scaled_rows(m: IntMatrix | Sequence[Sequence[int | Fraction]]) -> list[list[int]]:
    """Integer rows, each scaled by the lcm of its denominators."""
    out = []
    for row in m.data if isinstance(m, IntMatrix) else m:
        den = math.lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def rational_rank(m: IntMatrix | Sequence[Sequence[int | Fraction]]) -> int:
    return len(_echelon(_scaled_rows(m))[0])


def det(m: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(operator.index, row)) for row in (m.data if isinstance(m, IntMatrix) else m)]
    n = len(a)
    if any(len(row) != n for row in a) or isinstance(m, IntMatrix) and m.cols != n:
        raise ValueError("det needs a square matrix")
    pivots, sign = _echelon(a)
    if len(pivots) < n:
        return 0
    return sign * a[-1][-1] if n else 1


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(det(m)) == 1


def solve_rational(
    m: IntMatrix | Sequence[Sequence[int | Fraction]],
    v: Sequence[int | Fraction],
) -> Vec | None:
    """One exact solution of m @ x = v, or None if inconsistent.

    Pivoting is least-index (columns left to right, first usable row), and
    free variables are set to 0, so the particular solution is deterministic.
    """
    rows = m.data if isinstance(m, IntMatrix) else m
    if len(v) != len(rows):
        raise ValueError("rhs length mismatch")
    solved = _solve_augmented(_scaled_rows([(*row, b) for row, b in zip(rows, v)]))
    if solved is None:
        return None
    y, d, _ = solved
    return tuple(Fraction(t, d) for t in y)


def _solve_augmented(a: list[list[int]]) -> tuple[list[int], int, int] | None:
    """Solve the integer augmented rows [m | v] (eliminated in place).

    Returns (y, d, rank) with d > 0 and m @ (y / d) == v, pivoting as in
    solve_rational, or None if the system is inconsistent.
    """
    ncols = len(a[0]) - 1 if a else 0
    pivots, _ = _echelon(a)
    if pivots and pivots[-1] == ncols:
        return None  # a pivot in the right-hand side: rank [m|v] > rank m
    # numerators over the last pivot d, which makes d * x integral (Cramer)
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * ncols
    for k, c in reversed(list(enumerate(pivots))):
        y[c] = (d * a[k][ncols] - sum(a[k][j] * y[j] for j in pivots[k + 1:])) // a[k][c]
    if d < 0:
        d, y = -d, [-t for t in y]
    return y, d, len(pivots)


def _coordinates_in(basis_rows: list[tuple[int, ...]], pivcols: list[int],
                    vec: Sequence[int]) -> list[Fraction] | None:
    """Coordinates of vec in an HNF row basis, or None if not in the Q-span.

    Integrality of the coordinates is NOT checked here.
    """
    rem = [Fraction(x) for x in vec]
    coords: list[Fraction] = []
    for row, pc in zip(basis_rows, pivcols):
        c = rem[pc] / row[pc]
        coords.append(c)
        if c:
            rem = [x - c * y for x, y in zip(rem, row)]
    if any(x != 0 for x in rem):
        return None
    return coords


def lattice_index(sub: IntMatrix, full: IntMatrix) -> int | None:
    """Index of the lattice spanned by sub's rows inside the one spanned by
    full's rows.

    Returns None when the index is infinite (sub spans a lower-rank
    sublattice). Raises ValueError if some row of sub is not in the full
    lattice at all.
    """
    if sub.cols != full.cols:
        raise ValueError("ambient dimension mismatch")
    hf, _ = hnf(full)
    basis_rows = [row for row in hf.data if any(x != 0 for x in row)]
    pivcols = [next(j for j, x in enumerate(row) if x != 0) for row in basis_rows]
    rank_full = len(basis_rows)
    coord_rows: list[list[int]] = []
    for srow in sub.data:
        coords = _coordinates_in(basis_rows, pivcols, srow)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise ValueError(f"row {srow} is not in the full lattice")
        coord_rows.append([int(c) for c in coords])
    if rank_full == 0:
        return 1
    cmat = IntMatrix.from_rows(coord_rows, rank_full) if coord_rows else IntMatrix((), rank_full)
    if rational_rank(cmat) < rank_full:
        return None
    d, _, _ = snf(cmat)
    idx = 1
    for t in range(rank_full):
        idx *= d.data[t][t]
    return idx
