"""Selection of a lattice basis among the gamma columns and its dual basis.

The columns of a quadric system span the full lattice Z^r (the rows are
part of a basis of Z^n). We pick r column indices whose columns form a
basis, preferring trailing columns: candidates are scanned as combinations
of the reversed index list, and the first subset with |det| = 1 wins. The
dual basis vectors eps_i satisfy the exact Kronecker pairing
<eps_i, gamma[j_m]> = delta_im against the selected columns.

Trailing-column preference is deliberate: families built from blocks of
repeated columns conventionally end in coordinate vectors, and this rule
picks exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, InternalInvariantError, StructuralError
from .exactlinalg import IntMatrix, det, rational_rank, solve_rational
from .gale import QuadricSystem

__all__ = ["LatticeData", "lattice_data"]

CANDIDATE_CAP = math.comb(40, 20)


@dataclass(frozen=True)
class LatticeData:
    basis_columns: tuple[int, ...]  # 0-based, ascending
    basis: IntMatrix  # r x r; column m is gamma column basis_columns[m]
    dual_basis: tuple[tuple[Fraction, ...], ...]  # rows eps_1..eps_r


def _column_submatrix(q: QuadricSystem, cols: tuple[int, ...]) -> IntMatrix:
    return IntMatrix.from_rows(
        [[q.gamma.data[i][j] for j in cols] for i in range(q.r)], len(cols)
    )


def _find_basis_columns(q: QuadricSystem, cap: int) -> tuple[int, ...] | None:
    """First r-subset of column indices, in lexicographic order over the
    reversed index list, whose columns have |det| = 1.

    Equivalent to scanning combinations(reversed(range(n)), r) but prunes
    every branch whose chosen prefix is already linearly dependent (no
    completion of a dependent prefix can be unimodular), which turns the
    blocks of repeated columns common in families from a combinatorial
    explosion into a linear walk. A prefix is tested by rational_rank, a
    full subset by det alone. The cap counts visited nodes.
    """
    r, n = q.r, q.n
    reversed_indices = tuple(range(n - 1, -1, -1))
    columns = q.gamma.transpose().data
    examined = 0

    def descend(start: int, chosen: list[int]):
        nonlocal examined
        for pos in range(start, n - (r - len(chosen) - 1)):
            examined += 1
            if examined > cap:
                raise CapExceeded(
                    f"basis search examined more than {cap} column prefixes"
                )
            cand = chosen + [reversed_indices[pos]]
            rows = [columns[i] for i in cand]
            if len(cand) == r:
                if abs(det(rows)) == 1:
                    return tuple(sorted(cand))
            elif rational_rank(rows) == len(cand):
                found = descend(pos + 1, cand)
                if found is not None:
                    return found
        return None

    return descend(0, [])


def lattice_data(q: QuadricSystem, cap: int = CANDIDATE_CAP) -> LatticeData:
    """Choose basis columns (trailing-column preference) and their dual."""
    r = q.r
    chosen = _find_basis_columns(q, cap)
    if chosen is None:
        raise StructuralError(
            "no subset of gamma columns forms a lattice basis; generators are "
            "not aligned with single columns"
        )
    basis = _column_submatrix(q, chosen)
    bt = basis.transpose()
    dual = []
    for i in range(r):
        e_i = [1 if m == i else 0 for m in range(r)]
        eps = solve_rational(bt, e_i)
        assert eps is not None
        dual.append(eps)
    # exact Kronecker pairing against the selected columns
    for i in range(r):
        for m, j in enumerate(chosen):
            pair = sum(dual[i][t] * q.gamma.data[t][j] for t in range(r))
            if pair != (1 if i == m else 0):
                raise InternalInvariantError("dual basis pairing is not Kronecker")
    return LatticeData(chosen, basis, tuple(tuple(row) for row in dual))
