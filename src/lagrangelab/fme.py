"""Exact Fourier-Motzkin elimination over the rationals.

Used for the two feasibility questions the pipeline needs answered exactly:
does A^T x + b >= 0 have a solution (nonemptiness), and does w with
w . gamma_j >= 1 for every column exist (boundedness of the dual polytope /
positivity normalization of a quadric system). Constraint rows are
(coeffs, rhs) meaning sum(coeffs[m] * y[m]) >= rhs. Each row is kept as the
primitive integer vector on its ray (rhs included), so positive multiples of
one halfspace are equal rows and elimination stays in integers.

Back-substitution is deterministic (midpoint of the surviving interval,
finite endpoint when one-sided, 0 when unconstrained), so callers can freeze
returned points in tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded

__all__ = ["feasible_point", "find_positive_functional"]

Row = tuple[tuple[int, ...], int]

DEFAULT_ROW_CAP = 50_000


def _normalize(coeffs: Sequence[int | Fraction], rhs: int | Fraction) -> Row:
    """The row times a positive factor that makes it a primitive integer
    vector, rhs included (an all-zero row stays zero)."""
    den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    row = [int(x * den) for x in (*coeffs, rhs)]
    g = math.gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return tuple(row[:-1]), row[-1]


def _clean(rows: list[Row]) -> list[Row] | None:
    """Drop duplicates and satisfied constant rows; None if some constant row
    is violated (0 >= rhs with rhs > 0)."""
    seen = set()
    out: list[Row] = []
    for coeffs, rhs in rows:
        if all(c == 0 for c in coeffs):
            if rhs > 0:
                return None
            continue
        key = (coeffs, rhs)
        if key not in seen:
            seen.add(key)
            out.append((coeffs, rhs))
    return out


def _eliminate(rows: list[Row], var: int, cap: int) -> list[Row] | None:
    pos = [r for r in rows if r[0][var] > 0]
    neg = [r for r in rows if r[0][var] < 0]
    zero = [r for r in rows if r[0][var] == 0]
    out = list(zero)
    for cp_row in pos:
        cp = cp_row[0][var]
        for cn_row in neg:
            cn = cn_row[0][var]
            # (-cn) * pos_row + cp * neg_row cancels y[var]
            coeffs = tuple(
                -cn * a + cp * b for a, b in zip(cp_row[0], cn_row[0])
            )
            rhs = -cn * cp_row[1] + cp * cn_row[1]
            out.append(_normalize(coeffs, rhs))
            if len(out) > cap:
                raise CapExceeded(
                    f"Fourier-Motzkin row cap {cap} exceeded while eliminating "
                    f"variable {var}"
                )
    return _clean(out)


def feasible_point(
    constraints: Sequence[tuple[Sequence[int | Fraction], int | Fraction]],
    nvars: int,
    cap: int = DEFAULT_ROW_CAP,
) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every constraint, or None if infeasible."""
    rows: list[Row] = []
    for coeffs, rhs in constraints:
        if len(coeffs) != nvars:
            raise ValueError("constraint arity mismatch")
        rows.append(_normalize([Fraction(c) for c in coeffs], Fraction(rhs)))
    cleaned = _clean(rows)
    if cleaned is None:
        return None
    if nvars == 0:
        return ()
    levels: list[list[Row]] = [[] for _ in range(nvars)]
    levels[nvars - 1] = cleaned
    for m in range(nvars - 1, 0, -1):
        nxt = _eliminate(levels[m], m, cap)
        if nxt is None:
            return None
        levels[m - 1] = nxt

    point: list[Fraction] = [Fraction(0)] * nvars
    for m in range(nvars):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for coeffs, rhs in levels[m]:
            c = coeffs[m]
            if c == 0:
                continue
            bound = Fraction(rhs - sum(coeffs[t] * point[t] for t in range(m)), c)
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            if lo > hi:
                return None  # only reachable at m=0; later vars are consistent
            point[m] = (lo + hi) / 2
        elif lo is not None:
            point[m] = lo
        elif hi is not None:
            point[m] = hi
    return tuple(point)


def find_positive_functional(
    columns: Sequence[Sequence[int]],
    dim: int,
    cap: int = DEFAULT_ROW_CAP,
) -> tuple[Fraction, ...] | None:
    """w with <w, col> >= 1 for every column, or None if no such w exists.

    Duplicate columns are collapsed before elimination, which keeps the row
    count tied to the number of distinct columns rather than the ambient
    count.
    """
    distinct = sorted({tuple(int(x) for x in col) for col in columns})
    constraints = [(col, 1) for col in distinct]
    return feasible_point(constraints, dim, cap)
