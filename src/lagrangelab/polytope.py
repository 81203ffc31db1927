"""Convex polytopes presented by halfspaces <a_i, x> + b_i >= 0.

The presentation carries integer facet normals a_i (columns of `normals`)
and rational offsets b_i. All verdicts are exact. Vertex enumeration visits
every pair of a dim-subset of tight facets and its complementary r-subset
(r = n - dim) and solves it by fraction-free integer elimination on the side
with fewer unknowns: the Gale side gamma_S c_S = gamma b when r <= dim, the
polytope side A_T^T x = -b_T otherwise. Feasibility and the tight set are
read from the signs of the integer slack numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded, StructuralError
from .exactlinalg import (
    IntMatrix,
    det,
    gcd_list,
    identity,
    integer_kernel,
    lattice_index,
    rational_rank,
    solve_rational,
    _solve_augmented,
)
from .fme import feasible_point, find_positive_functional

__all__ = [
    "PolytopePresentation",
    "VertexData",
    "StructuralFlags",
    "DelzantResult",
    "FanoResult",
    "enumerate_vertices",
    "structural_flags",
    "delzant_check",
    "fano_check",
    "require_flags",
    "gate",
    "normalize_normals",
]

# Subset-enumeration guard: comb(n, dim) above this raises CapExceeded.
VERTEX_SUBSET_CAP = math.comb(40, 20)


@dataclass(frozen=True)
class PolytopePresentation:
    """H-presentation {x in R^dim : <a_i, x> + b_i >= 0, i = 1..n}.

    `normals` is dim x n with column i = a_i; `offsets` has length n.
    """

    normals: IntMatrix
    offsets: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.normals.rows < 1:
            raise ValueError("polytope dimension must be at least 1")
        if len(self.offsets) != self.normals.cols:
            raise ValueError("offsets length must match number of facets")
        object.__setattr__(self, "offsets", tuple(Fraction(b) for b in self.offsets))

    @property
    def dim(self) -> int:
        return self.normals.rows

    @property
    def n(self) -> int:
        return self.normals.cols

    def normal(self, i: int) -> tuple[int, ...]:
        return self.normals.column(i)


@dataclass(frozen=True)
class VertexData:
    point: tuple[Fraction, ...]
    active: tuple[int, ...]  # sorted 0-based facet indices tight at the point


@dataclass(frozen=True)
class StructuralFlags:
    nonempty: bool
    bounded: bool
    generic_simple: bool
    irredundant: bool
    primitive_normals: bool

    def all_pass(self) -> bool:
        return self.nonempty and self.bounded and self.generic_simple and self.irredundant

    def failing(self) -> list[str]:
        out = []
        for name in ("nonempty", "bounded", "generic_simple", "irredundant"):
            if not getattr(self, name):
                out.append(name)
        return out


@dataclass(frozen=True)
class DelzantResult:
    is_delzant: bool
    witness: VertexData | None = None
    witness_index: int | None = None  # lattice index at the witness


@dataclass(frozen=True)
class FanoResult:
    is_fano: bool
    c: Fraction | None = None
    translation: tuple[Fraction, ...] | None = None
    reason: str | None = None


def enumerate_vertices(
    p: PolytopePresentation, cap: int = VERTEX_SUBSET_CAP
) -> tuple[VertexData, ...]:
    """All vertices with their full tight sets, sorted by point.

    A vertex is a complementary pair: a dim-subset T of tight facets with
    invertible normals, and on the r-subset S = [n] \\ T (r = n - dim) a
    basic feasible solution c_S >= 0 of gamma_S c_S = gamma b, where gamma is
    the Gale kernel of A and c = A^T x + b are the slacks. Each pair is
    solved on the side with fewer unknowns: gamma_S c_S = gamma b with
    c_T = 0 when r <= dim, A_T^T x = -b_T otherwise. Both give the slacks as
    integer numerators over one positive denominator, so feasibility and the
    active set are read from their signs. A vertex is keyed on its active
    set; its point is recovered once. Rank A < dim gives no vertices.
    """
    dim, n = p.dim, p.n
    if math.comb(n, dim) > cap:
        raise CapExceeded(
            f"vertex enumeration over comb({n}, {dim}) subsets exceeds the cap {cap}"
        )
    r = n - dim
    at = p.normals.transpose().data  # rows are the a_i
    scale = math.lcm(*(b.denominator for b in p.offsets))
    offsets = [int(b * scale) for b in p.offsets]  # scale * b, integral
    points: dict[tuple[int, ...], tuple[Fraction, ...]] = {}  # active set -> point
    if r <= dim:
        gamma = integer_kernel(p.normals).data
        if len(gamma) != r:
            return ()  # rank A < dim
        delta = [sum(g * b for g, b in zip(row, offsets)) for row in gamma]
        found: dict[tuple[int, ...], tuple[list[int], int]] = {}  # active set -> slacks, d
        for support in combinations(range(n), r):
            solved = _solve_augmented(
                [[row[j] for j in support] + [dk] for row, dk in zip(gamma, delta)]
            )
            if solved is None or solved[2] < r:
                continue
            c_s, d, _ = solved
            if min(c_s, default=0) < 0:
                continue
            slacks = [0] * n
            for j, c in zip(support, c_s):
                slacks[j] = c
            found.setdefault(tuple(i for i, c in enumerate(slacks) if c == 0), (slacks, d))
        # One fixed inverse gives every point. gamma is in Hermite form, so it
        # is invertible on its pivot columns and A on the other columns, T0.
        # Then x = (A_T0^T)^-1 (c_T0 - b_T0); the inverse's columns z_t solve
        # A_T0^T z = e_t, all over the same den = |det A_T0|. The part from
        # b_T0 is shared, and c_T0 is nonzero on at most r facets.
        pivots = {next(j for j, g in enumerate(row) if g) for row in gamma}
        tight0 = [i for i in range(n) if i not in pivots]
        inverse = {t: _solve_augmented([[*at[i], int(i == t)] for i in tight0]) for t in tight0}
        den = inverse[tight0[0]][1]
        shift = [sum(offsets[t] * inverse[t][0][k] for t in tight0) for k in range(dim)]
        for active, (slacks, d) in found.items():
            w = [-d * x for x in shift]
            for t, (z, _, _) in inverse.items():
                if slacks[t]:
                    w = [x + slacks[t] * y for x, y in zip(w, z)]
            points[active] = tuple(Fraction(x, den * d * scale) for x in w)
    else:
        for tight in combinations(range(n), dim):
            solved = _solve_augmented([[*at[i], -offsets[i]] for i in tight])
            if solved is None or solved[2] < dim:
                continue
            y, d, _ = solved
            slacks = [sum(a * t for a, t in zip(row, y)) + d * b for row, b in zip(at, offsets)]
            if min(slacks) < 0:
                continue
            active = tuple(i for i, c in enumerate(slacks) if c == 0)
            if active not in points:
                points[active] = tuple(Fraction(t, d * scale) for t in y)
    vertices = [VertexData(point, active) for active, point in points.items()]
    vertices.sort(key=lambda v: v.point)
    return tuple(vertices)


def structural_flags(
    p: PolytopePresentation, vertices: tuple[VertexData, ...] | None = None
) -> StructuralFlags:
    """The four geometric gates plus primitivity of the normals.

    bounded: rank(A) = dim and the facet normals admit a strictly positive
    integer dependency (certified through a positive functional on the Gale
    columns). irredundant: no facet's set of tight vertices is empty or
    inside (or equal to) another's. On a nonempty bounded full-dimensional
    polytope, simple or not, that is exactly "every inequality defines a
    facet, no two the same one". A lower-dimensional polytope has a vertex
    with more than dim tight facets, so it fails generic_simple anyway.
    """
    dim, n = p.dim, p.n
    rank_a = rational_rank(p.normals)
    gamma = integer_kernel(p.normals)
    bounded = rank_a == dim and find_positive_functional(
        [gamma.column(j) for j in range(n)], gamma.rows
    ) is not None

    if vertices is None:
        vertices = enumerate_vertices(p) if bounded else ()
    if vertices:
        nonempty = True
    else:
        at = p.normals.transpose()
        constraints = [(at.data[i], -p.offsets[i]) for i in range(n)]
        nonempty = feasible_point(constraints, dim) is not None

    generic_simple = all(len(v.active) == dim for v in vertices)

    tight: list[set[int]] = [set() for _ in range(n)]
    for k, v in enumerate(vertices):
        for i in v.active:
            tight[i].add(k)
    irredundant = all(tight) and not any(
        i != j and tight[i] <= tight[j] for i in range(n) for j in range(n)
    )

    primitive = all(gcd_list(p.normal(i)) == 1 for i in range(n))
    return StructuralFlags(nonempty, bounded, generic_simple, irredundant, primitive)


def require_flags(flags: StructuralFlags) -> None:
    if not flags.all_pass():
        raise StructuralError(
            "polytope rejected: " + ", ".join(flags.failing()) + " check failed"
        )


def gate(p: PolytopePresentation) -> tuple[tuple[VertexData, ...], StructuralFlags]:
    """Enumerate the vertices once and reject a polytope failing the
    structural flags; the vertices are returned for reuse downstream."""
    vertices = enumerate_vertices(p)
    flags = structural_flags(p, vertices)
    require_flags(flags)
    return vertices, flags


def normalize_normals(p: PolytopePresentation) -> PolytopePresentation:
    """Divide every facet normal (and its offset) by the normal's gcd.

    This keeps the point set but changes the associated quadric system:
    the weights carried by non-primitive normals are deliberately dropped.
    """
    cols = []
    offs = []
    for i in range(p.n):
        a = p.normal(i)
        g = gcd_list(a) or 1
        cols.append(tuple(x // g for x in a))
        offs.append(p.offsets[i] / g)
    rows = [tuple(c[t] for c in cols) for t in range(p.dim)]
    return PolytopePresentation(IntMatrix.from_rows(rows), tuple(offs))


def delzant_check(
    p: PolytopePresentation,
    vertices: tuple[VertexData, ...],
    flags: StructuralFlags,
) -> DelzantResult:
    """At every vertex the active normals A_S must span the lattice L
    generated by all the normals (index one). First failure is the witness.
    Gated vertices have dim independent active normals, so the index is
    |det A_S| / [Z^dim : L], with [Z^dim : L] computed once and every
    |det A_S| read as a small minor in the first vertex's basis.
    """
    require_flags(flags)
    at = p.normals.transpose()
    covolume = lattice_index(at, identity(p.dim))
    # Cramer's rule in one fixed basis, the first vertex's normals A_T0:
    # N = adj(A_T0) A over den = |det A_T0|, so column t of T0 is den e_t,
    # and a column off T0 is solved when a vertex first needs it (the check
    # often stops early). For a tight set T with k = |T \ T0|,
    # det A_T = det A_T0 det(N_T / den), and expanding N_T along its unit
    # columns leaves |det A_T| = |det N[T0 \ T, T \ T0]| / den^(k-1).
    tight0 = vertices[0].active
    row_of = {t: k for k, t in enumerate(tight0)}
    den = abs(det([at.data[t] for t in tight0]))
    coords: dict[int, list[int]] = {}
    for v in vertices:
        entering = [j for j in v.active if j not in row_of]
        for j in entering:
            if j not in coords:
                coords[j] = _solve_augmented(
                    [[*(at.data[t][k] for t in tight0), at.data[j][k]] for k in range(p.dim)]
                )[0]
        active = set(v.active)
        leaving = [row_of[t] for t in tight0 if t not in active]
        minor = [[coords[j][k] for j in entering] for k in leaving]
        idx = abs(det(minor)) * den // den ** len(leaving) // covolume
        if idx != 1:
            return DelzantResult(False, v, idx)
    return DelzantResult(True)


def fano_check(p: PolytopePresentation, flags: StructuralFlags) -> FanoResult:
    """Is the presentation, after translation, c * (reflexive-type) with all
    offsets equal to a common c > 0?

    Solves <a_i, v> - c = -b_i for (v, c); with a bounded presentation the
    solution is unique when it exists. Refuses non-primitive normals since
    rescaling a normal silently rescales its offset target.
    """
    require_flags(flags)
    if not flags.primitive_normals:
        raise StructuralError(
            "fano check refused: normals are not primitive (consider --normalize-normals)"
        )
    at = p.normals.transpose()
    rows = [list(r) + [-1] for r in at.data]
    sol = solve_rational(rows, [-b for b in p.offsets])
    if sol is None:
        return FanoResult(False, reason="no translation gives all facets a common support constant")
    v, c = sol[:-1], sol[-1]
    if c <= 0:
        return FanoResult(False, c=c, translation=v,
                          reason=f"common support constant c = {c} is not positive")
    return FanoResult(True, c=c, translation=v)
