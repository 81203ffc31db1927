"""Convex polytopes presented by halfspaces <a_i, x> + b_i >= 0.

The presentation carries integer facet normals a_i (columns of `normals`)
and rational offsets b_i. All verdicts are exact; vertex enumeration solves
a dim x dim system by fraction-free integer elimination for every candidate
subset of facets, and checks each candidate point over Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

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

    def value(self, i: int, x: Sequence[Fraction]) -> Fraction:
        a = self.normals.column(i)
        return sum((Fraction(c) * t for c, t in zip(a, x)), Fraction(0)) + self.offsets[i]


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

    Every dim-subset of facets with invertible normal matrix is solved
    exactly; candidate points failing any inequality are discarded.
    """
    dim, n = p.dim, p.n
    if math.comb(n, dim) > cap:
        raise CapExceeded(
            f"vertex enumeration over comb({n}, {dim}) subsets exceeds the cap {cap}"
        )
    at = p.normals.transpose().data  # rows are the a_i
    found: dict[tuple[Fraction, ...], None] = {}
    for subset in combinations(range(n), dim):
        sub = [at[i] for i in subset]
        if det(sub) == 0:
            continue
        rhs = [-p.offsets[i] for i in subset]
        x = solve_rational(sub, rhs)
        assert x is not None  # invertible system
        if all(p.value(i, x) >= 0 for i in range(n)):
            found.setdefault(x, None)
    vertices = []
    for point in found:
        active = tuple(i for i in range(n) if p.value(i, point) == 0)
        vertices.append(VertexData(point, active))
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
    |det A_S| / [Z^dim : L], with [Z^dim : L] computed once.
    """
    require_flags(flags)
    at = p.normals.transpose()
    covolume = lattice_index(at, identity(p.dim))
    for v in vertices:
        idx = abs(det([at.data[i] for i in v.active])) // covolume
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
