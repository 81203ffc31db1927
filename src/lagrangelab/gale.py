"""Gale duality between polytope H-presentations and integer quadric systems.

A system (gamma, delta) with gamma an r x n integer matrix of full row rank
encodes the intersection of r quadrics sum_j gamma[i][j] u_j^2 = delta[i]
in R^n; the dual polytope presentation has normals spanning the integer
kernel of gamma. The correspondence loses the offsets up to translation and
the normal scaling up to saturation, so round trips are canonical rather
than literal: canonical_form() (Hermite form of the rows with delta carried
along) is the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import StructuralError
from .exactlinalg import (
    IntMatrix,
    det,
    hnf,
    integer_kernel,
    mat_vec,
    rational_rank,
    snf,
    solve_rational,
)
from .polytope import PolytopePresentation, VertexData

__all__ = [
    "QuadricSystem",
    "EmbeddingResult",
    "canonical_form",
    "polytope_to_quadrics",
    "quadrics_to_polytope",
    "embedded_check",
]


@dataclass(frozen=True)
class QuadricSystem:
    """r quadrics on n coordinates: gamma @ (u_1^2 ... u_n^2) = delta.

    Invariants enforced here: 1 <= r < n, full row rank, and the rows span a
    saturated sublattice of Z^n (they extend to a basis), which every
    downstream lattice/Maslov formula assumes.
    """

    gamma: IntMatrix
    delta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        r, n = self.gamma.rows, self.gamma.cols
        if not 1 <= r < n:
            raise StructuralError(f"need 1 <= quadrics < coordinates, got {r} quadrics on {n}")
        if len(self.delta) != r:
            raise StructuralError("delta length must equal the number of quadrics")
        if rational_rank(self.gamma) != r:
            raise StructuralError("quadric rows are linearly dependent")
        d, _, _ = snf(self.gamma)
        if any(d.data[t][t] != 1 for t in range(r)):
            raise StructuralError(
                "quadric rows do not extend to a lattice basis (non-saturated row lattice)"
            )
        object.__setattr__(self, "delta", tuple(Fraction(x) for x in self.delta))

    @property
    def r(self) -> int:
        return self.gamma.rows

    @property
    def n(self) -> int:
        return self.gamma.cols

    @property
    def dim(self) -> int:
        """Dimension of the dual polytope (= n - r)."""
        return self.n - self.r

    def column(self, j: int) -> tuple[int, ...]:
        return self.gamma.column(j)


@dataclass(frozen=True)
class EmbeddingResult:
    is_embedded: bool
    witness: VertexData | None = None
    witness_support: tuple[int, ...] | None = None
    witness_index: int | None = None  # lattice index at the witness


def canonical_form(q: QuadricSystem) -> QuadricSystem:
    """Hermite-canonical representative: rows in HNF, delta transformed by
    the same unimodular row operations. Idempotent."""
    h, u = hnf(q.gamma)
    return QuadricSystem(h, mat_vec(u, q.delta))


def polytope_to_quadrics(p: PolytopePresentation) -> QuadricSystem:
    """Dual quadric system of an H-presentation; output is canonical.

    delta = gamma @ offsets is invariant under translating the polytope.
    """
    if rational_rank(p.normals) != p.dim:
        raise StructuralError("facet normals do not span the ambient space")
    gamma = integer_kernel(p.normals)
    if gamma.rows == 0:
        raise StructuralError("presentation has no Gale relations (n = dim)")
    return QuadricSystem(gamma, mat_vec(gamma, p.offsets))


def quadrics_to_polytope(q: QuadricSystem) -> PolytopePresentation:
    """Dual H-presentation: normals = integer kernel of gamma (column i is
    a_i), offsets = least-index rational solution of gamma @ b = delta.

    The offsets are one representative of a translation class; all verdicts
    downstream are translation-invariant.
    """
    normals = integer_kernel(q.gamma)
    b = solve_rational(q.gamma, q.delta)
    assert b is not None  # gamma has full row rank
    return PolytopePresentation(normals, b)


def embedded_check(
    q: QuadricSystem, vertices: Sequence[VertexData]
) -> EmbeddingResult:
    """Does the quadric intersection map inject into the torus quotient?

    Criterion: at every vertex, the gamma-columns indexed by the support
    (facets NOT tight there) must span the full lattice Z^r. Checking
    vertex supports suffices: supports of faces only grow, and a larger
    generating set cannot fail if the minimal ones pass. Gated (simple)
    vertices leave r support columns, so the index is |det gamma_support|.
    """
    for v in vertices:
        active = set(v.active)
        support = tuple(j for j in range(q.n) if j not in active)
        idx = abs(det([q.column(j) for j in support]))
        if idx != 1:
            return EmbeddingResult(False, v, support, idx)
    return EmbeddingResult(True)
