"""Counting smooth isotopy classes and spotting forced coincidences.

For a trivial bundle the submanifold is (torus) x (fiber), so the rank of
its first Z/2 cohomology is the number of quadrics plus the fiber's own
rank (`topology.h1_mod2`). In the stable range (total dimension >= 5)
the classification of embeddings of an n-manifold in C^n by tangential
data gives at most 2^rank smooth isotopy classes when n is even, and no
finite bound when n is odd. Submanifolds in the same family share a diffeomorphism type, so
once more pairwise-distinct minimal pairing numbers are exhibited than the
smooth bound allows, some pair must be smoothly isotopic while remaining
inequivalent as exact submanifolds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["IsotopyBound", "PigeonholeReport", "isotopy_bound", "pigeonhole"]


@dataclass(frozen=True)
class IsotopyBound:
    dim_total: int
    h1_rank: int | None
    bound: int | None  # None when no finite bound is claimed
    reason: str


def isotopy_bound(dim_total: int, h1_rank: int | None) -> IsotopyBound:
    if h1_rank is None:
        return IsotopyBound(
            dim_total, None, None,
            "mod-2 homology rank unavailable (fiber unclassified or bundle "
            "not known to be trivial)",
        )
    if dim_total < 5:
        return IsotopyBound(
            dim_total, h1_rank, None,
            f"total dimension {dim_total} is below the stable range",
        )
    if dim_total % 2 == 1:
        return IsotopyBound(
            dim_total, h1_rank, None,
            f"odd total dimension {dim_total}: no finite bound",
        )
    return IsotopyBound(
        dim_total, h1_rank, 2 ** h1_rank,
        f"at most 2^{h1_rank} smooth isotopy classes",
    )


@dataclass(frozen=True)
class PigeonholeReport:
    distinct_values: tuple[int, ...]
    bound: int | None
    collision: bool


def pigeonhole(values: Sequence[int], bound: int | None) -> PigeonholeReport:
    """Do more distinct invariant values appear than smooth classes exist?"""
    distinct = tuple(sorted(set(values)))
    collision = bound is not None and len(distinct) > bound
    return PigeonholeReport(distinct, bound, collision)
