"""Parameterized instance builders with their closed-form invariants.

Each builder validates its parameter constraints, assembles the polytope or
quadric system, and records the closed-form values (minimal pairing number,
fiber, orientability, triviality) that the computed pipeline must agree
with. The reproduce harness treats any disagreement between pipeline and
closed form as an internal error, which makes these families the regression
suite for the whole stack.

Identifiers follow the build contract: ex1 is the two-block family (sphere
product fibers over T^2), ex2 the three-block family (three-sphere products
over T^3), th3/th5 the pentagon and hexagon, th4 the five-fold connected
sum family over T^3, th6 the non-smooth monotone pentagon family, and
sphere the single-quadric weighted sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactlinalg import IntMatrix
from .gale import QuadricSystem, polytope_to_quadrics
from .polytope import PolytopePresentation
from .topology import ConnSum, Product, Sphere, SurfaceGenus, TopologyExpr

__all__ = [
    "FamilyInstance", "FAMILIES", "build",
    "two_block", "three_block", "five_fold", "pentagon", "hexagon",
    "weighted_pentagon", "weighted_sphere",
]


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    params: tuple[tuple[str, int], ...]
    system: QuadricSystem
    polytope: PolytopePresentation | None  # set when the polytope is the input
    minimal_maslov: int
    fiber: TopologyExpr
    orientable: bool
    trivial: bool | None
    # constraints guarantee a valid bounded simple polytope, so the
    # reproduce harness may skip the exponential polytope gate
    validated: bool = True


def _require(conditions: list[tuple[bool, str]]) -> None:
    failed = [text for ok, text in conditions if not ok]
    if failed:
        raise ValueError("parameter constraints violated: " + "; ".join(failed))


def _system(columns: list[tuple[int, ...]], delta: tuple[int, ...]) -> QuadricSystem:
    rows = [tuple(col[i] for col in columns) for i in range(len(delta))]
    return QuadricSystem(IntMatrix.from_rows(rows), tuple(Fraction(d) for d in delta))


def two_block(p: int, n: int, k: int) -> FamilyInstance:
    _require([
        (p >= 1, f"p >= 1 (got p={p})"),
        (n - p >= 1, f"n - p >= 1 (got n-p={n - p})"),
        (0 <= k < p - 1, f"0 <= k < p-1 (got k={k}, p-1={p - 1})"),
        (n - p + k > p, f"n-p+k > p (got {n - p + k} vs {p})"),
    ])
    cols = [(1, 1)] * k + [(1, 0)] * (p - k) + [(0, 1)] * (n - p)
    q = _system(cols, (p, n - p + k))
    even = p % 2 == 0 and (n - p + k) % 2 == 0
    return FamilyInstance(
        family="ex1",
        params=(("p", p), ("n", n), ("k", k)),
        system=q,
        polytope=None,
        minimal_maslov=gcd(p, n - p + k),
        fiber=Product((Sphere(p - 1), Sphere(n - p - 1))),
        orientable=even,
        trivial=True if (p % 2 == 0 and n % 2 == 0 and k % 2 == 0) else (None if even else False),
    )


def three_block(q: int, l: int, k: int, p: int, n: int) -> FamilyInstance:
    _require([
        # l = k leaves the middle block empty, which is still a valid system
        (0 < q < l <= k < p < n, f"0 < q < l <= k < p < n (got {q},{l},{k},{p},{n})"),
        (k - l - q < 0, f"k-l-q < 0 (got {k - l - q})"),
        (n - p + k - q < p - l, f"n-p+k-q < p-l (got {n - p + k - q} vs {p - l})"),
    ])
    cols = (
        [(1, -1, 1)] * q
        + [(1, 0, 0)] * (l - q)
        + [(0, 1, 0)] * (k - l)
        + [(0, 0, 1)] * (p - k)
        + [(1, 0, 0)] * (n - p)
    )
    sys_ = _system(cols, (n - p + l, k - l - q, p - k + q))
    mu = (l + q - k, p - k + q, n - p + l)
    even = all(x % 2 == 0 for x in mu)
    # the l-q and n-p blocks share the column (1,0,0): one coordinate class
    blocks_even = all(x % 2 == 0 for x in (q, (l - q) + (n - p), k - l, p - k))
    return FamilyInstance(
        family="ex2",
        params=(("q", q), ("l", l), ("k", k), ("p", p), ("n", n)),
        system=sys_,
        polytope=None,
        minimal_maslov=gcd(gcd(*mu[:2]), mu[2]),
        fiber=Product(
            (Sphere(n - p + k - q - 1), Sphere(p - k - 1), Sphere(q - 1))
        ),
        orientable=even,
        trivial=True if blocks_even else (None if even else False),
    )


def five_fold(p: int, q: int) -> FamilyInstance:
    _require([
        (p >= 2, f"p >= 2 (got p={p})"),
        (0 < q <= p - 1, f"0 < q <= p-1 (got q={q}, p-1={p - 1})"),
    ])
    cols = (
        [(1, 0, 1)] * p + [(0, 1, 1)] * p + [(1, 1, 0)] * q
        + [(1, 0, 0)] * (p - q) + [(0, 1, 0)] * p + [(0, 0, 1)] * p
    )
    sys_ = _system(cols, (2 * p, 2 * p + q, 3 * p))
    even = p % 2 == 0 and q % 2 == 0
    summand = Product((Sphere(2 * p - 1), Sphere(3 * p - 2)))
    return FamilyInstance(
        family="th4",
        params=(("p", p), ("q", q)),
        system=sys_,
        polytope=None,
        minimal_maslov=gcd(p, q),
        fiber=ConnSum((summand,) * 5),
        orientable=even,
        trivial=True if even else False,
    )


def _polygon(normals: list[tuple[int, int]], offsets: list[int | Fraction]) -> PolytopePresentation:
    cols = IntMatrix.from_rows([tuple(a[i] for a in normals) for i in range(2)])
    return PolytopePresentation(cols, tuple(Fraction(b) for b in offsets))


def pentagon() -> FamilyInstance:
    poly = _polygon([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], [1, 1, 1, 1, 1])
    return FamilyInstance(
        family="th3",
        params=(),
        system=polytope_to_quadrics(poly),
        polytope=poly,
        minimal_maslov=1,
        fiber=SurfaceGenus(5),
        orientable=False,
        trivial=False,
        validated=False,
    )


def hexagon() -> FamilyInstance:
    poly = _polygon(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (1, 1)], [1, 1, 1, 1, 1, 1]
    )
    return FamilyInstance(
        family="th5",
        params=(),
        system=polytope_to_quadrics(poly),
        polytope=poly,
        minimal_maslov=1,
        fiber=SurfaceGenus(17),
        orientable=False,
        trivial=False,
        validated=False,
    )


def weighted_pentagon(k: int) -> FamilyInstance:
    """Monotone pentagon with stretched normals: never smooth at every
    vertex, minimal pairing number k, bundle orientable exactly for even k."""
    _require([(k >= 4, f"k >= 4 (got k={k})")])
    poly = _polygon(
        [(1, 0), (0, 1), (-(k - 1), 0), (0, -(2 * k - 1)), (-(k - 3), -(k + 2))],
        [0, 0, k, 2 * k, 2 * k],
    )
    even = k % 2 == 0
    return FamilyInstance(
        family="th6",
        params=(("k", k),),
        system=polytope_to_quadrics(poly),
        polytope=poly,
        minimal_maslov=k,
        fiber=SurfaceGenus(5),
        orientable=even,
        trivial=None if even else False,
        validated=False,
    )


def weighted_sphere(gamma1: int, m: int) -> FamilyInstance:
    """One quadric gamma1*u_1^2 + u_2^2 + ... + u_{2m}^2 = gamma1 + 2m - 1."""
    _require([
        (gamma1 >= 1, f"gamma1 >= 1 (got {gamma1})"),
        (m >= 1, f"m >= 1 (got m={m})"),
    ])
    t = gamma1 + 2 * m - 1
    sys_ = _system([(gamma1,)] + [(1,)] * (2 * m - 1), (t,))
    orientable = t % 2 == 0
    if not orientable:
        trivial: bool | None = False
    elif gamma1 == 1:
        trivial = True  # single coordinate class, flipped an even number of times
    else:
        trivial = None
    return FamilyInstance(
        family="sphere",
        params=(("gamma1", gamma1), ("m", m)),
        system=sys_,
        polytope=None,
        minimal_maslov=t,
        fiber=Sphere(2 * m - 1),
        orientable=orientable,
        trivial=trivial,
        validated=False,
    )


FAMILIES = {
    "ex1": (two_block, ("p", "n", "k")),
    "ex2": (three_block, ("q", "l", "k", "p", "n")),
    "th3": (pentagon, ()),
    "th4": (five_fold, ("p", "q")),
    "th5": (hexagon, ()),
    "th6": (weighted_pentagon, ("k",)),
    "sphere": (weighted_sphere, ("gamma1", "m")),
}


def build(family: str, **params: int) -> FamilyInstance:
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r} (choose from {', '.join(sorted(FAMILIES))})"
        )
    builder, names = FAMILIES[family]
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise ValueError(
            f"family {family} takes parameters ({', '.join(names) or 'none'})"
            + (f"; missing {', '.join(missing)}" if missing else "")
            + (f"; unexpected {', '.join(extra)}" if extra else "")
        )
    return builder(**{p: params[p] for p in names})
