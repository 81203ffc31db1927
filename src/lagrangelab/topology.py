"""Diffeomorphism type of the quadric intersection, where classifiable.

Dispatch, in order of precedence:
  * dual polytope of dimension 2 (a polygon with m edges): orientable
    surface; genus 1 + (m-4) * 2^(m-3) for m >= 5, torus for m = 4,
    sphere for m = 3;
  * one quadric: sphere S^(n-1);
  * two quadrics: after a positivity normalization the residual row splits
    the coordinates by sign into p vs n-p and the intersection is
    S^(p-1) x S^(n-p-1);
  * three quadrics: the plane configuration of residual coefficient points
    lambda_j is reduced by merging cyclically adjacent classes whenever the
    open sector between them is antipode-free; the odd fixpoint 2l+1 yields
    a product of three spheres (l = 1) or a connected sum of 2l+1 sphere
    products (l >= 2);
  * otherwise Unknown (callers attach a connectivity bound).

The classifier trusts its input: callers run the polytope gate
(`polytope.gate`) on the dual polytope first, or know the system to be
valid by construction. Every function that dispatches on the expression
node classes lives in this module: rendering, normalization, dimension,
mod-2 first cohomology rank and the JSON form.

Everything uses exact rational arithmetic; no angles are ever computed
numerically (the cyclic order uses half-plane + cross-product comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInvariantError, StructuralError
from .exactlinalg import rational_rank
from .fme import find_positive_functional
from .gale import QuadricSystem

__all__ = [
    "TopologyExpr", "Sphere", "Torus", "SurfaceGenus", "Product", "ConnSum",
    "Disjoint", "Unknown", "normalize", "render", "expr_dim", "expr_dict", "h1_mod2",
    "ThreeQuadricsConfig", "three_quadrics_normal_form", "merge_fixpoint",
    "classify_fiber", "classify_three_quadrics", "truncation_rule",
    "connectivity_bound",
]


# ---------------------------------------------------------------------------
# expression algebra
# ---------------------------------------------------------------------------

class TopologyExpr:
    """Base class; concrete nodes are frozen dataclasses below."""


@dataclass(frozen=True)
class Sphere(TopologyExpr):
    dim: int


@dataclass(frozen=True)
class Torus(TopologyExpr):
    dim: int


@dataclass(frozen=True)
class SurfaceGenus(TopologyExpr):
    genus: int


@dataclass(frozen=True)
class Product(TopologyExpr):
    factors: tuple[TopologyExpr, ...]


@dataclass(frozen=True)
class ConnSum(TopologyExpr):
    summands: tuple[TopologyExpr, ...]


@dataclass(frozen=True)
class Disjoint(TopologyExpr):
    copies: int
    part: TopologyExpr


@dataclass(frozen=True)
class Unknown(TopologyExpr):
    reason: str
    connectivity: int | None = None  # known to be (connectivity-1)-connected


def expr_dim(e: TopologyExpr) -> int | None:
    if isinstance(e, Sphere):
        return e.dim
    if isinstance(e, Torus):
        return e.dim
    if isinstance(e, SurfaceGenus):
        return 2
    if isinstance(e, Product):
        dims = [expr_dim(f) for f in e.factors]
        return None if any(d is None for d in dims) else sum(dims)
    if isinstance(e, ConnSum):
        dims = {expr_dim(s) for s in e.summands}
        dims.discard(None)
        return dims.pop() if len(dims) == 1 else None
    if isinstance(e, Disjoint):
        return expr_dim(e.part)
    return None


def render(e: TopologyExpr) -> str:
    if isinstance(e, Sphere):
        return f"S^{e.dim}"
    if isinstance(e, Torus):
        return f"T^{e.dim}"
    if isinstance(e, SurfaceGenus):
        return f"Sigma_{e.genus}"
    if isinstance(e, Product):
        return " x ".join(_wrap(f) for f in e.factors)
    if isinstance(e, ConnSum):
        parts = [render(s) for s in e.summands]
        if len(set(parts)) == 1 and len(parts) > 1:
            return f"#_{len(parts)}({parts[0]})"
        return " # ".join(_wrap(s) for s in e.summands)
    if isinstance(e, Disjoint):
        return f"{e.copies}({_wrap(e.part)})"
    if isinstance(e, Unknown):
        return f"Unknown[{e.reason}]"
    raise TypeError(f"not a TopologyExpr: {e!r}")


def expr_dict(e: TopologyExpr):
    """JSON-ready form of an expression."""
    if isinstance(e, Sphere):
        return {"sphere": e.dim}
    if isinstance(e, Torus):
        return {"torus": e.dim}
    if isinstance(e, SurfaceGenus):
        return {"surface_genus": e.genus}
    if isinstance(e, Product):
        return {"product": [expr_dict(f) for f in e.factors]}
    if isinstance(e, ConnSum):
        return {"connected_sum": [expr_dict(s) for s in e.summands]}
    if isinstance(e, Disjoint):
        return {"disjoint_copies": e.copies, "part": expr_dict(e.part)}
    if isinstance(e, Unknown):
        return {"unknown": e.reason, "connectivity": e.connectivity}
    raise TypeError(f"not a TopologyExpr: {e!r}")


def h1_mod2(e: TopologyExpr) -> int | None:
    """Rank of H^1(-; Z/2), or None when the expression is unknown."""
    if isinstance(e, Sphere):
        return 1 if e.dim == 1 else 0
    if isinstance(e, Torus):
        return e.dim
    if isinstance(e, SurfaceGenus):
        return 2 * e.genus
    if isinstance(e, Product):
        parts = [h1_mod2(f) for f in e.factors]
        return None if any(p is None for p in parts) else sum(parts)
    if isinstance(e, ConnSum):
        # in dimension >= 3 the fundamental group is the free product of the
        # summands'; surfaces have already been fused by normalization
        parts = [h1_mod2(s) for s in e.summands]
        return None if any(p is None for p in parts) else sum(parts)
    if isinstance(e, Disjoint):
        part = h1_mod2(e.part)
        return None if part is None else e.copies * part
    return None


def _wrap(e: TopologyExpr) -> str:
    s = render(e)
    if isinstance(e, (ConnSum, Disjoint)) or (isinstance(e, Product) and len(e.factors) > 1):
        return f"({s})"
    return s


def normalize(e: TopologyExpr) -> TopologyExpr:
    """Canonical representative: tori fused, genus summed, sphere summands
    dropped, factors/summands sorted. Two expressions describe the same
    manifold under the rewrite rules here iff they normalize equally."""
    if isinstance(e, Sphere):
        return e
    if isinstance(e, Torus):
        return Sphere(1) if e.dim == 1 else e
    if isinstance(e, SurfaceGenus):
        if e.genus == 0:
            return Sphere(2)
        return Torus(2) if e.genus == 1 else e
    if isinstance(e, Disjoint):
        part = normalize(e.part)
        copies = e.copies
        if isinstance(part, Disjoint):
            copies *= part.copies
            part = part.part
        return part if copies == 1 else Disjoint(copies, part)
    if isinstance(e, Product):
        return _normalize_product(e)
    if isinstance(e, ConnSum):
        return _normalize_connsum(e)
    return e


def _sort_key(e: TopologyExpr):
    d = expr_dim(e)
    return (d if d is not None else 10 ** 9, render(e))


def _normalize_product(e: Product) -> TopologyExpr:
    flat: list[TopologyExpr] = []
    copies = 1
    torus_dim = 0
    for f in e.factors:
        nf = normalize(f)
        if isinstance(nf, Product):
            stack = list(nf.factors)
        else:
            stack = [nf]
        for g in stack:
            if isinstance(g, Disjoint):
                copies *= g.copies
                g = g.part
            if isinstance(g, Sphere) and g.dim == 0:
                copies *= 2
            elif isinstance(g, Sphere) and g.dim == 1:
                torus_dim += 1
            elif isinstance(g, Torus):
                torus_dim += g.dim
            elif isinstance(g, SurfaceGenus) and g.genus == 1:
                torus_dim += 2
            else:
                flat.append(g)
    if torus_dim:
        flat.append(Sphere(1) if torus_dim == 1 else Torus(torus_dim))
    flat.sort(key=_sort_key)
    if not flat:
        # product of 0-spheres only: 2^k points = copies/2 disjoint 0-spheres
        out: TopologyExpr = Sphere(0)
        copies //= 2
    elif len(flat) == 1:
        out = normalize(flat[0])
    else:
        out = Product(tuple(flat))
    return out if copies == 1 else normalize(Disjoint(copies, out))


def _normalize_connsum(e: ConnSum) -> TopologyExpr:
    flat: list[TopologyExpr] = []
    for s in e.summands:
        ns = normalize(s)
        flat.extend(ns.summands if isinstance(ns, ConnSum) else [ns])
    dims = {expr_dim(s) for s in flat} - {None}
    if len(dims) > 1:
        raise ValueError(f"connected sum of unequal dimensions: {sorted(dims)}")
    ambient = dims.pop() if dims else None
    genus = 0
    kept: list[TopologyExpr] = []
    saw_surface = False
    for s in flat:
        if isinstance(s, SurfaceGenus):
            genus += s.genus
            saw_surface = True
        elif isinstance(s, Torus) and s.dim == 2:
            genus += 1
            saw_surface = True
        elif isinstance(s, Sphere):
            continue  # connect-summing a sphere changes nothing
        else:
            kept.append(s)
    if saw_surface and kept:
        raise ValueError("connected sum mixes surfaces with other summands")
    if saw_surface:
        return normalize(SurfaceGenus(genus))
    if not kept:
        return Sphere(ambient if ambient is not None else 0)
    if len(kept) == 1:
        return kept[0]
    kept.sort(key=_sort_key)
    return ConnSum(tuple(kept))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeQuadricsConfig:
    """Positivity-normalized residual data of a three-quadric system.

    `classes` lists (lambda point, multiplicity) after run-length grouping
    of consecutive equal points, in coordinate order. `rows_used` are the
    indices of the two gamma rows completing the positive combination to a
    basis; changing that choice moves the points by a common invertible
    affine map and cannot change any verdict downstream.
    """

    w: tuple[Fraction, ...]
    scale: tuple[Fraction, ...]  # s = w @ gamma, componentwise >= 1
    total: Fraction  # D = <w, delta>, positive
    rows_used: tuple[int, int]
    classes: tuple[tuple[tuple[Fraction, Fraction], int], ...]


def _positivity(q: QuadricSystem) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction]:
    cols = [q.column(j) for j in range(q.n)]
    w = find_positive_functional(cols, q.r)
    if w is None:
        raise StructuralError(
            "no positive combination of the quadrics exists (intersection is noncompact)"
        )
    s = tuple(
        sum((wi * g for wi, g in zip(w, col)), Fraction(0)) for col in cols
    )
    d = sum((wi * de for wi, de in zip(w, q.delta)), Fraction(0))
    if d <= 0:
        raise StructuralError(
            f"positive combination has nonpositive level D = {d}: intersection is empty"
        )
    return w, s, d


def two_quadrics_split(q: QuadricSystem) -> tuple[int, int]:
    """Sign split (negatives, positives) of the residual coefficients for a
    two-quadric system; zero coefficients mean a singular intersection."""
    if q.r != 2:
        raise ValueError("two_quadrics_split needs exactly two quadrics")
    w, s, d = _positivity(q)
    row = None
    for i in range(2):
        if rational_rank([list(s), list(q.gamma.data[i])]) == 2:
            row = i
            break
    assert row is not None  # gamma has rank 2 and s is in its row space
    lam = [Fraction(q.gamma.data[row][j]) / s[j] - q.delta[row] / d for j in range(q.n)]
    neg = sum(1 for x in lam if x < 0)
    pos = sum(1 for x in lam if x > 0)
    if neg + pos != q.n:
        raise StructuralError("singular two-quadric system: a residual coefficient vanishes")
    if neg == 0 or pos == 0:
        raise StructuralError("two-quadric system with one-sided residuals is empty")
    return neg, pos


def three_quadrics_normal_form(q: QuadricSystem) -> ThreeQuadricsConfig:
    if q.r != 3:
        raise ValueError("three_quadrics_normal_form needs exactly three quadrics")
    w, s, d = _positivity(q)
    rows: list[int] = []
    chosen = [list(s)]
    for i in range(3):
        candidate = chosen + [list(q.gamma.data[i])]
        if rational_rank(candidate) == len(candidate):
            chosen = candidate
            rows.append(i)
            if len(rows) == 2:
                break
    assert len(rows) == 2
    i2, i3 = rows
    lams = [
        (
            Fraction(q.gamma.data[i2][j]) / s[j] - q.delta[i2] / d,
            Fraction(q.gamma.data[i3][j]) / s[j] - q.delta[i3] / d,
        )
        for j in range(q.n)
    ]
    classes: list[tuple[tuple[Fraction, Fraction], int]] = []
    for lam in lams:
        if classes and classes[-1][0] == lam:
            classes[-1] = (lam, classes[-1][1] + 1)
        else:
            classes.append((lam, 1))
    for lam, _ in classes:
        if lam == (0, 0):
            raise StructuralError(
                "singular three-quadric system: a residual point sits at the origin"
            )
    for (la, _), (lb, _) in combinations(classes, 2):
        cross = la[0] * lb[1] - la[1] * lb[0]
        dot = la[0] * lb[0] + la[1] * lb[1]
        if cross == 0 and dot < 0:
            raise StructuralError(
                f"singular three-quadric system: origin lies on the segment "
                f"between residual points {la} and {lb}"
            )
    return ThreeQuadricsConfig(
        w=tuple(w), scale=s, total=d, rows_used=(i2, i3),
        classes=tuple(classes),
    )


# ---------------------------------------------------------------------------
# the merge reduction for three quadrics
# ---------------------------------------------------------------------------

def _primitive(v: tuple[Fraction, Fraction]) -> tuple[int, int]:
    m = lcm(v[0].denominator, v[1].denominator)
    a, b = int(v[0] * m), int(v[1] * m)
    g = gcd(a, b)
    return (a // g, b // g)


def _cross(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _half(d: tuple[int, int]) -> int:
    """0 for angles in [0, pi), 1 for [pi, 2pi)."""
    return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1


def _angular_cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def _strictly_inside(e: tuple[int, int], lo: tuple[int, int], hi: tuple[int, int]) -> bool:
    """Is ray e strictly inside the CCW sector (< pi wide) from lo to hi?"""
    return _cross(lo, e) > 0 and _cross(e, hi) > 0


def _mergeable(entries: list[list], i: int) -> bool:
    m = len(entries)
    j = (i + 1) % m
    di, dj = entries[i][0], entries[j][0]
    same = _cross(di, dj) == 0 and _dot(di, dj) > 0
    if not same and _cross(di, dj) <= 0:
        return False  # sector is >= pi: the sweep would cross its own antipode
    if same:
        return True  # zero-width sector: nothing can obstruct
    for k in range(m):
        if k in (i, j):
            continue
        anti = (-entries[k][0][0], -entries[k][0][1])
        if _strictly_inside(anti, di, dj):
            return False
    return True


def merge_fixpoint(
    dirs_mults: Sequence[tuple[tuple[int, int], int]]
) -> list[tuple[tuple[int, int], int]]:
    """Reduce a cyclic configuration of direction classes.

    Input directions need not be sorted; they are put into exact cyclic
    (angular) order first, with ties kept in input order. A cyclically
    adjacent pair merges (second class absorbed into the first, direction
    kept) when its open sector contains no antipode of any other class;
    among eligible pairs the one with the smallest position merges first.
    Raises StructuralError for antipodal or zero directions, and if the
    reduction empties the configuration below three classes.
    """
    entries: list[list] = []
    for d, mult in dirs_mults:
        if d == (0, 0):
            raise StructuralError("zero direction in merge configuration")
        g = gcd(d[0], d[1])
        entries.append([(d[0] // g, d[1] // g), mult])
    for (da, _), (db, _) in combinations(entries, 2):
        if _cross(da, db) == 0 and _dot(da, db) < 0:
            raise StructuralError("antipodal direction classes: singular configuration")
    entries.sort(key=cmp_to_key(lambda x, y: _angular_cmp(x[0], y[0])))
    while True:
        eligible = next(
            (i for i in range(len(entries)) if len(entries) > 1 and _mergeable(entries, i)),
            None,
        )
        if eligible is None:
            break
        i = eligible
        j = (i + 1) % len(entries)
        entries[i][1] += entries[j][1]
        del entries[j]
    if len(entries) == 1:
        raise StructuralError(
            "all residual points lie in an open half-plane: intersection is empty"
        )
    if len(entries) % 2 == 0:
        raise InternalInvariantError(
            f"merge fixpoint has even length {len(entries)}"
        )
    return [(tuple(e[0]), e[1]) for e in entries]


def _three_sphere_expr(mults: Sequence[int], n: int) -> TopologyExpr:
    m = len(mults)
    l = (m - 1) // 2
    if l == 1:
        return Product(tuple(Sphere(k - 1) for k in mults))
    summands = []
    for i in range(m):
        d = sum(mults[(i + t) % m] for t in range(l))
        summands.append(Product((Sphere(d - 1), Sphere(n - d - 2))))
    return ConnSum(tuple(summands))


def classify_three_quadrics(q: QuadricSystem) -> TopologyExpr:
    cfg = three_quadrics_normal_form(q)
    dirs = [(_primitive(lam), mult) for lam, mult in cfg.classes]
    final = merge_fixpoint(dirs)
    return normalize(_three_sphere_expr([mult for _, mult in final], q.n))


# ---------------------------------------------------------------------------
# dispatch, truncation, connectivity
# ---------------------------------------------------------------------------

def classify_fiber(q: QuadricSystem) -> TopologyExpr:
    """Topology of the quadric intersection of a gated (or valid by
    construction) system; no polytope validation happens here."""
    if q.dim == 2:
        m = q.n
        if m == 3:
            return Sphere(2)
        if m == 4:
            return Torus(2)
        return SurfaceGenus(1 + (m - 4) * 2 ** (m - 3))
    if q.r == 1:
        _positivity(q)  # raises if noncompact or empty
        return Sphere(q.n - 1)
    if q.r == 2:
        neg, pos = two_quadrics_split(q)
        return normalize(Product((Sphere(pos - 1), Sphere(neg - 1))))
    if q.r == 3:
        return classify_three_quadrics(q)
    return Unknown(f"no classification rule for {q.r} quadrics over a "
                   f"{q.dim}-dimensional polytope")


def truncation_rule(expr: TopologyExpr, dim: int, facets: int) -> TopologyExpr:
    """Effect of truncating one vertex of the underlying simple polytope on
    the fiber: two copies of the old fiber plus 2^(facets-dim) - 1 copies of
    S^1 x S^(dim-1), all connect-summed."""
    if facets <= dim:
        raise ValueError("a bounded polytope needs more facets than its dimension")
    copies = 2 ** (facets - dim) - 1
    handle = Product((Sphere(1), Sphere(dim - 1)))
    return ConnSum((expr, expr) + (handle,) * copies)


def connectivity_bound(active_sets: Sequence[Sequence[int]], n: int) -> int:
    """Largest j such that every j-subset of facets is contained in some
    vertex tight set: the fiber is then (j-1)-connected (and no better is
    claimed)."""
    sets = [frozenset(a) for a in active_sets]
    if not sets:
        return 0
    best = 0
    max_size = max(len(a) for a in sets)
    for m in range(1, max_size + 1):
        ok = all(
            any(frozenset(sub) <= a for a in sets)
            for sub in combinations(range(n), m)
        )
        if ok:
            best = m
        else:
            break
    return best
