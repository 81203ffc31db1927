"""Randomized agreement and identity sweeps over small integer inputs.

Each sweep runs at least five hundred accepted cases with ambient size at
most eight and generator entries at most three in absolute value. Instances
come from rejection sampling with a fixed seed, so every run sees the same
cases; the attempt counters guard against a silent collapse of the
acceptance rate.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from lagrangelab.errors import CapExceeded, StructuralError
from lagrangelab.exactlinalg import (
    IntMatrix,
    det,
    hnf,
    identity,
    integer_kernel,
    is_unimodular,
    lattice_index,
    mat_mul,
    mat_vec,
    rational_rank,
    snf,
    solve_rational,
)
from lagrangelab.families import build
from lagrangelab.gale import (
    QuadricSystem,
    canonical_form,
    embedded_check,
    polytope_to_quadrics,
    quadrics_to_polytope,
)
from lagrangelab.lattice import lattice_data
from lagrangelab.maslov import generator_report, monotonicity
from lagrangelab.polytope import (
    VERTEX_SUBSET_CAP,
    DelzantResult,
    PolytopePresentation,
    StructuralFlags,
    VertexData,
    delzant_check,
    enumerate_vertices,
    fano_check,
    require_flags,
    structural_flags,
)

CASES = 500


def random_unimodular(rng: random.Random, d: int, ops: int = 5) -> IntMatrix:
    if d == 1:
        return IntMatrix.from_rows([(rng.choice((-1, 1)),)])
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(ops):
        i, j = rng.sample(range(d), 2)
        move = rng.random()
        if move < 0.7:
            c = rng.choice((-1, 1))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif move < 0.85:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m)


def base_shapes() -> list[PolytopePresentation]:
    shapes = []
    for d in (2, 3):
        eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        box = [row + [-x for x in row] for row in eye]
        shapes.append(PolytopePresentation(
            IntMatrix.from_rows(box), (Fraction(0),) * d + (Fraction(1),) * d))
        for s in (1, 3):
            simplex = [row + [-1] for row in eye]
            shapes.append(PolytopePresentation(
                IntMatrix.from_rows(simplex), (Fraction(0),) * d + (Fraction(s),)))
    for fam in ("th3", "th5"):
        poly = build(fam).polytope
        assert poly is not None
        shapes.append(poly)
    return shapes


def transformed(rng: random.Random, base: PolytopePresentation) -> PolytopePresentation:
    """Unimodular change of ambient coordinates plus an integer translation."""
    m = random_unimodular(rng, base.dim)
    w = [rng.randint(-3, 3) for _ in range(base.dim)]
    normals = mat_mul(m, base.normals)
    offsets = tuple(
        base.offsets[i]
        - sum(Fraction(x) * t for x, t in zip(normals.column(i), w))
        for i in range(base.n)
    )
    return PolytopePresentation(normals, offsets)


def random_polytope(rng: random.Random):
    """A structurally valid random presentation, or None on rejection."""
    d = 2 if rng.random() < 0.7 else 3
    n = rng.randint(d + 2, min(8, d + 5))
    cols = []
    for _ in range(n):
        while True:
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(a):
                break
        cols.append(a)
    normals = IntMatrix.from_rows([tuple(c[i] for c in cols) for i in range(d)], n)
    if rational_rank(normals) != d:
        return None
    offsets = tuple(Fraction(rng.randint(1, 3)) for _ in range(n))
    p = PolytopePresentation(normals, offsets)
    verts = enumerate_vertices(p)
    flags = structural_flags(p, verts)
    if not flags.all_pass():
        return None
    return p, verts, flags


def random_system(rng: random.Random) -> QuadricSystem | None:
    n = rng.randint(2, 8)
    r = rng.randint(1, min(4, n - 1))
    rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
    delta = tuple(Fraction(rng.randint(-3, 3)) for _ in range(r))
    try:
        return QuadricSystem(IntMatrix.from_rows(rows), delta)
    except StructuralError:
        return None


def test_embedding_matches_delzant():
    """The torus-quotient embedding test and the vertex lattice test agree,
    down to the witness vertex and its index. At every vertex the three
    index formulas agree: |det A_S| over the covolume of the normal lattice,
    the lattice index of A_S in that lattice, and |det gamma_support|."""
    rng = random.Random(20260823)
    bases = base_shapes()
    accepted = embedded_n = attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 60000, "generator acceptance collapsed"
        if rng.random() < 0.3:
            p = transformed(rng, rng.choice(bases))
            verts = enumerate_vertices(p)
            flags = structural_flags(p, verts)
            if not flags.all_pass():
                continue
        else:
            made = random_polytope(rng)
            if made is None:
                continue
            p, verts, flags = made
        q = polytope_to_quadrics(p)
        at = p.normals.transpose()
        covolume = lattice_index(at, identity(p.dim))
        for v in verts:
            a_s = [at.data[i] for i in v.active]
            support = [q.column(j) for j in range(p.n) if j not in v.active]
            assert abs(det(a_s)) % covolume == 0
            assert abs(det(a_s)) // covolume \
                == lattice_index(IntMatrix.from_rows(a_s), at) == abs(det(support))
        dz = delzant_check(p, verts, flags)
        emb = embedded_check(q, verts)
        assert emb.is_embedded == dz.is_delzant
        if not dz.is_delzant:
            assert emb.witness.point == dz.witness.point
            assert emb.witness_index == dz.witness_index
        accepted += 1
        embedded_n += emb.is_embedded
    assert 50 <= embedded_n <= CASES - 50  # both branches well exercised


def old_irredundant(p: PolytopePresentation, vertices) -> bool:
    """The irredundancy rule structural_flags applied before the tight-set
    antichain: the tight vertices of every facet affinely span dim - 1
    dimensions, and no two facets are positively proportional (normal and
    offset)."""
    for i in range(p.n):
        tight = [v.point for v in vertices if i in v.active]
        if len(tight) < p.dim:
            return False
        diffs = [[x - y for x, y in zip(pt, tight[0])] for pt in tight[1:]]
        if rational_rank(diffs) != p.dim - 1:
            return False
    for i, j in combinations(range(p.n), 2):
        ai, aj = p.normal(i), p.normal(j)
        t = next(t for t in range(p.dim) if ai[t])  # the generator's normals are nonzero
        lam = Fraction(aj[t], ai[t])
        if lam > 0 and all(y == lam * x for x, y in zip(ai, aj)) \
                and p.offsets[j] == lam * p.offsets[i]:
            return False
    return True


def test_irredundant_matches_old_rule():
    """The tight-set antichain gives the same gate verdict as the old rule
    on every input, and the same irredundant flag whenever the vertices
    affinely span R^dim. Most inputs are boxes with random cuts: far cuts
    are redundant, cuts through a vertex make it non-simple, scaled copies
    duplicate a facet, and the opposite of facet 0 squeezes the polytope
    flat. The rest have no box and are often unbounded."""
    rng = random.Random(1992)
    seen = {"pass": 0, "redundant": 0, "non_simple": 0, "not_spanning": 0}
    for _ in range(CASES):
        d = rng.randint(1, 3)
        cols, offsets = [], []
        if rng.random() < 0.8:
            for i in range(d):
                e = tuple(int(t == i) for t in range(d))
                cols += [e, tuple(-x for x in e)]
                offsets += [Fraction(rng.randint(1, 2)), Fraction(rng.randint(1, 2))]
        for _ in range(rng.randint(1, 3)):
            if cols and rng.random() < 0.15:
                k, c = rng.randrange(len(cols)), rng.randint(1, 2)
                cols.append(tuple(c * x for x in cols[k]))
                offsets.append(c * offsets[k])
                continue
            while True:
                a = tuple(rng.randint(-2, 2) for _ in range(d))
                if any(a):
                    break
            cols.append(a)
            offsets.append(Fraction(rng.randint(1, 5)))
        if rng.random() < 0.15:
            cols.append(tuple(-x for x in cols[0]))
            offsets.append(-offsets[0])
        normals = IntMatrix.from_rows([tuple(c[i] for c in cols) for i in range(d)], len(cols))
        p = PolytopePresentation(normals, tuple(offsets))
        verts = enumerate_vertices(p)
        flags = structural_flags(p, verts)
        old = old_irredundant(p, verts)
        assert flags.all_pass() == (
            flags.nonempty and flags.bounded and flags.generic_simple and old
        )
        spans = bool(verts) and rational_rank(
            [[x - y for x, y in zip(v.point, verts[0].point)] for v in verts[1:]]
        ) == d
        if spans:
            assert flags.irredundant == old
        seen["pass"] += flags.all_pass()
        seen["redundant"] += spans and flags.generic_simple and not old
        seen["non_simple"] += spans and not flags.generic_simple
        seen["not_spanning"] += bool(verts) and not spans
    assert min(seen.values()) >= 25, seen


def old_value(p: PolytopePresentation, i: int, x) -> Fraction:
    """PolytopePresentation.value before its removal: <a_i, x> + b_i."""
    a = p.normals.column(i)
    return sum((Fraction(c) * t for c, t in zip(a, x)), Fraction(0)) + p.offsets[i]


def old_enumerate_vertices(
    p: PolytopePresentation, cap: int = VERTEX_SUBSET_CAP
) -> tuple[VertexData, ...]:
    """enumerate_vertices before the Gale-side rewrite, kept as the
    reference: every dim-subset of facets with invertible normal matrix is
    solved on the polytope side, and candidate points failing any
    inequality over Fraction are discarded."""
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
        if all(old_value(p, i, x) >= 0 for i in range(n)):
            found.setdefault(x, None)
    vertices = []
    for point in found:
        active = tuple(i for i in range(n) if old_value(p, i, point) == 0)
        vertices.append(VertexData(point, active))
    vertices.sort(key=lambda v: v.point)
    return tuple(vertices)


def random_vertex_input(rng: random.Random) -> tuple[PolytopePresentation, bool]:
    """An input for the enumeration oracle, with a flag for a scaled
    duplicate facet. Half are boxes with up to three cuts (r >= dim): cuts
    through a box vertex, scaled copies of a facet, or free cuts. The rest
    have dim to 2 dim + 1 free facets (r <= dim + 1), often unbounded.
    Offsets are often not integers, and one input in ten has every normal
    in a hyperplane, so rank A < dim."""
    d = rng.randint(1, 4)

    def normal() -> tuple[int, ...]:
        while True:
            a = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(a):
                return a

    def offset() -> Fraction:
        return Fraction(rng.randint(-1, 4), rng.choice((1, 1, 2, 3)))

    cols: list[tuple[int, ...]] = []
    offsets: list[Fraction] = []
    duplicate = False
    if rng.random() < 0.5:
        lo = [Fraction(rng.randint(1, 4), rng.choice((1, 2))) for _ in range(d)]
        hi = [Fraction(rng.randint(1, 4), rng.choice((1, 3))) for _ in range(d)]
        for i in range(d):
            e = tuple(int(t == i) for t in range(d))
            cols += [e, tuple(-x for x in e)]
            offsets += [lo[i], hi[i]]
        for _ in range(rng.randint(0, 3)):
            kind = rng.random()
            if kind < 0.35:  # through a vertex of the box
                a = normal()
                corner = [rng.choice((-lo[t], hi[t])) for t in range(d)]
                cols.append(a)
                offsets.append(-sum(x * t for x, t in zip(a, corner)))
            elif kind < 0.55:
                k, c = rng.randrange(len(cols)), rng.randint(2, 3)
                cols.append(tuple(c * x for x in cols[k]))
                offsets.append(c * offsets[k])
                duplicate = True
            else:
                cols.append(normal())
                offsets.append(offset())
    else:
        for _ in range(rng.randint(d, 2 * d + 1)):
            cols.append(normal())
            offsets.append(offset())
    if rng.random() < 0.1:
        cols = [c[:-1] + (0,) for c in cols]
    normals = IntMatrix.from_rows([tuple(c[i] for c in cols) for i in range(d)], len(cols))
    return PolytopePresentation(normals, tuple(offsets)), duplicate


def test_enumeration_matches_polytope_side_oracle():
    """enumerate_vertices, which solves each complementary pair on the side
    with fewer unknowns and reads feasibility from integer slack signs,
    returns exactly the tuple of the Fraction polytope-side enumeration."""
    rng = random.Random(1992_5)
    seen = dict.fromkeys((
        "gale_side", "polytope_side", "r_eq_dim", "r_eq_1", "r_eq_0",
        "rank_deficient", "unbounded", "non_simple", "duplicate", "fractional",
    ), 0)
    for _ in range(CASES):
        p, duplicate = random_vertex_input(rng)
        verts = enumerate_vertices(p)
        assert verts == old_enumerate_vertices(p)
        r = p.n - p.dim
        full_rank = rational_rank(p.normals) == p.dim
        seen["gale_side"] += bool(verts) and r <= p.dim
        seen["polytope_side"] += bool(verts) and r > p.dim
        seen["r_eq_dim"] += bool(verts) and r == p.dim
        seen["r_eq_1"] += bool(verts) and r == 1
        seen["r_eq_0"] += bool(verts) and r == 0
        seen["rank_deficient"] += not full_rank
        seen["unbounded"] += bool(verts) and not structural_flags(p, verts).bounded
        seen["non_simple"] += any(len(v.active) > p.dim for v in verts)
        seen["duplicate"] += bool(verts) and duplicate
        seen["fractional"] += bool(verts) and any(b.denominator > 1 for b in p.offsets)
    assert min(seen.values()) >= 25, seen


def old_delzant_check(
    p: PolytopePresentation,
    vertices: tuple[VertexData, ...],
    flags: StructuralFlags,
) -> DelzantResult:
    """delzant_check before the fixed basis, kept as the reference: one
    dim x dim determinant per vertex."""
    require_flags(flags)
    at = p.normals.transpose()
    covolume = lattice_index(at, identity(p.dim))
    for v in vertices:
        idx = abs(det([at.data[i] for i in v.active])) // covolume
        if idx != 1:
            return DelzantResult(False, v, idx)
    return DelzantResult(True)


def test_delzant_matches_per_vertex_det_oracle():
    """Every vertex index read from the first vertex's basis equals the
    per-vertex determinant's: the same flag, witness and index, for the
    vertex order given and for a rotation of it (another basis, and often
    another first failure). Gated inputs from three generators: random
    normals, unimodular images of the base shapes, and the enumeration
    oracle's boxes with cuts, plus the larger th4 and ex1 polytopes."""
    rng = random.Random(2018_6)
    bases = base_shapes()
    seen = dict.fromkeys(
        ("gale_side", "polytope_side", "delzant", "not_delzant", "minor_k_ge_3"), 0
    )

    def compare(p, verts, flags):
        for shift in (0, rng.randrange(len(verts))):
            order = verts[shift:] + verts[:shift]
            result = delzant_check(p, order, flags)
            assert result == old_delzant_check(p, order, flags)
        tight0 = set(verts[0].active)
        r = p.n - p.dim
        seen["gale_side"] += r <= p.dim
        seen["polytope_side"] += r > p.dim
        seen["delzant"] += result.is_delzant
        seen["not_delzant"] += not result.is_delzant
        seen["minor_k_ge_3"] += max(len(set(v.active) - tight0) for v in verts) >= 3

    for family, params in (("th4", {"p": 2, "q": 1}), ("th4", {"p": 3, "q": 2}),
                           ("ex1", {"p": 6, "n": 16, "k": 2})):
        p = quadrics_to_polytope(build(family, **params).system)
        verts = enumerate_vertices(p)
        compare(p, verts, structural_flags(p, verts))
    accepted = attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 60000, "generator acceptance collapsed"
        kind = rng.random()
        if kind < 0.4:
            made = random_polytope(rng)
            if made is None:
                continue
            p, verts, flags = made
        else:
            if kind < 0.6:
                p = transformed(rng, rng.choice(bases))
            else:
                p, _ = random_vertex_input(rng)
            verts = enumerate_vertices(p)
            flags = structural_flags(p, verts)
            if not flags.all_pass():
                continue
        compare(p, verts, flags)
        accepted += 1
    assert min(seen.values()) >= 25, seen


def test_reflexive_matches_monotone():
    """On smooth instances, the translated-common-offset test agrees with
    delta = c * t on the dual side, with the same constant."""
    rng = random.Random(7)
    bases = base_shapes()
    accepted = fano_yes = attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 60000, "generator acceptance collapsed"
        p = transformed(rng, rng.choice(bases))
        if rng.random() < 0.5:
            offs = list(p.offsets)
            offs[rng.randrange(p.n)] += rng.randint(1, 2)
            p = PolytopePresentation(p.normals, tuple(offs))
        verts = enumerate_vertices(p)
        flags = structural_flags(p, verts)
        if not (flags.all_pass() and flags.primitive_normals):
            continue
        if not delzant_check(p, verts, flags).is_delzant:
            continue
        fano = fano_check(p, flags)
        monotone, c = monotonicity(polytope_to_quadrics(p))
        assert fano.is_fano == monotone
        if monotone:
            assert fano.c == c
        accepted += 1
        fano_yes += fano.is_fano
    assert 50 <= fano_yes <= CASES - 50


def test_gale_round_trip_canonical():
    rng = random.Random(99)
    accepted = attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 30000, "generator acceptance collapsed"
        q = random_system(rng)
        if q is None:
            continue
        cf = canonical_form(q)
        assert canonical_form(cf) == cf
        assert rational_rank(cf.gamma) == q.r
        assert polytope_to_quadrics(quadrics_to_polytope(q)) == cf
        accepted += 1


def test_minimal_maslov_row_invariance():
    """Unimodular row changes of (gamma, delta) present the same system, so
    the minimal pairing number and monotonicity data cannot move."""
    rng = random.Random(4242)
    accepted = attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 60000, "generator acceptance collapsed"
        q = random_system(rng)
        if q is None:
            continue
        try:
            rep = generator_report(q, lattice_data(q))
        except StructuralError:
            continue  # no column subset forms a lattice basis
        u = random_unimodular(rng, q.r)
        q2 = QuadricSystem(mat_mul(u, q.gamma), tuple(mat_vec(u, q.delta)))
        rep2 = generator_report(q2, lattice_data(q2))
        assert rep2.minimal_maslov == rep.minimal_maslov
        assert rep2.monotone == rep.monotone
        assert rep2.monotone_c == rep.monotone_c
        accepted += 1


def _assert_row_echelon(h: IntMatrix) -> None:
    last_pivot = -1
    seen_zero_row = False
    for i in range(h.rows):
        row = h.data[i]
        pivot_col = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot_col is None:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "zero row above a nonzero row"
        assert pivot_col > last_pivot
        last_pivot = pivot_col
        pivot = row[pivot_col]
        assert pivot > 0
        for k in range(i):
            assert 0 <= h.data[k][pivot_col] < pivot
        for k in range(i + 1, h.rows):
            assert h.data[k][pivot_col] == 0


def test_normal_form_identities():
    rng = random.Random(123)
    for _ in range(CASES):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 8)
        m = IntMatrix.from_rows(
            [tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(nrows)],
            ncols,
        )
        h, u = hnf(m)
        assert is_unimodular(u)
        assert mat_mul(u, m) == h
        _assert_row_echelon(h)

        d, ul, vr = snf(m)
        assert is_unimodular(ul) and is_unimodular(vr)
        assert mat_mul(mat_mul(ul, m), vr) == d
        diag = [d.data[t][t] for t in range(min(nrows, ncols))]
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert d.data[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)

        k = integer_kernel(m)
        rank = rational_rank(m)
        assert k.rows == ncols - rank
        if k.rows:
            zero = mat_mul(k, m.transpose())
            assert all(x == 0 for row in zero.data for x in row)
            dk, _, _ = snf(k)
            assert all(dk.data[t][t] == 1 for t in range(k.rows))

        if nrows == ncols:
            prod = 1
            for x in diag:
                prod *= x
            assert abs(det(m)) == prod


def _cofactor_det(m: list[list]) -> Fraction:
    """Laplace expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0]) if x
    )


def _nonzero_minor(m: list[list], k: int, cols) -> bool:
    """Whether some k x k minor of m within the given columns is nonzero."""
    return any(
        _cofactor_det([[m[i][j] for j in cs] for i in rs])
        for rs in combinations(range(len(m)), k)
        for cs in combinations(cols, k)
    )


def _pivot_columns(m: list[list]) -> list[int]:
    """Columns that raise the size of the largest nonzero minor of the
    columns up to them; their number is the rank."""
    pivots: list[int] = []
    for j in range(len(m[0])):
        if _nonzero_minor(m, len(pivots) + 1, range(j + 1)):
            pivots.append(j)
    return pivots


def random_elimination_case(rng: random.Random) -> tuple[list[list], bool, bool]:
    """A square, tall or wide matrix up to 6 x 6, returned with flags for
    rows made dependent by construction and for Fraction rows."""
    shape = rng.choice(("square", "tall", "wide"))
    small, big = sorted(rng.sample(range(1, 7), 2))
    nrows, ncols = {"square": (big, big), "tall": (big, small), "wide": (small, big)}[shape]
    m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    deficient = nrows >= 2 and rng.random() < 0.4
    if deficient:
        keep = rng.randint(1, nrows - 1)
        for i in range(keep, nrows):
            a, b = rng.randrange(keep), rng.randrange(keep)
            ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
            m[i] = [ca * x + cb * y for x, y in zip(m[a], m[b])]
        rng.shuffle(m)
    if ncols >= 2 and rng.random() < 0.3:
        j, c = rng.randrange(1, ncols), rng.randint(-2, 2)
        for row in m:  # a column dependent on its left neighbour gets skipped
            row[j] = c * row[j - 1]
    fractional = rng.random() < 0.3
    if fractional:
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            d = rng.randint(2, 5)
            m[i] = [Fraction(x, d) for x in m[i]]
    return m, deficient, fractional


def test_elimination_matches_oracles():
    """det, rational_rank and solve_rational against cofactor expansion,
    the largest nonzero minor, and exact substitution."""
    rng = random.Random(1968)
    deficient_n = fractional_n = inconsistent_n = square_n = 0
    for _ in range(CASES):
        m, deficient, fractional = random_elimination_case(rng)
        nrows, ncols = len(m), len(m[0])
        pivots = _pivot_columns(m)
        rank = len(pivots)
        assert rational_rank(m) == rank
        if nrows == ncols and not fractional:
            assert det(m) == det(IntMatrix.from_rows(m)) == _cofactor_det(m)
            square_n += 1
        if rng.random() < 0.5:
            x0 = [rng.randint(-3, 3) for _ in range(ncols)]
            v = [sum(a * t for a, t in zip(row, x0)) for row in m]
        else:
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nrows)]
        x = solve_rational(m, v)
        if _nonzero_minor([row + [b] for row, b in zip(m, v)], rank + 1, range(ncols + 1)):
            assert x is None
            inconsistent_n += 1
        else:
            assert x is not None
            assert [sum(a * t for a, t in zip(row, x)) for row in m] == v
            assert all(x[j] == 0 for j in range(ncols) if j not in pivots)
        deficient_n += deficient and rank < min(nrows, ncols)
        fractional_n += fractional
    for count in (deficient_n, fractional_n, inconsistent_n, square_n):
        assert 50 <= count <= CASES - 50  # every branch well exercised


def test_two_block_distinct_value_sweep():
    """Closed-form sweep: for p = 3 * 2^m and total size 3 * 2^(m-2) * n the
    even-k family realizes exactly 2m distinct minimal pairing numbers."""
    for m in (3, 4, 5):
        p = 3 * 2**m
        for n in (10, 12, 14, 16):
            total = 3 * 2**(m - 2) * n
            values = {
                build("ex1", p=p, n=total, k=k).minimal_maslov
                for k in range(0, p - 1, 2)
            }
            assert len(values) == 2 * m, (m, n, sorted(values))


def test_two_block_sweep_matches_pipeline():
    for k in (0, 2, 6, 22):
        inst = build("ex1", p=24, n=60, k=k)
        rep = generator_report(inst.system, lattice_data(inst.system))
        assert rep.minimal_maslov == inst.minimal_maslov
