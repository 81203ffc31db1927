"""Fiber topology: expression algebra, normal forms, merge reduction,
dispatch, truncation, connectivity.

Expected values were computed by hand: the positivity functional w comes
from the deterministic Fourier-Motzkin order, the residual points lambda_j
from w, and the merge traces were followed step by step on paper before
being frozen here.
"""

from fractions import Fraction

import pytest

from lagrangelab.errors import InternalInvariantError, StructuralError
from lagrangelab.exactlinalg import IntMatrix
from lagrangelab.gale import QuadricSystem
from lagrangelab.topology import (
    ConnSum,
    Disjoint,
    Product,
    Sphere,
    SurfaceGenus,
    Torus,
    Unknown,
    classify_fiber,
    classify_three_quadrics,
    connectivity_bound,
    expr_dim,
    merge_fixpoint,
    normalize,
    render,
    three_quadrics_normal_form,
    truncation_rule,
    two_quadrics_split,
)

F = Fraction


def quad(rows, delta):
    return QuadricSystem(IntMatrix.from_rows(rows), tuple(delta))


PENTAGON = quad([(1, 0, 0, -1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 1, -1)], (1, 2, 1))
HEXAGON = quad(
    [(1, 0, 0, -1, 0, -1), (0, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1), (0, 0, 0, 0, 1, 1)],
    (-1, 2, 3, 2),
)


# ---------------------------------------------------------------------------
# expression algebra
# ---------------------------------------------------------------------------

def test_normalize_atoms():
    assert normalize(Torus(1)) == Sphere(1)
    assert normalize(Torus(3)) == Torus(3)
    assert normalize(SurfaceGenus(0)) == Sphere(2)
    # the genus-one surface is written as the torus, not the other way round
    assert normalize(SurfaceGenus(1)) == Torus(2)
    assert normalize(Sphere(4)) == Sphere(4)


def test_normalize_products():
    assert normalize(Product((Sphere(1), Sphere(1)))) == Torus(2)
    assert normalize(Product((Sphere(1), Sphere(1), Sphere(3)))) == Product(
        (Torus(2), Sphere(3))
    )
    # a 0-sphere factor doubles the rest
    assert normalize(Product((Sphere(0), Sphere(3)))) == Disjoint(2, Sphere(3))
    # nested products flatten and sort by dimension
    inner = Product((Sphere(5), Sphere(2)))
    assert normalize(Product((Sphere(7), inner))) == Product(
        (Sphere(2), Sphere(5), Sphere(7))
    )


def test_normalize_connected_sums():
    tot = normalize(ConnSum((SurfaceGenus(5), Sphere(2), SurfaceGenus(12))))
    assert tot == SurfaceGenus(17)
    five_tori = ConnSum(tuple(Product((Sphere(1), Sphere(1))) for _ in range(5)))
    assert normalize(five_tori) == SurfaceGenus(5)
    # sphere summands are dropped entirely
    kept = normalize(ConnSum((Sphere(4), Product((Sphere(2), Sphere(2))))))
    assert kept == Product((Sphere(2), Sphere(2)))
    with pytest.raises(ValueError):
        normalize(ConnSum((Sphere(2), Sphere(3))))


def test_render_and_dim():
    assert render(Sphere(9)) == "S^9"
    assert render(Product((Sphere(9), Sphere(7), Sphere(7)))) == "S^9 x S^7 x S^7"
    summand = Product((Sphere(3), Sphere(4)))
    assert render(ConnSum((summand,) * 5)) == "#_5(S^3 x S^4)"
    assert render(ConnSum((SurfaceGenus(1), SurfaceGenus(2)))) == "Sigma_1 # Sigma_2"
    assert render(Disjoint(2, Sphere(3))) == "2(S^3)"
    assert expr_dim(Product((Sphere(9), Sphere(7), Sphere(7)))) == 23
    assert expr_dim(ConnSum((summand, summand))) == 7
    assert expr_dim(Unknown("?")) is None


# ---------------------------------------------------------------------------
# polygons and one quadric
# ---------------------------------------------------------------------------

def test_polygon_genus_series():
    triangle = quad([(1, 1, 1)], (1,))
    square = quad([(1, 0, 1, 0), (0, 1, 0, 1)], (1, 1))
    assert classify_fiber(triangle) == Sphere(2)
    assert classify_fiber(square) == Torus(2)
    assert classify_fiber(PENTAGON) == SurfaceGenus(5)
    assert classify_fiber(HEXAGON) == SurfaceGenus(17)


def test_one_quadric_spheres():
    assert classify_fiber(quad([(1, 1, 1, 1)], (3,))) == Sphere(3)
    assert classify_fiber(quad([(2, 1, 1, 1)], (1,))) == Sphere(3)
    with pytest.raises(StructuralError):
        classify_fiber(quad([(1, -1)], (1,)))  # hyperbola: unbounded dual
    with pytest.raises(StructuralError):
        # positive combination exists but its level is negative: empty
        classify_fiber(quad([(1, 1)], (-2,)))


# ---------------------------------------------------------------------------
# two quadrics
# ---------------------------------------------------------------------------

def test_two_quadrics_product_of_spheres():
    # block system: 4 coordinates on one quadric, 6 on the other
    q = quad(
        [(1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1, 1, 1)],
        (4, 6),
    )
    assert classify_fiber(q) == Product((Sphere(3), Sphere(5)))
    assert two_quadrics_split(q) == (6, 4)


def test_two_quadrics_singular_and_empty():
    with pytest.raises(StructuralError, match="vanishes"):
        two_quadrics_split(quad([(1, 0, 1), (0, 1, 1)], (1, 1)))
    with pytest.raises(StructuralError, match="one-sided"):
        two_quadrics_split(quad([(1, 1, 2), (1, 1, 1)], (5, 1)))


# ---------------------------------------------------------------------------
# three quadrics: normal form
# ---------------------------------------------------------------------------

def test_pentagon_normal_form():
    cfg = three_quadrics_normal_form(PENTAGON)
    assert cfg.w == (2, 2, 1)
    assert cfg.scale == (2, 2, 1, 1, 1)
    assert cfg.total == 7
    assert cfg.rows_used == (0, 1)
    assert cfg.classes == (
        ((F(5, 14), F(-2, 7)), 1),
        ((F(-1, 7), F(3, 14)), 1),
        ((F(-1, 7), F(-2, 7)), 1),
        ((F(-8, 7), F(5, 7)), 1),
        ((F(6, 7), F(-2, 7)), 1),
    )


def test_normal_form_origin_singularity():
    q = quad([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)], (1, 1, 1))
    with pytest.raises(StructuralError, match="origin"):
        three_quadrics_normal_form(q)


def test_normal_form_segment_singularity():
    q = quad(
        [(1, 0, 0, -1, 2), (0, 1, 0, -1, -1), (0, 0, 1, 3, 0)],
        (1, -1, 1),
    )
    with pytest.raises(StructuralError, match="segment"):
        three_quadrics_normal_form(q)


def test_normal_form_run_length_grouping():
    # coordinates 1..8, 9-10, 11-16, 17-24, 25-26 give five classes; the
    # last two coordinates repeat the lambda of 9-10 but are not adjacent,
    # so they stay a class of their own
    q = quad(
        [
            [1] * 10 + [0] * 14 + [1] * 2,
            [-1] * 8 + [0] * 2 + [1] * 6 + [0] * 8 + [0] * 2,
            [1] * 8 + [0] * 2 + [0] * 6 + [1] * 8 + [0] * 2,
        ],
        (12, -2, 16),
    )
    cfg = three_quadrics_normal_form(q)
    assert cfg.w == (1, 1, 1)
    assert cfg.total == 26
    assert [mult for _, mult in cfg.classes] == [8, 2, 6, 8, 2]
    assert cfg.classes[1][0] == cfg.classes[4][0] == (F(7, 13), F(1, 13))


# ---------------------------------------------------------------------------
# three quadrics: merge reduction
# ---------------------------------------------------------------------------

def test_merge_pentagon_configuration_is_stable():
    dirs = [((5, -4), 1), ((-2, 3), 1), ((-1, -2), 1), ((-8, 5), 1), ((3, -1), 1)]
    final = merge_fixpoint(dirs)
    assert [m for _, m in final] == [1, 1, 1, 1, 1]
    assert {d for d, _ in final} == {d for d, _ in dirs}


def test_merge_three_blocked_rays():
    final = merge_fixpoint([((1, 0), 2), ((-1, 3), 5), ((-3, -1), 7)])
    assert final == [((1, 0), 2), ((-1, 3), 5), ((-3, -1), 7)]


def test_merge_half_plane_configuration_is_empty():
    with pytest.raises(StructuralError, match="half-plane"):
        merge_fixpoint([((1, 0), 1), ((6, 1), 2), ((3, 1), 3)])
    # one ray hit twice is also one-sided
    with pytest.raises(StructuralError, match="half-plane"):
        merge_fixpoint([((2, 1), 3), ((4, 2), 5)])


def test_merge_rejects_antipodal_and_zero():
    with pytest.raises(StructuralError, match="antipodal"):
        merge_fixpoint([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)])
    with pytest.raises(StructuralError, match="zero"):
        merge_fixpoint([((0, 0), 1), ((1, 0), 1)])


def test_merge_tie_break_and_pairwise_collapse():
    # three tight pairs of rays, each pair mergeable, everything else blocked:
    # collapses pair by pair in position order to multiplicities (2, 2, 2)
    dirs = [
        ((1, 0), 1), ((6, 1), 1),
        ((-1, 2), 1), ((-1, 1), 1),
        ((-1, -2), 1), ((-1, -3), 1),
    ]
    final = merge_fixpoint(dirs)
    assert final == [((1, 0), 2), ((-1, 2), 2), ((-1, -2), 2)]


def test_merge_equal_directions_fuse_first():
    # equal directions sort adjacently (stable on input order) and fuse
    final = merge_fixpoint([((7, 1), 2), ((-3, 7), 6), ((-6, 1), 8), ((7, -12), 8), ((7, 1), 2)])
    assert final == [((7, 1), 10), ((-6, 1), 8), ((7, -12), 8)]


# ---------------------------------------------------------------------------
# three quadrics: end-to-end classification
# ---------------------------------------------------------------------------

def test_pentagon_as_three_quadrics_matches_polygon_answer():
    expr = classify_three_quadrics(PENTAGON)
    assert normalize(expr) == SurfaceGenus(5)


def test_three_quadrics_product_case():
    # 26 coordinates, three quadrics; the five residual classes merge to
    # (10, 8, 8), an l = 1 fixpoint, hence a product of three spheres
    q = quad(
        [
            [1] * 10 + [0] * 14 + [1] * 2,
            [-1] * 8 + [0] * 2 + [1] * 6 + [0] * 8 + [0] * 2,
            [1] * 8 + [0] * 2 + [0] * 6 + [1] * 8 + [0] * 2,
        ],
        (12, -2, 16),
    )
    expr = classify_fiber(q)
    assert normalize(expr) == Product((Sphere(7), Sphere(7), Sphere(9)))


def test_three_quadrics_connected_sum_case():
    # 10 coordinates in six blocks with multiplicities (2, 2, 1, 1, 2, 2);
    # one merge collapses them to five classes of multiplicity 2 (l = 2),
    # giving a five-fold connected sum of S^3 x S^4
    cols = [(1, 0, 1)] * 2 + [(0, 1, 1)] * 2 + [(1, 1, 0)] + [(1, 0, 0)] \
        + [(0, 1, 0)] * 2 + [(0, 0, 1)] * 2
    rows = [tuple(c[i] for c in cols) for i in range(3)]
    q = quad(rows, (4, 5, 6))
    expr = classify_fiber(q)
    want = ConnSum(tuple(Product((Sphere(3), Sphere(4))) for _ in range(5)))
    assert normalize(expr) == normalize(want)
    assert render(expr) == "#_5(S^3 x S^4)"


def test_unclassified_codimension():
    # four quadrics over a 3-dimensional dual polytope: no rule applies
    q = quad(
        [
            (1, 0, 0, 0, 1, 0, 1),
            (0, 1, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 1, 1),
            (0, 0, 0, 1, 0, 1, 0),
        ],
        (2, 2, 2, 2),
    )
    expr = classify_fiber(q)
    assert isinstance(expr, Unknown)


# ---------------------------------------------------------------------------
# truncation and connectivity
# ---------------------------------------------------------------------------

def test_truncation_chain_square_pentagon_hexagon():
    square_fiber = Torus(2)
    once = truncation_rule(square_fiber, 2, 4)
    assert normalize(once) == SurfaceGenus(5)
    twice = truncation_rule(normalize(once), 2, 5)
    assert normalize(twice) == SurfaceGenus(17)
    assert normalize(twice) == normalize(classify_fiber(HEXAGON))
    with pytest.raises(ValueError):
        truncation_rule(Sphere(2), 3, 3)


def test_connectivity_bound():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert connectivity_bound(triangle, 3) == 2
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert connectivity_bound(square, 4) == 1
    pentagon = [(0, 1), (0, 3), (3, 4), (1, 2), (2, 4)]
    assert connectivity_bound(pentagon, 5) == 1
    assert connectivity_bound([], 4) == 0
