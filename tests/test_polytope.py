"""Polytope-side oracles: all expected values below were computed by hand
(small 1D/2D instances solvable on paper) before the implementation ran.
"""

from fractions import Fraction

import pytest

from lagrangelab.errors import CapExceeded, StructuralError
from lagrangelab.exactlinalg import IntMatrix
from lagrangelab.polytope import (
    PolytopePresentation,
    StructuralFlags,
    delzant_check,
    enumerate_vertices,
    fano_check,
    structural_flags,
)


def poly(columns, offsets):
    normals = IntMatrix.from_rows(list(zip(*columns)), len(columns))
    return PolytopePresentation(normals, tuple(Fraction(b) for b in offsets))


PENTAGON = poly([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], [1, 1, 1, 1, 1])
SQUARE = poly([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 1, 1])
TRIANGLE = poly([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])
WEIGHTED = poly([(1, 0), (0, 1), (-1, -2)], [0, 0, 2])
QUADRANT = poly([(1, 0), (0, 1)], [0, 0])


def F(x):
    return Fraction(x)


def test_pentagon_vertices():
    vs = enumerate_vertices(PENTAGON)
    assert [(v.point, v.active) for v in vs] == [
        ((F(-1), F(-1)), (0, 1)),
        ((F(-1), F(1)), (0, 3)),
        ((F(0), F(1)), (3, 4)),
        ((F(1), F(-1)), (1, 2)),
        ((F(1), F(0)), (2, 4)),
    ]


def test_pentagon_flags_and_delzant_and_fano():
    vs = enumerate_vertices(PENTAGON)
    fl = structural_flags(PENTAGON, vs)
    assert fl == StructuralFlags(True, True, True, True, True)
    dz = delzant_check(PENTAGON, vs, fl)
    assert dz.is_delzant and dz.witness is None
    fa = fano_check(PENTAGON, fl)
    assert fa.is_fano and fa.c == 1 and fa.translation == (F(0), F(0))


def test_square_vertices_sorted():
    vs = enumerate_vertices(SQUARE)
    assert [v.point for v in vs] == [
        (F(-1), F(-1)), (F(-1), F(1)), (F(1), F(-1)), (F(1), F(1))
    ]
    fl = structural_flags(SQUARE, vs)
    assert fl.all_pass() and fl.primitive_normals
    assert delzant_check(SQUARE, vs, fl).is_delzant
    assert fano_check(SQUARE, fl).c == 1


def test_triangle_is_delzant_weighted_is_not():
    vs = enumerate_vertices(TRIANGLE)
    fl = structural_flags(TRIANGLE, vs)
    assert delzant_check(TRIANGLE, vs, fl).is_delzant

    vsw = enumerate_vertices(WEIGHTED)
    assert [v.point for v in vsw] == [(F(0), F(0)), (F(0), F(1)), (F(2), F(0))]
    flw = structural_flags(WEIGHTED, vsw)
    assert flw.all_pass()
    dz = delzant_check(WEIGHTED, vsw, flw)
    assert not dz.is_delzant
    assert dz.witness.point == (F(0), F(1))  # first failing vertex in sorted order
    assert dz.witness_index == 2


def test_quadrant_unbounded_nonempty():
    fl = structural_flags(QUADRANT)
    assert fl.nonempty and not fl.bounded
    with pytest.raises(StructuralError):
        delzant_check(QUADRANT, (), fl)


def test_empty_segment():
    p = poly([(1,), (-1,)], [-1, 0])  # x >= 1 and x <= 0
    fl = structural_flags(p)
    assert fl.bounded and not fl.nonempty


def test_degenerate_point_is_not_generic():
    p = poly([(1,), (-1,)], [1, -1])  # x >= -1 and x <= -1: single point
    vs = enumerate_vertices(p)
    assert [v.point for v in vs] == [(F(-1),)]
    fl = structural_flags(p, vs)
    assert fl.nonempty and fl.bounded and not fl.generic_simple
    # both facets are tight exactly at the one vertex: equal tight sets
    assert not fl.irredundant


def test_duplicate_facet_flagged_redundant():
    p = poly([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)], [1, 1, 1, 1, 1])
    fl = structural_flags(p)
    assert not fl.irredundant


def test_far_facet_flagged_redundant():
    p = poly([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)], [1, 1, 1, 1, 10])
    fl = structural_flags(p)
    assert fl.generic_simple and not fl.irredundant
    # a lone halfplane has no vertex, so its one tight set is empty
    assert not structural_flags(poly([(1, 0)], [0])).irredundant


def test_duplicate_with_positive_scaling_caught():
    p = poly([(1, 0), (0, 1), (-1, 0), (0, -1), (2, 0)], [1, 1, 1, 1, 2])
    fl = structural_flags(p)
    assert not fl.irredundant


def test_fano_inconsistent_rectangle():
    p = poly([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 2, 1, 2])
    fl = structural_flags(p)
    fa = fano_check(p, fl)
    assert not fa.is_fano and "common support constant" in fa.reason


def test_fano_rejects_nonpositive_c_under_forced_flags():
    # single point {x = -1}: flags don't actually pass, force them to
    # exercise the sign branch
    p = poly([(1,), (-1,)], [1, -1])
    forced = StructuralFlags(True, True, True, True, True)
    fa = fano_check(p, forced)
    assert not fa.is_fano and fa.c == 0


def test_fano_refuses_nonprimitive():
    p = poly([(2, 0), (0, 1), (-2, 0), (0, -1)], [1, 1, 1, 1])
    fl = structural_flags(p)
    assert not fl.primitive_normals
    with pytest.raises(StructuralError):
        fano_check(p, fl)


def test_vertex_cap():
    with pytest.raises(CapExceeded):
        enumerate_vertices(SQUARE, cap=5)


def test_nonsquare_offsets_rejected():
    with pytest.raises(ValueError):
        poly([(1, 0), (0, 1)], [1])
