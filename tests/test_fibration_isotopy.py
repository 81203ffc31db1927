"""Bundle orientability/triviality and smooth-isotopy class counting."""

from fractions import Fraction

import pytest

from lagrangelab.exactlinalg import IntMatrix
from lagrangelab.fibration import fibration_report
from lagrangelab.gale import QuadricSystem
from lagrangelab.isotopy import IsotopyBound, isotopy_bound, pigeonhole
from lagrangelab.lattice import lattice_data
from lagrangelab.maslov import generator_report
from lagrangelab.topology import (
    ConnSum,
    Disjoint,
    Product,
    Sphere,
    SurfaceGenus,
    Torus,
    Unknown,
    h1_mod2,
)


def report_for(rows, delta):
    q = QuadricSystem(IntMatrix.from_rows(rows), tuple(Fraction(d) for d in delta))
    lat = lattice_data(q)
    mas = generator_report(q, lat)
    return fibration_report(q, lat, mas)


def test_pentagon_fibration():
    rep = report_for([(1, 0, 0, -1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 1, -1)], (1, 2, 1))
    assert rep.flips == ((1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (1, 1, 0, 0, 1))
    assert rep.preserving == (True, True, False)
    assert not rep.orientable
    assert rep.trivial is False
    # all five columns distinct: five singleton classes
    assert rep.coordinate_classes == ((0,), (1,), (2,), (3,), (4,))


def test_hexagon_fibration():
    rep = report_for(
        [(1, 0, 0, -1, 0, -1), (0, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1), (0, 0, 0, 0, 1, 1)],
        (-1, 2, 3, 2),
    )
    assert rep.preserving == (True, True, False, False)
    assert not rep.orientable


def test_two_block_trivial_bundle():
    rep = report_for(
        [(1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1, 1, 1)],
        (4, 6),
    )
    assert rep.orientable
    assert rep.trivial is True
    assert rep.coordinate_classes == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    assert rep.flips == ((1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1, 1, 1))


def test_two_block_odd_parameter_reverses():
    rep = report_for(
        [(1, 1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1, 1)],
        (4, 5),
    )
    assert rep.preserving == (True, False)
    assert rep.trivial is False


def test_orientable_but_undetermined():
    # row sums even (orientable) but the weighted coordinate sits alone in
    # its class and is flipped once, so the pairing criterion cannot decide
    rep = report_for([(3, 1, 1, 1)], (6,))
    assert rep.orientable
    assert rep.trivial is None


def test_h1_rules():
    assert h1_mod2(Sphere(1)) == 1
    assert h1_mod2(Sphere(7)) == 0
    assert h1_mod2(Torus(4)) == 4
    assert h1_mod2(SurfaceGenus(5)) == 10
    assert h1_mod2(Product((Torus(3), SurfaceGenus(2)))) == 7
    five = ConnSum(tuple(Product((Sphere(3), Sphere(4))) for _ in range(5)))
    assert h1_mod2(five) == 0
    assert h1_mod2(Disjoint(2, Sphere(1))) == 2
    assert h1_mod2(Unknown("?")) is None
    assert h1_mod2(Product((Sphere(2), Unknown("?")))) is None


def test_isotopy_bounds():
    assert isotopy_bound(144, 3) == IsotopyBound(
        144, 3, 8, "at most 2^3 smooth isotopy classes"
    )
    assert isotopy_bound(5, 13).bound is None  # odd dimension
    assert isotopy_bound(4, 2).bound is None  # below stable range
    assert isotopy_bound(60, None).bound is None  # fiber unknown


def test_pigeonhole():
    ten = [2, 4, 6, 8, 12, 16, 24, 32, 48, 96]
    rep = pigeonhole(ten, 8)
    assert rep.collision
    assert rep.distinct_values == tuple(sorted(ten))
    assert not pigeonhole([2, 4, 6, 8, 12, 24], 8).collision
    assert not pigeonhole(ten, None).collision
    assert not pigeonhole([3, 3, 3], 1).collision
