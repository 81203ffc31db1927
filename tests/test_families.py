"""Family builders: closed forms must agree with the computed pipeline."""

from fractions import Fraction

import pytest

from lagrangelab.errors import StructuralError
from lagrangelab.families import FAMILIES, build
from lagrangelab.fibration import fibration_report
from lagrangelab.gale import embedded_check, quadrics_to_polytope
from lagrangelab.lattice import lattice_data
from lagrangelab.maslov import generator_report
from lagrangelab.polytope import (
    delzant_check,
    enumerate_vertices,
    fano_check,
    gate,
    structural_flags,
)
from lagrangelab.topology import ConnSum, Product, Sphere, SurfaceGenus, classify_fiber, normalize


def pipeline(inst):
    lat = lattice_data(inst.system)
    mas = generator_report(inst.system, lat)
    fib = fibration_report(inst.system, lat, mas)
    return lat, mas, fib


def check_closed_forms(inst):
    """Pipeline values must reproduce the closed forms stored on the instance."""
    if not inst.validated:
        gate(quadrics_to_polytope(inst.system))  # raises on a rejected polytope
    lat, mas, fib = pipeline(inst)
    assert mas.minimal_maslov == inst.minimal_maslov
    assert fib.orientable == inst.orientable
    assert fib.trivial == inst.trivial
    got = classify_fiber(inst.system)
    assert got == normalize(inst.fiber)
    return lat, mas, fib


def test_two_block_even():
    inst = build("ex1", p=4, n=10, k=0)
    assert inst.system.gamma.data == (
        (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 1, 1, 1, 1),
    )
    assert inst.system.delta == (4, 6)
    assert inst.minimal_maslov == 2
    assert inst.fiber == Product((Sphere(3), Sphere(5)))
    assert inst.orientable and inst.trivial is True
    lat, mas, _ = check_closed_forms(inst)
    assert lat.basis_columns == (3, 9)
    assert mas.mu == (4, 6)
    assert mas.monotone and mas.monotone_c == 1


def test_two_block_odd():
    inst = build("ex1", p=3, n=7, k=0)
    assert inst.minimal_maslov == 1
    assert not inst.orientable and inst.trivial is False
    check_closed_forms(inst)


def test_two_block_mixed_parity():
    # p even, n and k odd: orientable but the pairing criterion cannot decide
    inst = build("ex1", p=4, n=11, k=1)
    assert inst.orientable and inst.trivial is None
    check_closed_forms(inst)


# every ex2 point with q <= 5, l <= 8, k <= 10, p <= 14, n <= 18 whose l-q
# and n-p blocks are both odd while the other blocks are even
EX2_ODD_SHARED_BLOCKS = (
    (2, 3, 3, 7, 8), (2, 3, 3, 9, 10), (2, 3, 3, 9, 12), (2, 3, 3, 11, 12),
    (2, 3, 3, 11, 14), (2, 3, 3, 11, 16), (2, 3, 3, 13, 14), (2, 3, 3, 13, 16),
    (2, 3, 3, 13, 18), (2, 5, 5, 11, 12), (2, 5, 5, 13, 14), (2, 5, 5, 13, 16),
    (4, 5, 5, 9, 10), (4, 5, 5, 11, 12), (4, 5, 5, 11, 14), (4, 5, 5, 13, 14),
    (4, 5, 5, 13, 16), (4, 5, 5, 13, 18), (4, 5, 7, 11, 12), (4, 5, 7, 13, 14),
    (4, 5, 7, 13, 16), (4, 7, 7, 13, 14),
)


def test_three_block_instance():
    inst = build("ex2", q=8, l=10, k=16, p=24, n=26)
    assert inst.system.delta == (12, -2, 16)
    assert inst.minimal_maslov == 2
    assert inst.fiber == Product((Sphere(9), Sphere(7), Sphere(7)))
    assert inst.orientable and inst.trivial is True
    lat, mas, fib = check_closed_forms(inst)
    assert lat.basis_columns == (15, 23, 25)
    assert mas.mu == (2, 16, 12)
    # the two (1,0,0) blocks are one coordinate class
    assert (8, 9, 24, 25) in fib.coordinate_classes
    # so triviality needs that class even, not each block: both blocks odd
    for q, l, k, p, n in EX2_ODD_SHARED_BLOCKS:
        inst = build("ex2", q=q, l=l, k=k, p=p, n=n)
        assert (l - q) % 2 == 1 and (n - p) % 2 == 1
        assert inst.trivial is True
        check_closed_forms(inst)


def test_three_block_empty_middle():
    # l = k is allowed: the middle block vanishes but the system, its
    # closed forms, and the classifier all stay consistent
    inst = build("ex2", q=2, l=4, k=4, p=12, n=14)
    assert inst.system.delta == (6, -2, 10)
    assert inst.minimal_maslov == 2
    assert inst.fiber == Product((Sphere(3), Sphere(7), Sphere(1)))
    assert inst.orientable and inst.trivial is True
    check_closed_forms(inst)


def test_five_fold_odd():
    inst = build("th4", p=2, q=1)
    assert inst.minimal_maslov == 1
    assert not inst.orientable and inst.trivial is False
    assert normalize(inst.fiber) == ConnSum(
        tuple(Product((Sphere(3), Sphere(4))) for _ in range(5))
    )
    check_closed_forms(inst)


def test_five_fold_even():
    inst = build("th4", p=4, q=2)
    assert inst.minimal_maslov == 2
    assert inst.orientable and inst.trivial is True
    _, mas, _ = check_closed_forms(inst)
    assert mas.mu == (8, 10, 12)


def test_pentagon_family():
    inst = build("th3")
    assert inst.polytope is not None and inst.polytope.n == 5
    verts = enumerate_vertices(inst.polytope)
    flags = structural_flags(inst.polytope, verts)
    assert delzant_check(inst.polytope, verts, flags).is_delzant
    fano = fano_check(inst.polytope, flags)
    assert fano.is_fano and fano.c == 1
    _, mas, _ = check_closed_forms(inst)
    assert mas.mu == (2, 2, 3)
    assert inst.fiber == SurfaceGenus(5)


def test_hexagon_family():
    inst = build("th5")
    _, mas, _ = check_closed_forms(inst)
    assert mas.mu == (2, 2, 3, 1)
    assert inst.fiber == SurfaceGenus(17)
    assert embedded_check(inst.system, enumerate_vertices(quadrics_to_polytope(inst.system))).is_embedded


def test_weighted_pentagon_k4():
    inst = build("th6", k=4)
    poly = inst.polytope
    verts = enumerate_vertices(poly)
    assert [v.point for v in verts] == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(8, 7)),
        (Fraction(8, 7), Fraction(8, 7)),
        (Fraction(4, 3), Fraction(0)),
        (Fraction(4, 3), Fraction(10, 9)),
    ]
    flags = structural_flags(poly, verts)
    assert flags.all_pass() and not flags.primitive_normals
    dz = delzant_check(poly, verts, flags)
    assert not dz.is_delzant
    assert dz.witness.point == (Fraction(0), Fraction(8, 7))
    assert dz.witness.active == (0, 3)
    assert dz.witness_index == 7
    # rescaled normals make the reflexive-translation test meaningless
    with pytest.raises(StructuralError):
        fano_check(poly, flags)
    # monotonicity is still visible on the quadric side
    _, mas, _ = check_closed_forms(inst)
    assert mas.monotone and mas.monotone_c == 1
    assert mas.mu == (4, 8, 8)
    assert inst.minimal_maslov == 4
    assert inst.orientable and inst.trivial is None
    # not embedded, in agreement with the failed vertex-smoothness test
    dual = quadrics_to_polytope(inst.system)
    assert not embedded_check(inst.system, enumerate_vertices(dual)).is_embedded


def test_weighted_pentagon_k5():
    inst = build("th6", k=5)
    assert inst.minimal_maslov == 5
    assert not inst.orientable and inst.trivial is False
    check_closed_forms(inst)


def test_weighted_sphere():
    round_ = build("sphere", gamma1=1, m=2)
    assert round_.minimal_maslov == 4
    assert round_.fiber == Sphere(3)
    assert round_.orientable and round_.trivial is True
    check_closed_forms(round_)
    dual = quadrics_to_polytope(round_.system)
    assert embedded_check(round_.system, enumerate_vertices(dual)).is_embedded

    odd_weight = build("sphere", gamma1=3, m=2)
    assert odd_weight.minimal_maslov == 6
    assert odd_weight.orientable and odd_weight.trivial is None
    check_closed_forms(odd_weight)
    dual = quadrics_to_polytope(odd_weight.system)
    assert not embedded_check(odd_weight.system, enumerate_vertices(dual)).is_embedded

    even_weight = build("sphere", gamma1=2, m=2)
    assert even_weight.minimal_maslov == 5
    assert not even_weight.orientable and even_weight.trivial is False
    check_closed_forms(even_weight)


def test_registry_and_dispatch():
    assert set(FAMILIES) == {"ex1", "ex2", "th3", "th4", "th5", "th6", "sphere"}
    with pytest.raises(ValueError, match="unknown family"):
        build("nope")
    with pytest.raises(ValueError, match="missing"):
        build("ex1", p=4, n=10)
    with pytest.raises(ValueError, match="unexpected"):
        build("th3", k=1)


@pytest.mark.parametrize(
    "family,params",
    [
        ("ex1", dict(p=4, n=10, k=3)),  # k = p-1
        ("ex1", dict(p=4, n=7, k=0)),  # n-p+k <= p
        ("ex2", dict(q=8, l=10, k=20, p=24, n=26)),  # k-l-q >= 0
        ("ex2", dict(q=2, l=4, k=5, p=6, n=20)),  # n-p+k-q >= p-l
        ("th4", dict(p=4, q=4)),  # q > p-1
        ("th4", dict(p=4, q=0)),
        ("th6", dict(k=3)),
        ("sphere", dict(gamma1=0, m=2)),
    ],
)
def test_constraint_violations(family, params):
    with pytest.raises(ValueError, match="parameter constraints violated"):
        build(family, **params)
