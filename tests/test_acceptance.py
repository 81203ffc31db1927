"""Acceptance gate: ten criteria, one pass/fail line each.

Run with -s to see the lines as they print; each criterion is a separate
test so the verbose listing doubles as the scoreboard. Timing bounds are
asserted where stated (pentagon/hexagon under one second, the two-block
grids under five, the merge oracle under sixty).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest

import test_merge_oracle
import test_properties
from lagrangelab.exactlinalg import IntMatrix
from lagrangelab.families import build
from lagrangelab.fibration import fibration_report
from lagrangelab.gale import polytope_to_quadrics
from lagrangelab.isotopy import isotopy_bound, pigeonhole
from lagrangelab.lattice import lattice_data
from lagrangelab.maslov import generator_report
from lagrangelab.numerics import numeric_report
from lagrangelab.polytope import PolytopePresentation
from lagrangelab.report import check_polytope, check_quadrics
from lagrangelab.topology import (
    ConnSum,
    Product,
    Sphere,
    SurfaceGenus,
    Torus,
    classify_fiber,
    h1_mod2,
    normalize,
    truncation_rule,
)


def run_criterion(num: int, label: str, body) -> None:
    t0 = perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num:02d} FAIL - {label}")
        raise
    print(f"criterion {num:02d} PASS - {label} ({perf_counter() - t0:.2f}s)")


def quick_maslov(inst):
    return generator_report(inst.system, lattice_data(inst.system))


def test_criterion_01_pentagon():
    def body():
        t0 = perf_counter()
        rep = check_polytope(PolytopePresentation(
            IntMatrix.from_rows([(1, 0, -1, 0, -1), (0, 1, 0, -1, -1)]),
            (Fraction(1),) * 5,
        ))
        elapsed = perf_counter() - t0
        assert rep.delzant.is_delzant
        assert rep.fano is not None and rep.fano.is_fano and rep.fano.c == 1
        assert rep.maslov.mu == (2, 2, 3)
        assert rep.maslov.minimal_maslov == 1
        assert rep.fiber == SurfaceGenus(5)
        assert rep.fibration.orientable is False
        assert elapsed < 1.0, f"pentagon took {elapsed:.2f}s"

    run_criterion(1, "pentagon: Delzant, c=1, mu=(2,2,3), N=1, genus 5,"
                     " non-orientable", body)


def test_criterion_02_hexagon():
    def body():
        t0 = perf_counter()
        poly = build("th5").polytope
        assert poly is not None
        rep = check_polytope(poly)
        elapsed = perf_counter() - t0
        assert rep.maslov.mu == (2, 2, 3, 1)
        assert rep.maslov.minimal_maslov == 1
        assert rep.fiber == SurfaceGenus(17)
        assert rep.fibration.orientable is False
        assert elapsed < 1.0, f"hexagon took {elapsed:.2f}s"

    run_criterion(2, "hexagon: mu=(2,2,3,1), N=1, genus 17, non-orientable",
                  body)


def test_criterion_03_two_block_gcd_table():
    def body():
        t0 = perf_counter()
        for n in range(10, 21, 2):
            for k in (0, 2):
                value = quick_maslov(build("ex1", p=4, n=n, k=k)).minimal_maslov
                assert value == gcd(4, n - 4 + k)
                if n % 4 == 2:
                    assert value == (2 if k == 0 else 4)
                else:
                    assert value == (4 if k == 0 else 2)
        grid1 = perf_counter() - t0
        t0 = perf_counter()
        values = [
            quick_maslov(build("ex1", p=24, n=72, k=k)).minimal_maslov
            for k in (0, 2, 4, 6, 8, 12)
        ]
        grid2 = perf_counter() - t0
        assert values == [24, 2, 4, 6, 8, 12]
        assert grid1 < 5.0 and grid2 < 5.0, (grid1, grid2)

    run_criterion(3, "two-block gcd table: mod-4 split for p=4 and the"
                     " six-value set for p=24", body)


def test_criterion_04_three_block():
    def body():
        assert quick_maslov(build("ex2", q=8, l=10, k=16, p=24, n=26)
                            ).minimal_maslov == 2
        got = set()
        for l in (26, 28, 30, 32, 36):
            inst = build("ex2", q=12, l=l, k=36, p=120, n=144)
            got.add(quick_maslov(inst).minimal_maslov)
            if l == 26:
                fib = classify_fiber(inst.system)
                assert fib == Product((Sphere(11), Sphere(47), Sphere(83)))
        # the top grid value has no system of this block shape (the middle
        # block would need negative size), so the builder refuses it and the
        # value is checked at the closed-form level
        with pytest.raises(ValueError, match="constraints violated"):
            build("ex2", q=12, l=48, k=36, p=120, n=144)
        got.add(gcd(gcd(144 - 120 + 48, 48 + 12 - 36), 120 - 36 + 12))
        assert got == {2, 4, 6, 8, 12, 24}

    run_criterion(4, "three-block: N=2 instance, {2,4,6,8,12,24} grid, fiber"
                     " S^11 x S^47 x S^83", body)


def test_criterion_05_five_fold():
    def body():
        for p in (12, 24):
            expected_fiber = normalize(ConnSum(tuple(
                Product((Sphere(2 * p - 1), Sphere(3 * p - 2)))
                for _ in range(5)
            )))
            for qv in range(2, p, 2):
                inst = build("th4", p=p, q=qv)
                assert quick_maslov(inst).minimal_maslov == gcd(p, qv)
                assert classify_fiber(inst.system) == expected_fiber
        values = set()
        h1 = None
        for qv in (2, 4, 6, 8, 12, 16, 24, 32, 48, 96):
            inst = build("th4", p=192, q=qv)
            lat = lattice_data(inst.system)
            rep = generator_report(inst.system, lat)
            values.add(rep.minimal_maslov)
            fr = fibration_report(inst.system, lat, rep)
            assert fr.trivial is True
            h1 = inst.system.r + h1_mod2(classify_fiber(inst.system))
        assert values == {2, 4, 6, 8, 12, 16, 24, 32, 48, 96}
        bound = isotopy_bound(960, h1)
        assert bound.bound == 8
        verdict = pigeonhole(sorted(values), bound.bound)
        assert verdict.collision is True

    run_criterion(5, "five-fold sums: fiber and N=gcd(p,q) for p=12,24; ten"
                     " values vs bound 8 flags a collision", body)


def test_criterion_06_weighted_pentagon():
    def body():
        for k in (4, 6, 8):
            poly = build("th6", k=k).polytope
            assert poly is not None
            rep = check_polytope(poly)
            assert rep.embedding.is_embedded is False
            assert rep.delzant.is_delzant is False
            assert rep.maslov.monotone and rep.maslov.monotone_c == 1
            assert rep.maslov.minimal_maslov == k
            assert rep.fibration.orientable is (k % 2 == 0)

    run_criterion(6, "weighted pentagon: not embedded, monotone c=1, N=k,"
                     " orientable for even k", body)


def test_criterion_07_property_suite():
    def body():
        test_properties.test_embedding_matches_delzant()
        test_properties.test_reflexive_matches_monotone()
        test_properties.test_gale_round_trip_canonical()
        test_properties.test_minimal_maslov_row_invariance()
        test_properties.test_normal_form_identities()

    run_criterion(7, "property sweeps (5 x 500 seeded cases): zero failures",
                  body)


def test_criterion_08_merge_oracle():
    def body():
        t0 = perf_counter()
        test_merge_oracle.test_merge_order_confluence()
        test_merge_oracle.test_merge_order_confluence_full_multiplicities()
        test_merge_oracle.test_merge_order_confluence_repeated_directions()
        elapsed = perf_counter() - t0
        assert elapsed < 60.0, f"oracle took {elapsed:.2f}s"

    run_criterion(8, "merge-order oracle: unique fixpoint on every config,"
                     " under 60s", body)


def test_criterion_09_numeric_spot_check():
    def body():
        pentagon = polytope_to_quadrics(PolytopePresentation(
            IntMatrix.from_rows([(1, 0, -1, 0, -1), (0, 1, 0, -1, -1)]),
            (Fraction(1),) * 5,
        ))
        two_block = build("ex1", p=4, n=10, k=0).system
        for q in (pentagon, two_block):
            rep = numeric_report(check_quadrics(q), seed=0)
            again = numeric_report(check_quadrics(q), seed=0)
            assert rep == again  # seeded and deterministic
            assert rep.within(1e-9, 1e-8, 1e-6), rep

    run_criterion(9, "numeric spot check: quadric membership, symplectic"
                     " pullback, loop quadrature in tolerance", body)


def test_criterion_10_truncation_chain():
    def body():
        closed = {m: 1 + (m - 4) * 2 ** (m - 3) for m in (4, 5, 6)}
        assert closed == {4: 1, 5: 5, 6: 17}
        square = PolytopePresentation(
            IntMatrix.from_rows([(1, 0, -1, 0), (0, 1, 0, -1)]),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        )
        start = classify_fiber(polytope_to_quadrics(square))
        assert start == Torus(2)
        step5 = normalize(truncation_rule(start, 2, 4))
        assert step5 == SurfaceGenus(closed[5])
        step6 = normalize(truncation_rule(step5, 2, 5))
        assert step6 == SurfaceGenus(closed[6])
        # the chain lands on the classifier outputs for the real polygons
        pentagon = PolytopePresentation(
            IntMatrix.from_rows([(1, 0, -1, 0, -1), (0, 1, 0, -1, -1)]),
            (Fraction(1),) * 5,
        )
        assert classify_fiber(polytope_to_quadrics(pentagon)) == step5
        hexagon = build("th5")
        assert classify_fiber(hexagon.system) == step6

    run_criterion(10, "truncation chain: torus -> genus 5 -> genus 17 matches"
                      " the classifier", body)
