"""Floating-point residual sweeps stay inside their tolerances."""

import numpy as np
import pytest

from lagrangelab.families import build
from lagrangelab.lattice import lattice_data
from lagrangelab.numerics import evaluate_psi, numeric_report
from lagrangelab.report import check_quadrics


def test_psi_evaluation():
    q = build("ex1", p=4, n=10, k=0).system
    u = np.ones(10)
    phi = np.array([0.5, 0.0])
    z = evaluate_psi(q, u, phi)
    # first block winds with phi_1: exp(i pi/2) = i
    assert np.allclose(z[:4], 1j)
    assert np.allclose(z[4:], 1.0)


def test_pentagon_residuals():
    rep = numeric_report(check_quadrics(build("th3").system), points=8, pairs=4, seed=11)
    assert rep.max_quadric_residual <= 1e-9
    assert rep.max_omega_residual <= 1e-8
    assert rep.max_loop_relative_error <= 1e-6
    assert rep.within()


def test_two_block_residuals():
    rep = numeric_report(check_quadrics(build("ex1", p=4, n=10, k=0).system),
                         points=8, pairs=4, seed=7)
    assert rep.within()


def test_determinism():
    report = check_quadrics(build("th3").system)
    a = numeric_report(report, seed=3)
    b = numeric_report(report, seed=3)
    assert a == b
    c = numeric_report(report, seed=4)
    assert c != a  # different sample, same verdict
    assert c.within()


def test_finite_difference_matches_torus_tangent():
    # central difference of psi in the phi directions against the analytic
    # tangent i*pi*gamma_mj*psi_j, at a definite interior point
    q = build("th3").system
    lat = lattice_data(q)
    g = np.asarray(q.gamma.data, dtype=float)
    u = np.sqrt(np.array([0.9, 1.7, 0.8, 0.3, 0.6]))
    phi = np.array([0.3, 0.7, 0.1])
    h = 1e-5
    for m in range(q.r):
        e = np.zeros(q.r)
        e[m] = 1.0
        fd = (evaluate_psi(q, u, phi + h * e) - evaluate_psi(q, u, phi - h * e)) / (2 * h)
        analytic = 1j * np.pi * g[m] * evaluate_psi(q, u, phi)
        assert np.abs(fd - analytic).max() < 1e-7


def test_simpson_guard():
    from lagrangelab.numerics import _simpson

    with pytest.raises(ValueError):
        _simpson(np.ones(4), 0.1)
