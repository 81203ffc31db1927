"""Floating-point residual sweeps stay inside their tolerances."""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lagrangelab.exactlinalg import IntMatrix
from lagrangelab.families import build
from lagrangelab.lattice import lattice_data
from lagrangelab.numerics import NumericReport, evaluate_psi, numeric_report
from lagrangelab.report import check_quadrics

# the ladder of the benchmark: every family shape the check meets
LADDER = (
    ("th3", {}),
    ("th5", {}),
    ("ex1", {"p": 4, "n": 10, "k": 0}),
    ("th4", {"p": 2, "q": 1}),
    ("ex2", {"q": 2, "l": 4, "k": 4, "p": 12, "n": 14}),
    ("ex1", {"p": 6, "n": 16, "k": 2}),
    ("th4", {"p": 3, "q": 2}),
)


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


def old_simpson(values: np.ndarray, step: float) -> float:
    """The one-dimensional Simpson rule numeric_report used before batching."""
    if len(values) % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    weights = np.ones(len(values))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(step / 3.0 * (weights @ values))


def old_liouville(z: np.ndarray, dz: np.ndarray) -> float:
    return 0.5 * float(np.imag(np.conj(z) @ dz))


def old_numeric_report(rep, points=8, pairs=4, seed=0, loop_samples=65):
    """numeric_report before batching, kept as the reference: one Python
    iteration per tangent pair and per loop sample."""
    q, p, lat = rep.system, rep.polytope, rep.lattice
    rng = np.random.default_rng(seed)
    g = np.asarray(q.gamma.data, dtype=float)
    delta = np.asarray([float(d) for d in q.delta])
    r, n = g.shape

    verts = np.asarray([[float(c) for c in v.point] for v in rep.vertices])
    a = np.asarray(
        [[float(x) for x in p.normal(j)] for j in range(n)]
    )  # row j = a_j
    b = np.asarray([float(x) for x in p.offsets])
    centroid = verts.mean(axis=0)

    eps_rows = np.asarray(
        [[float(e) for e in eps] for eps in lat.dual_basis]
    )
    # float error in gamma u^2 grows with |delta|, so the residual is
    # relative, like the loop error
    delta_scale = np.maximum(1.0, np.abs(delta))
    loop_targets = np.pi * (eps_rows @ delta)
    windings = eps_rows @ g  # <eps_i, gamma_j>, integral in exact arithmetic

    max_quadric = 0.0
    max_omega = 0.0
    max_loop = 0.0
    for _ in range(points):
        w = rng.dirichlet(np.ones(len(verts)))
        # mix with the centroid so every facet keeps a definite margin
        x = 0.5 * (w @ verts) + 0.5 * centroid
        c = a @ x + b
        signs = rng.choice((-1.0, 1.0), size=n)
        u = signs * np.sqrt(c)
        phi = rng.uniform(0.0, 2.0, size=r)
        psi = evaluate_psi(q, u, phi)

        max_quadric = max(
            max_quadric, float((np.abs(g @ (u * u) - delta) / delta_scale).max())
        )

        phase = np.exp(1j * np.pi * (g.T @ phi))
        tangents = [1j * np.pi * g[m] * psi for m in range(r)]
        for _ in range(pairs):
            d = rng.normal(size=p.dim)
            du = signs * (a @ d) / (2.0 * np.sqrt(c))
            tangents.append(du * phase)
        tangents = [t / np.linalg.norm(t) for t in tangents]
        for s_idx in range(len(tangents)):
            for t_idx in range(s_idx + 1, len(tangents)):
                omega = float(
                    np.imag(np.conj(tangents[s_idx]) @ tangents[t_idx])
                )
                max_omega = max(max_omega, abs(omega))

        # Liouville form along the base loop of generator i: phi moves by
        # 2 eps_i while u stays put, closing up because the windings are
        # integers
        s_grid = np.linspace(0.0, 2.0, loop_samples)
        step = s_grid[1] - s_grid[0]
        for i in range(r):
            m = windings[i]
            vals = np.empty(loop_samples)
            for k, s in enumerate(s_grid):
                z = u * np.exp(1j * np.pi * s * m)
                dz = 1j * np.pi * m * z
                vals[k] = old_liouville(z, dz)
            integral = old_simpson(vals, step)
            target = loop_targets[i]
            max_loop = max(
                max_loop, abs(integral - target) / max(1.0, abs(target))
            )

    return NumericReport(
        points=points,
        pairs=pairs + r,
        max_quadric_residual=max_quadric,
        max_omega_residual=max_omega,
        max_loop_relative_error=max_loop,
    )


def perturbed(report):
    """The report with one gamma entry and every delta moved: the sampled
    points leave the quadrics, the tangents stop being isotropic and the
    loops miss their targets, so all three residuals are of order one."""
    rows = [list(row) for row in report.system.gamma.data]
    rows[0][0] += 1
    system = SimpleNamespace(
        gamma=IntMatrix.from_rows(rows),
        delta=tuple(d + Fraction(1, 3) for d in report.system.delta),
    )
    return dataclasses.replace(report, system=system)


@pytest.mark.parametrize("family,params", LADDER)
def test_batched_report_matches_loop_oracle(family, params):
    """The batched sweep draws the same samples as the per-pair, per-sample
    loop and reaches the same residuals up to summation order: within 1e-14
    absolute on the real report, and to 1e-12 relative on a perturbed one
    whose residuals are of order one. Sample counts other than the defaults
    are covered too."""
    report = check_quadrics(build(family, **params).system)
    broken = perturbed(report)
    names = ("max_quadric_residual", "max_omega_residual", "max_loop_relative_error")
    for seed, points, pairs, loop_samples in (
        (0, 8, 4, 65), (1, 8, 4, 65), (5, 8, 4, 65), (17, 3, 0, 9), (23, 2, 1, 33),
    ):
        new = numeric_report(report, points, pairs, seed, loop_samples)
        old = old_numeric_report(report, points, pairs, seed, loop_samples)
        assert (new.points, new.pairs) == (old.points, old.pairs)
        for name in names:
            assert abs(getattr(new, name) - getattr(old, name)) <= 1e-14, name
        new = numeric_report(broken, points, pairs, seed, loop_samples)
        old = old_numeric_report(broken, points, pairs, seed, loop_samples)
        for name in names:
            assert getattr(new, name) == pytest.approx(getattr(old, name), rel=1e-12), name
            assert getattr(old, name) > 1e-3 or name == "max_omega_residual" and pairs == 0
