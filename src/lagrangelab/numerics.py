"""Floating-point spot checks of the torus-fibered immersion.

Nothing here feeds a verdict; the exact pipeline decides everything. These
checks exist to catch sign conventions going stale: sampled points must
satisfy the quadrics, the standard symplectic form must vanish on tangent
pairs, and the Liouville form integrated along a base loop must reproduce
pi * <eps_i, delta>.

Sampling goes through the report's polytope and reuses its vertices: an
interior point x gives u_j = sign_j * sqrt(<a_j, x> + b_j), which lies on
the quadrics to machine precision because gamma annihilates the normals
and maps the offsets to delta, for either input presentation. Tangent
vectors to the image of psi split into fiber directions (a direction d in
the polytope induces du_j = sign_j <a_j, d> / (2 sqrt(c_j))) and torus
directions (i pi gamma_mj psi_j); both are exact up to rounding, so the
symplectic residual genuinely measures the Lagrangian property, not
sampling error.

Each point is checked in a few array operations. Its r torus and `pairs`
fiber tangents are the rows of one normalised complex matrix T, and the
symplectic residual is the largest |Im(conj(T) T^T)| off the diagonal, the
form on every pair of rows at once. The Liouville integrand is sampled for
all r loops and all loop samples together, as an (r, samples, n) array,
and integrated by Simpson's rule along its last axis. The random draws
come in the same order as in a per-pair, per-sample loop, which
tests/test_numerics.py keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gale import QuadricSystem
from .report import LagrangianReport

__all__ = ["LOOP_TOLERANCE", "NumericReport", "evaluate_psi", "numeric_report"]

LOOP_TOLERANCE = 1e-6  # on the Liouville loop integral's relative error


@dataclass(frozen=True)
class NumericReport:
    points: int
    pairs: int
    max_quadric_residual: float  # |gamma_m u^2 - delta_m| / max(1, |delta_m|)
    max_omega_residual: float
    max_loop_relative_error: float

    def within(
        self,
        tol_membership: float = 1e-9,
        tol_lagrangian: float = 1e-8,
        tol_loop: float = LOOP_TOLERANCE,
    ) -> bool:
        return (
            self.max_quadric_residual <= tol_membership
            and self.max_omega_residual <= tol_lagrangian
            and self.max_loop_relative_error <= tol_loop
        )


def evaluate_psi(q: QuadricSystem, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """psi(u, phi)_j = u_j exp(i pi <gamma_j, phi>)."""
    g = np.asarray(q.gamma.data, dtype=float)
    phase = np.pi * (g.T @ np.asarray(phi, dtype=float))
    return np.asarray(u, dtype=float) * np.exp(1j * phase)


def _simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Composite Simpson rule along the last axis, whose length must be odd."""
    if values.shape[-1] % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    weights = np.ones(values.shape[-1])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return step / 3.0 * (values @ weights)


def _liouville(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """lambda = (1/2) sum (x_j dy_j - y_j dx_j) on tangents along the last axis."""
    return 0.5 * np.imag(np.sum(np.conj(z) * dz, axis=-1))


def numeric_report(
    rep: LagrangianReport,
    points: int = 8,
    pairs: int = 4,
    seed: int = 0,
    loop_samples: int = 65,
) -> NumericReport:
    """Seeded residual sweep; all maxima over `points` sampled points."""
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
    loop_scale = np.maximum(1.0, np.abs(loop_targets))
    windings = eps_rows @ g  # <eps_i, gamma_j>, integral in exact arithmetic

    # Liouville form along the base loop of generator i: phi moves by
    # 2 eps_i while u stays put, closing up because the windings are
    # integers. The phases along every loop, (r, loop_samples, n), do not
    # depend on the point.
    s_grid = np.linspace(0.0, 2.0, loop_samples)
    step = s_grid[1] - s_grid[0]
    loop_phase = np.exp(1j * np.pi * s_grid[:, None] * windings[:, None, :])
    loop_velocity = 1j * np.pi * windings[:, None, :]
    upper = np.triu_indices(r + pairs, 1)

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

        # rows: the r torus tangents, then the fiber tangents of `pairs`
        # random directions in the polytope, each normalised; omega of two
        # rows is Im of their Hermitian product
        phase = np.exp(1j * np.pi * (g.T @ phi))
        d = np.array([rng.normal(size=p.dim) for _ in range(pairs)]).reshape(pairs, p.dim)
        du = signs * (d @ a.T) / (2.0 * np.sqrt(c))
        tangents = np.concatenate([1j * np.pi * g * psi, du * phase])
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        omega = np.imag(np.conj(tangents) @ tangents.T)[upper]
        max_omega = max(max_omega, float(np.abs(omega).max(initial=0.0)))

        z = u * loop_phase
        integrals = _simpson(_liouville(z, loop_velocity * z), step)
        errors = np.abs(integrals - loop_targets) / loop_scale
        max_loop = max(max_loop, float(errors.max(initial=0.0)))

    return NumericReport(
        points=points,
        pairs=pairs + r,
        max_quadric_residual=max_quadric,
        max_omega_residual=max_omega,
        max_loop_relative_error=max_loop,
    )
