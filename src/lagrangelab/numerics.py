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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gale import QuadricSystem
from .report import LagrangianReport

__all__ = ["NumericReport", "evaluate_psi", "numeric_report"]


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
        tol_loop: float = 1e-6,
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


def _simpson(values: np.ndarray, step: float) -> float:
    """Composite Simpson rule; len(values) must be odd."""
    if len(values) % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    weights = np.ones(len(values))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(step / 3.0 * (weights @ values))


def _liouville(z: np.ndarray, dz: np.ndarray) -> float:
    """lambda = (1/2) sum (x_j dy_j - y_j dx_j) evaluated on a tangent."""
    return 0.5 * float(np.imag(np.conj(z) @ dz))


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
                vals[k] = _liouville(z, dz)
            integral = _simpson(vals, step)
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
