"""End-to-end verdict assembly with cross-checked invariants.

A report always carries both sides of the duality: the polytope verdicts
(structural flags, vertex smoothness, reflexive translation) and the
quadric-side verdicts (injectivity into the torus quotient, monotonicity,
pairing numbers). The two sides are computed independently and compared;
a disagreement is an internal error, never silently resolved.

The quadric-side chain (lattice, pairing numbers, fiber, fibration, mod-2
rank, smooth-class bound) is `quadric_invariants`; the family harness
behind `reproduce` and `scan` calls the same function.

Two theorems are enforced as hard invariants:
  * the intersection embeds iff the polytope passes the vertex smoothness
    test, witness by witness (both are computed, a mismatch raises);
  * on smooth instances, a reflexive translation exists iff delta is a
    positive multiple of the row-sum vector, with the same constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantError, StructuralError
from .fibration import FibrationReport, fibration_report
from .gale import (
    EmbeddingResult,
    QuadricSystem,
    embedded_check,
    polytope_to_quadrics,
    quadrics_to_polytope,
)
from .isotopy import IsotopyBound, PigeonholeReport, isotopy_bound, pigeonhole
from .lattice import LatticeData, lattice_data
from .maslov import MaslovReport, generator_report
from .polytope import (
    DelzantResult,
    FanoResult,
    PolytopePresentation,
    StructuralFlags,
    VertexData,
    delzant_check,
    fano_check,
    gate,
)
from .topology import (
    TopologyExpr,
    Unknown,
    classify_fiber,
    connectivity_bound,
    expr_dict,
    expr_dim,
    h1_mod2,
    render,
)

__all__ = [
    "LagrangianReport",
    "QuadricInvariants",
    "check_polytope",
    "check_quadrics",
    "frac_str",
    "pigeonhole_reports",
    "quadric_invariants",
    "render_text",
    "report_dict",
    "type_key",
]


@dataclass(frozen=True)
class QuadricInvariants:
    """Everything computed from the quadric side alone; a full report adds
    the polytope-side verdicts."""

    system: QuadricSystem
    lattice: LatticeData
    maslov: MaslovReport
    fiber: TopologyExpr
    fiber_connectivity: int | None  # attached only when the fiber is Unknown
    fibration: FibrationReport
    h1_rank: int | None  # mod-2 rank of the total space, when determined
    isotopy: IsotopyBound
    diagnostics: tuple[str, ...]


def quadric_invariants(
    q: QuadricSystem, vertices: tuple[VertexData, ...]
) -> QuadricInvariants:
    """The quadric-side chain of a gated system. `vertices` (the gate's) are
    read only for the connectivity bound of an unclassified fiber; families
    valid by construction skip the gate and pass ()."""
    diagnostics: list[str] = []
    lat = lattice_data(q)
    maslov = generator_report(q, lat)

    fiber = classify_fiber(q)
    fiber_h1 = h1_mod2(fiber)
    fiber_connectivity: int | None = None
    if isinstance(fiber, Unknown):
        j = connectivity_bound([v.active for v in vertices], q.n)
        fiber_connectivity = j
        fiber = Unknown(fiber.reason, connectivity=j)
        diagnostics.append(
            f"fiber not classified; it is at least {j - 1}-connected "
            f"(every {j}-subset of facets meets)"
        )
    elif fiber_h1:
        diagnostics.append(
            "N computed from base generators; fiber classes contribute 0"
        )

    fibration = fibration_report(q, lat, maslov)
    if fibration.trivial is True:
        h1_rank = None if fiber_h1 is None else q.r + fiber_h1
    else:
        h1_rank = None
        if fibration.trivial is None:
            diagnostics.append(
                "bundle triviality undetermined; no smooth-class bound claimed"
            )
        else:
            diagnostics.append(
                "total space not orientable: smooth-class bound inapplicable"
            )
    return QuadricInvariants(
        system=q,
        lattice=lat,
        maslov=maslov,
        fiber=fiber,
        fiber_connectivity=fiber_connectivity,
        fibration=fibration,
        h1_rank=h1_rank,
        isotopy=isotopy_bound(q.n, h1_rank),
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class LagrangianReport(QuadricInvariants):
    source: str  # "polytope" or "quadrics"
    polytope: PolytopePresentation
    vertices: tuple[VertexData, ...]
    flags: StructuralFlags
    delzant: DelzantResult
    embedding: EmbeddingResult
    fano: FanoResult | None  # None when the check refused (non-primitive normals)
    fano_refusal: str | None

    @property
    def embedded(self) -> bool:
        return self.embedding.is_embedded

    @property
    def dim_total(self) -> int:
        """Dimension of the submanifold of C^n (equal to n)."""
        return self.system.n


def check_polytope(p: PolytopePresentation) -> LagrangianReport:
    vertices, flags = gate(p)
    return _assemble("polytope", p, vertices, flags, polytope_to_quadrics(p))


def check_quadrics(q: QuadricSystem) -> LagrangianReport:
    p = quadrics_to_polytope(q)
    vertices, flags = gate(p)
    return _assemble("quadrics", p, vertices, flags, q)


def _assemble(
    source: str,
    p: PolytopePresentation,
    vertices: tuple[VertexData, ...],
    flags: StructuralFlags,
    q: QuadricSystem,
) -> LagrangianReport:
    diagnostics: list[str] = []

    dz = delzant_check(p, vertices, flags)
    emb = embedded_check(q, vertices)
    if (emb.is_embedded, emb.witness, emb.witness_index) != (
        dz.is_delzant, dz.witness, dz.witness_index
    ):
        raise InternalInvariantError(
            "torus-quotient injectivity disagrees with vertex smoothness: "
            f"embedded={emb.is_embedded} at {emb.witness and _point(emb.witness.point)} "
            f"(index {emb.witness_index}), delzant={dz.is_delzant} at "
            f"{dz.witness and _point(dz.witness.point)} (index {dz.witness_index})"
        )
    if not dz.is_delzant:
        diagnostics.append(
            "not embedded: the map is an immersion with double points "
            f"(vertex {tuple(map(str, dz.witness.point))} has lattice "
            f"index {dz.witness_index})"
        )

    fano: FanoResult | None
    fano_refusal: str | None
    try:
        fano = fano_check(p, flags)
        fano_refusal = None
    except StructuralError as exc:  # non-primitive normals: refusal, not a crash
        fano = None
        fano_refusal = str(exc)
        diagnostics.append(fano_refusal)

    inv = quadric_invariants(q, vertices)
    if dz.is_delzant and fano is not None:
        if fano.is_fano != inv.maslov.monotone:
            raise InternalInvariantError(
                "reflexive-translation verdict disagrees with monotonicity: "
                f"fano={fano.is_fano}, monotone={inv.maslov.monotone}"
            )
        if fano.is_fano and fano.c != inv.maslov.monotone_c:
            raise InternalInvariantError(
                f"support constant {fano.c} differs from monotonicity "
                f"constant {inv.maslov.monotone_c}"
            )

    return LagrangianReport(
        **{**vars(inv), "diagnostics": tuple(diagnostics) + inv.diagnostics},
        source=source,
        polytope=p,
        vertices=vertices,
        flags=flags,
        delzant=dz,
        embedding=emb,
        fano=fano,
        fano_refusal=fano_refusal,
    )


def type_key(rep: QuadricInvariants) -> tuple:
    """Diffeomorphism type of the total space: rendered fiber, number of
    quadrics, triviality and ambient dimension."""
    return (render(rep.fiber), rep.system.r, rep.fibration.trivial, rep.system.n)


def pigeonhole_reports(reports: Sequence[QuadricInvariants]) -> PigeonholeReport:
    """Pigeonhole over a family sharing one diffeomorphism type.

    Raises ValueError when the reports mix types (fiber, number of
    quadrics, triviality or ambient dimension differ).
    """
    if not reports:
        raise ValueError("no reports to compare")
    keys = {type_key(r) for r in reports}
    if len(keys) > 1:
        raise ValueError(
            "reports mix diffeomorphism types: " + "; ".join(
                f"(fiber {k[0]}, base T^{k[1]}, trivial={k[2]}, n={k[3]})"
                for k in sorted(keys, key=str)
            )
        )
    bound = reports[0].isotopy.bound
    return pigeonhole([r.maslov.minimal_maslov for r in reports], bound)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _point(pt: tuple[Fraction, ...]) -> str:
    return "(" + ", ".join(frac_str(c) for c in pt) + ")"


def render_text(rep: LagrangianReport) -> str:
    q, p = rep.system, rep.polytope
    lines = [
        f"input: {rep.source} ({q.r} quadrics in {q.n} coordinates; "
        f"polytope of dimension {p.dim} with {p.n} facets)",
        f"flags: nonempty={rep.flags.nonempty} bounded={rep.flags.bounded} "
        f"simple={rep.flags.generic_simple} irredundant={rep.flags.irredundant} "
        f"primitive={rep.flags.primitive_normals}",
        f"vertices: {len(rep.vertices)}",
    ]
    if rep.delzant.is_delzant:
        lines.append("smooth (Delzant): yes — the intersection embeds")
    else:
        w = rep.delzant.witness
        lines.append(
            f"smooth (Delzant): no — vertex {_point(w.point)} (facets "
            f"{tuple(i + 1 for i in w.active)}) has lattice index "
            f"{rep.delzant.witness_index}; immersion only"
        )
    if rep.fano is None:
        lines.append("fano: refused — " + (rep.fano_refusal or ""))
    elif rep.fano.is_fano:
        lines.append(
            f"fano: yes, c = {frac_str(rep.fano.c)} at translation "
            f"{_point(rep.fano.translation)}"
        )
    else:
        lines.append(f"fano: no — {rep.fano.reason}")
    m = rep.maslov
    lines.append(
        "monotone: " + (f"yes, delta = {frac_str(m.monotone_c)} * t" if m.monotone else "no")
    )
    lines.append(
        f"pairing indices mu = {m.mu} on generators from columns "
        f"{tuple(j + 1 for j in rep.lattice.basis_columns)}; minimal N = "
        f"{m.minimal_maslov}"
    )
    lines.append(
        "areas (units of pi/2): ("
        + ", ".join(frac_str(a) for a in m.area_half_pi) + ")"
    )
    d = expr_dim(rep.fiber)
    lines.append(
        f"fiber: {render(rep.fiber)}"
        + (f" (dimension {d})" if d is not None else "")
    )
    fb = rep.fibration
    lines.append(
        f"fibration over T^{q.r}: orientable={fb.orientable} trivial="
        f"{'undetermined' if fb.trivial is None else fb.trivial} "
        f"(orientation-preserving generators: "
        f"{tuple(i + 1 for i, keep in enumerate(fb.preserving) if keep)})"
    )
    iso = rep.isotopy
    lines.append(
        f"total space: dimension {iso.dim_total}, mod-2 H^1 rank "
        f"{'unknown' if iso.h1_rank is None else iso.h1_rank}; smooth isotopy "
        f"classes: {'no bound claimed' if iso.bound is None else f'at most {iso.bound}'}"
        f" ({iso.reason})"
    )
    for note in rep.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def report_dict(rep: LagrangianReport) -> dict:
    """JSON-ready dictionary; rationals as 'p/q' strings or ints."""
    q, m = rep.system, rep.maslov
    out = {
        "schema": 1,
        "source": rep.source,
        "gamma": [list(row) for row in q.gamma.data],
        "delta": [frac_str(d) for d in q.delta],
        "normals": [list(rep.polytope.normal(i)) for i in range(rep.polytope.n)],
        "offsets": [frac_str(b) for b in rep.polytope.offsets],
        "flags": {
            "nonempty": rep.flags.nonempty,
            "bounded": rep.flags.bounded,
            "generic_simple": rep.flags.generic_simple,
            "irredundant": rep.flags.irredundant,
            "primitive_normals": rep.flags.primitive_normals,
        },
        "vertices": [
            {"point": [frac_str(c) for c in v.point], "active": list(v.active)}
            for v in rep.vertices
        ],
        "delzant": rep.delzant.is_delzant,
        "embedded": rep.embedded,
        "fano": None if rep.fano is None or not rep.fano.is_fano else frac_str(rep.fano.c),
        "fano_refused": rep.fano_refusal,
        "monotone": None if not m.monotone else frac_str(m.monotone_c),
        "maslov": {
            "t": list(m.t),
            "mu": list(m.mu),
            "area_half_pi": [frac_str(a) for a in m.area_half_pi],
            "minimal_maslov": m.minimal_maslov,
        },
        "basis_columns": list(rep.lattice.basis_columns),
        "fiber": expr_dict(rep.fiber),
        "fiber_rendered": render(rep.fiber),
        "fibration": {
            "flips": [list(row) for row in rep.fibration.flips],
            "preserving": list(rep.fibration.preserving),
            "orientable": rep.fibration.orientable,
            "trivial": rep.fibration.trivial,
        },
        "isotopy": {
            "dim_total": rep.isotopy.dim_total,
            "h1_rank": rep.isotopy.h1_rank,
            "bound": rep.isotopy.bound,
            "reason": rep.isotopy.reason,
        },
        "diagnostics": list(rep.diagnostics),
    }
    if rep.delzant.witness is not None:
        out["delzant_witness"] = {
            "point": [frac_str(c) for c in rep.delzant.witness.point],
            "active": list(rep.delzant.witness.active),
            "index": rep.delzant.witness_index,
        }
    return out
