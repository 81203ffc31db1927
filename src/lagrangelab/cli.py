"""Command-line front end.

Subcommands:
  check      full report on a polytope or quadric-system file
  gale       convert between the two presentations
  topology   fiber classification only
  reproduce  closed-form tables for the built-in families
  scan       sweep parameter ranges and report distinct-N collections

Exit codes: 0 success, 1 usage/parse error, 2 structural rejection
(empty, unbounded, non-simple, redundant, non-saturated), 3 a bug: a
failed internal invariant or any other unexpected exception.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import InternalInvariantError, StructuralError, UsageError
from .exactlinalg import IntMatrix
from .families import FAMILIES, FamilyInstance, build
from .gale import (
    QuadricSystem,
    polytope_to_quadrics,
    quadrics_to_polytope,
)
from .numerics import LOOP_TOLERANCE, numeric_report
from .polytope import PolytopePresentation, gate, normalize_normals
from .report import (
    QuadricInvariants,
    check_polytope,
    check_quadrics,
    frac_str,
    pigeonhole_reports,
    quadric_invariants,
    render_text,
    report_dict,
    type_key,
)
from .topology import (
    Unknown,
    classify_fiber,
    connectivity_bound,
    expr_dim,
    normalize,
    render,
)

__all__ = ["main", "parse_input"]


_RATIONAL_FORMS = "an integer or a 'p/q', decimal ('0.5') or exponent ('1e3') string"
# input numbers must stay in float range for the numeric spot check
_FLOAT_BOUND = 2**1024
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise UsageError(f"{where}: expected {_RATIONAL_FORMS}")
    if isinstance(value, int):
        x = Fraction(value)
    elif isinstance(value, str):
        try:
            exponent = _EXPONENT.search(value)
            if exponent:
                # Clamped before Fraction builds 10**k: a mantissa of D <= len(value)
                # digits is a/b with |a|, b <= 10**D, so past the clamp the value
                # is 0 or has a numerator or denominator >= 10**309 > 2**1024.
                bound = len(value) + 309
                k = max(-bound, min(bound, int(exponent.group(1))))
                x = Fraction(f"{value[:exponent.start()]}e{k}")
            else:
                x = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"{where}: bad rational {value!r} (expected {_RATIONAL_FORMS})"
            ) from None
    else:
        raise UsageError(
            f"{where}: expected {_RATIONAL_FORMS}, got {type(value).__name__}"
        )
    if abs(x.numerator) >= _FLOAT_BOUND or x.denominator >= _FLOAT_BOUND:
        raise UsageError(
            f"{where}: numerator and denominator must be below 2**1024 in absolute value"
        )
    return x


def _int_matrix_rows(rows, where: str) -> IntMatrix:
    if not isinstance(rows, list) or not rows:
        raise UsageError(f"{where}: expected a non-empty array of arrays")
    for row in rows:
        if not isinstance(row, list):
            raise UsageError(f"{where}: expected a non-empty array of arrays")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise UsageError(f"{where}: entries must be integers, got {x!r}")
            if abs(x) >= _FLOAT_BOUND:
                raise UsageError(f"{where}: entries must be below 2**1024 in absolute value")
    try:
        return IntMatrix.from_rows([tuple(r) for r in rows])
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def parse_input(text: str) -> PolytopePresentation | QuadricSystem:
    """Parse the versioned JSON input format (either kind)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise UsageError("parse error: integer literal too long") from None
    if not isinstance(doc, dict):
        raise UsageError("input must be a JSON object")
    if doc.get("schema", 1) != 1:
        raise UsageError(f"unsupported schema {doc.get('schema')!r} (expected 1)")
    kind = doc.get("kind")
    if kind == "polytope":
        normals = doc.get("normals")
        offsets = doc.get("offsets")
        if normals is None or offsets is None:
            raise UsageError("polytope input needs 'normals' and 'offsets'")
        cols = _int_matrix_rows(normals, "normals")  # one row per facet here
        if not isinstance(offsets, list) or len(offsets) != cols.rows:
            raise UsageError(
                f"offsets length {len(offsets) if isinstance(offsets, list) else '?'}"
                f" must match the {cols.rows} facet normals"
            )
        b = tuple(_rational(x, f"offsets[{i}]") for i, x in enumerate(offsets))
        try:
            return PolytopePresentation(cols.transpose(), b)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "quadrics":
        gamma = doc.get("gamma")
        delta = doc.get("delta")
        if gamma is None or delta is None:
            raise UsageError("quadrics input needs 'gamma' and 'delta'")
        g = _int_matrix_rows(gamma, "gamma")
        if not isinstance(delta, list) or len(delta) != g.rows:
            raise UsageError(
                f"delta length {len(delta) if isinstance(delta, list) else '?'}"
                f" must match the {g.rows} gamma rows"
            )
        d = tuple(_rational(x, f"delta[{i}]") for i, x in enumerate(delta))
        return QuadricSystem(g, d)
    raise UsageError(
        f"unknown kind {kind!r}: expected 'polytope' or 'quadrics'"
    )


def _read_input(path: str) -> PolytopePresentation | QuadricSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_input(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    parsed = _read_input(args.file)
    if isinstance(parsed, PolytopePresentation):
        if args.normalize_normals:
            parsed = normalize_normals(parsed)
        rep = check_polytope(parsed)
    elif args.normalize_normals:
        raise UsageError("--normalize-normals applies to polytope inputs only")
    else:
        rep = check_quadrics(parsed)
    numeric = numeric_report(rep, seed=args.seed)
    if not numeric.within(args.tol_membership, args.tol_lagrangian):
        raise InternalInvariantError(
            "numeric spot check failed: "
            f"quadric residual {numeric.max_quadric_residual:.3e} "
            f"(tolerance {args.tol_membership:g}), "
            f"symplectic residual {numeric.max_omega_residual:.3e} "
            f"(tolerance {args.tol_lagrangian:g}), "
            f"loop error {numeric.max_loop_relative_error:.3e} "
            f"(tolerance {LOOP_TOLERANCE:g})"
        )
    if args.json:
        data = report_dict(rep)
        data["numeric"] = {
            "seed": args.seed,
            "max_quadric_residual": numeric.max_quadric_residual,
            "max_omega_residual": numeric.max_omega_residual,
            "max_loop_relative_error": numeric.max_loop_relative_error,
        }
        print(json.dumps(data, indent=2))
    else:
        print(render_text(rep))
        print(
            f"numeric spot check (seed {args.seed}): quadric residual "
            f"{numeric.max_quadric_residual:.2e}, symplectic residual "
            f"{numeric.max_omega_residual:.2e}, loop error "
            f"{numeric.max_loop_relative_error:.2e}"
        )
    return 0


def _cmd_gale(args) -> int:
    parsed = _read_input(args.file)
    if isinstance(parsed, PolytopePresentation):
        q = polytope_to_quadrics(parsed)
        if args.json:
            print(json.dumps({
                "schema": 1,
                "kind": "quadrics",
                "gamma": [list(row) for row in q.gamma.data],
                "delta": [frac_str(d) for d in q.delta],
            }, indent=2))
        else:
            print(f"quadric system: {q.r} quadrics in {q.n} coordinates")
            for i, row in enumerate(q.gamma.data):
                print(f"  {list(row)} * u^2 = {frac_str(q.delta[i])}")
    else:
        p = quadrics_to_polytope(parsed)
        if args.json:
            print(json.dumps({
                "schema": 1,
                "kind": "polytope",
                "normals": [list(p.normal(i)) for i in range(p.n)],
                "offsets": [frac_str(b) for b in p.offsets],
            }, indent=2))
        else:
            print(f"polytope: dimension {p.dim}, {p.n} facets")
            for i in range(p.n):
                print(f"  <{list(p.normal(i))}, x> + {frac_str(p.offsets[i])} >= 0")
    return 0


def _cmd_topology(args) -> int:
    parsed = _read_input(args.file)
    q = (
        polytope_to_quadrics(parsed)
        if isinstance(parsed, PolytopePresentation)
        else parsed
    )
    vertices, _ = gate(quadrics_to_polytope(q))
    fiber = classify_fiber(q)
    if isinstance(fiber, Unknown):
        j = connectivity_bound([v.active for v in vertices], q.n)
        print(f"fiber: {render(fiber)}")
        print(f"the fiber is at least {j - 1}-connected (dimension {q.dim})")
    else:
        print(f"fiber: {render(fiber)} (dimension {expr_dim(fiber)})")
    return 0


def _parse_assignments(tokens: Sequence[str]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for tok in tokens:
        name, eq, rhs = tok.partition("=")
        if not eq or not name or not rhs:
            raise UsageError(f"expected name=v1,v2,... got {tok!r}")
        try:
            values = [int(x) for x in rhs.split(",")]
        except ValueError:
            raise UsageError(f"non-integer value in {tok!r}") from None
        if name in out:
            raise UsageError(f"parameter {name!r} given twice")
        out[name] = values
    return out


def _parse_ranges(tokens: Sequence[str]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for tok in tokens:
        name, eq, rhs = tok.partition("=")
        parts = rhs.split("..") if eq else []
        if not name or len(parts) not in (2, 3):
            raise UsageError(f"expected name=a..b or name=a..b..step, got {tok!r}")
        try:
            nums = [int(x) for x in parts]
        except ValueError:
            raise UsageError(f"non-integer bound in {tok!r}") from None
        step = nums[2] if len(nums) == 3 else 1
        if step <= 0:
            raise UsageError(f"step must be positive in {tok!r}")
        if name in out:
            raise UsageError(f"parameter {name!r} given twice")
        out[name] = list(range(nums[0], nums[1] + 1, step))
    return out


def _grid(family: str, values: dict[str, list[int]]):
    if family not in FAMILIES:
        raise UsageError(
            f"unknown family {family!r} (choose from {', '.join(sorted(FAMILIES))})"
        )
    names = FAMILIES[family][1]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing:
        raise UsageError(f"family {family} needs values for {', '.join(missing)}")
    if extra:
        raise UsageError(f"family {family} takes no parameter {', '.join(extra)}")
    for combo in product(*(values[n] for n in names)):
        yield dict(zip(names, combo))


def _run_instance(inst: FamilyInstance) -> QuadricInvariants:
    """Compute the pipeline values and insist they match the closed forms."""
    vertices = () if inst.validated else gate(quadrics_to_polytope(inst.system))[0]
    inv = quadric_invariants(inst.system, vertices)
    mas, fib, fiber = inv.maslov, inv.fibration, inv.fiber
    label = ", ".join(f"{k}={v}" for k, v in inst.params) or inst.family
    if mas.minimal_maslov != inst.minimal_maslov:
        raise InternalInvariantError(
            f"{inst.family}({label}): computed N {mas.minimal_maslov} "
            f"differs from the closed form {inst.minimal_maslov}"
        )
    if fiber != normalize(inst.fiber):
        raise InternalInvariantError(
            f"{inst.family}({label}): computed fiber {render(fiber)} differs "
            f"from the closed form {render(normalize(inst.fiber))}"
        )
    if fib.orientable != inst.orientable or fib.trivial != inst.trivial:
        raise InternalInvariantError(
            f"{inst.family}({label}): fibration flags disagree with closed form"
        )
    return inv


def _cmd_reproduce(args) -> int:
    values = _parse_assignments(args.params or [])
    rows = []
    for params in _grid(args.family, values):
        try:
            inst = build(args.family, **params)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        inv = _run_instance(inst)
        rows.append({
            "params": dict(inst.params),
            "minimal_maslov": inv.maslov.minimal_maslov,
            "mu": list(inv.maslov.mu),
            "fiber": render(inv.fiber),
            "orientable": inv.fibration.orientable,
            "trivial": inv.fibration.trivial,
            "n": inst.system.n,
            "quadrics": inst.system.r,
        })
    if args.json:
        print(json.dumps({"schema": 1, "family": args.family, "rows": rows}, indent=2))
    else:
        for row in rows:
            label = " ".join(f"{k}={v}" for k, v in row["params"].items()) or "-"
            trivial = "undetermined" if row["trivial"] is None else row["trivial"]
            print(
                f"{label} | N={row['minimal_maslov']} | {row['fiber']} | "
                f"orientable={row['orientable']} trivial={trivial}"
            )
        if rows:
            print(f"distinct N values: {sorted({r['minimal_maslov'] for r in rows})}")
    return 0


def _cmd_scan(args) -> int:
    values = _parse_ranges(args.range or [])
    values.update(_parse_assignments(args.params or []))
    groups: dict[tuple, list[QuadricInvariants]] = {}
    skipped = 0
    for params in _grid(args.family, values):
        try:
            inst = build(args.family, **params)
        except ValueError:
            skipped += 1  # sweeping ranges may leave the constraint region
            continue
        inv = _run_instance(inst)
        groups.setdefault(type_key(inv), []).append(inv)
    out = []
    for key in sorted(groups, key=str):
        members = groups[key]
        verdict = pigeonhole_reports(members)
        out.append({
            "fiber": key[0],
            "base_torus": key[1],
            "trivial": key[2],
            "dim_total": key[3],
            "count": len(members),
            "distinct_N": list(verdict.distinct_values),
            "h1_rank": members[0].isotopy.h1_rank,
            "smooth_bound": verdict.bound,
            "collision": verdict.collision,
        })
    if args.json:
        print(json.dumps(
            {"schema": 1, "family": args.family, "skipped": skipped, "groups": out},
            indent=2,
        ))
    else:
        for g in out:
            trivial = "undetermined" if g["trivial"] is None else g["trivial"]
            print(
                f"fiber {g['fiber']} over T^{g['base_torus']} "
                f"(trivial={trivial}, dim {g['dim_total']}): "
                f"{g['count']} instances, distinct N {g['distinct_N']}, "
                f"smooth bound {g['smooth_bound']}, collision={g['collision']}"
            )
        if skipped:
            print(f"skipped {skipped} parameter points outside the constraints")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not tol > 0:  # also refuses NaN, which no residual can be held to
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrangelab",
        description="invariants of monotone Lagrangians fibered over tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="full report on one input file")
    chk.add_argument("file")
    chk.add_argument("--json", action="store_true")
    chk.add_argument("--tol-membership", type=_tolerance, default=1e-9,
                     help="bound on the relative quadric residual "
                          "|gamma_m u^2 - delta_m| / max(1, |delta_m|)")
    chk.add_argument("--tol-lagrangian", type=_tolerance, default=1e-8)
    chk.add_argument("--normalize-normals", action="store_true",
                     help="divide facet normals by their gcd before analysis "
                          "(polytope inputs only)")
    chk.add_argument("--seed", type=int, default=0)
    chk.set_defaults(func=_cmd_check)

    gal = sub.add_parser("gale", help="convert between presentations")
    gal.add_argument("file")
    gal.add_argument("--json", action="store_true")
    gal.set_defaults(func=_cmd_gale)

    top = sub.add_parser("topology", help="fiber classification only")
    top.add_argument("file")
    top.set_defaults(func=_cmd_topology)

    rep = sub.add_parser("reproduce", help="tables for a built-in family")
    rep.add_argument("family")
    rep.add_argument("--params", nargs="+", metavar="name=v1,v2")
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(func=_cmd_reproduce)

    scn = sub.add_parser("scan", help="sweep ranges, group by type, pigeonhole")
    scn.add_argument("family")
    scn.add_argument("--range", nargs="+", metavar="name=a..b[..step]")
    scn.add_argument("--params", nargs="+", metavar="name=v1,v2")
    scn.add_argument("--json", action="store_true")
    scn.set_defaults(func=_cmd_scan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:  # includes CapExceeded
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StructuralError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is a bug too, not a usage error
        print(f"internal error (bug): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
