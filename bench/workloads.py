"""The three benchmark workloads: their inputs, their ops and their checks.

Every op is one argv list for ``lagrangelab.cli.main``. Each workload was
chosen to load the layers differently:

* ``ladder``: ``check FILE --json`` on the fixed instance ladder. Vertex
  enumeration and the per-vertex lattice checks do almost all the work.
* ``sweep``: one ``reproduce FAMILY --params ... --json`` per grid point.
  th4, ex1 and ex2 take the validated path with no vertex enumeration, so a
  change to enumeration should leave this workload unmoved.
* ``generated``: ``check FILE --json`` on seeded random H-presentations
  (a box plus a few cuts). Half are built to end in a structural
  rejection; most accepted ones have r >= 4 and reach an Unknown fiber and
  its connectivity bound.

Outputs are checked after the timed pass: family ops against the closed
forms of ``families.build``, generated ops against the verdict they were
built for and, when accepted, a second check of their Gale dual.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from itertools import product
from math import gcd
from pathlib import Path
from typing import Callable

# (family, params) in ROADMAP order, cheapest first. th4(4,2), a single
# op of 9 s or more, is left out: a run could not repeat it often enough
# for a steady median.
LADDER = (
    ("th3", {}),
    ("th5", {}),
    ("ex1", {"p": 4, "n": 10, "k": 0}),
    ("th4", {"p": 2, "q": 1}),
    ("ex2", {"q": 2, "l": 4, "k": 4, "p": 12, "n": 14}),
    ("ex1", {"p": 6, "n": 16, "k": 2}),
    ("th4", {"p": 3, "q": 2}),
)

# (dim, cuts) cells of the generated workload; every seed fills every cell
# equally, so seeds differ in coefficients but not in the size mix
GEN_CELLS = tuple((d, c) for d in (2, 3, 4, 5) for c in (1, 2, 3))
GEN_PER_CELL = 6


@dataclass
class Op:
    label: str
    argv: list[str]
    # check(stdout) is None when the output is right, else a message saying
    # what disagreed
    check: Callable[[str], str | None]
    # 0 for an input that must be accepted, 2 for one that must be rejected
    expected_code: int = 0


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _label(family: str, params: dict[str, int]) -> str:
    return f"{family}({','.join(f'{k}={v}' for k, v in params.items())})"


def _closed_form_check(lab, family: str, params: dict[str, int]):
    """Compare N, fiber, orientable and trivial with the family's closed form."""

    def check(n, fiber, orientable, trivial) -> str | None:
        inst = lab.families.build(family, **params)
        want = (inst.minimal_maslov, lab.topology.render(lab.topology.normalize(inst.fiber)),
                inst.orientable, inst.trivial)
        got = (n, fiber, orientable, trivial)
        if got != want:
            return f"(N, fiber, orientable, trivial) = {got}, closed form {want}"
        return None

    return check


def instance_doc(inst) -> dict:
    """The input-file JSON for a family instance, in its own presentation."""
    if inst.polytope is not None:
        p = inst.polytope
        return {"schema": 1, "kind": "polytope",
                "normals": [list(p.normal(i)) for i in range(p.n)],
                "offsets": [_frac(b) for b in p.offsets]}
    q = inst.system
    return {"schema": 1, "kind": "quadrics",
            "gamma": [list(row) for row in q.gamma.data],
            "delta": [_frac(d) for d in q.delta]}


def ladder(lab, seed: int, workdir: Path) -> list[Op]:
    ops = []
    for i, (family, params) in enumerate(LADDER):
        path = workdir / f"ladder-{i}.json"
        path.write_text(json.dumps(instance_doc(lab.families.build(family, **params))))
        closed = _closed_form_check(lab, family, params)

        def check(out: str, closed=closed) -> str | None:
            d = json.loads(out)
            return closed(d["maslov"]["minimal_maslov"], d["fiber_rendered"],
                          d["fibration"]["orientable"], d["fibration"]["trivial"])

        ops.append(Op(_label(family, params), ["check", str(path), "--json"], check))
    random.Random(seed).shuffle(ops)
    return ops


def sweep_grid() -> list[tuple[str, dict[str, int]]]:
    """Grid points of the sweep; each satisfies its family's constraints."""
    points: list[tuple[str, dict[str, int]]] = []
    for p in range(2, 13):
        points += [("th4", {"p": p, "q": q}) for q in range(1, p)]
    for p, n, k in product(range(1, 9), range(1, 17), range(0, 8)):
        if n - p >= 1 and 0 <= k < p - 1 and n - p + k > p:
            points.append(("ex1", {"p": p, "n": n, "k": k}))
    # this grid includes the points where the closed form's triviality
    # flag disagrees with the pipeline; they must stay and count as failures
    for q, l, k, p, n in product(range(1, 5), range(1, 7), range(1, 9),
                                 range(1, 13), range(1, 17)):
        if 0 < q < l <= k < p < n and k - l - q < 0 and n - p + k - q < p - l:
            points.append(("ex2", {"q": q, "l": l, "k": k, "p": p, "n": n}))
    points += [("th6", {"k": k}) for k in range(4, 21)]
    points += [("sphere", {"gamma1": g, "m": m}) for g in range(1, 7) for m in range(1, 7)]
    return points


def sweep(lab, seed: int, workdir: Path) -> list[Op]:
    ops = []
    for family, params in sweep_grid():
        closed = _closed_form_check(lab, family, params)

        def check(out: str, closed=closed) -> str | None:
            rows = json.loads(out)["rows"]
            if len(rows) != 1:
                return f"expected one row, got {len(rows)}"
            r = rows[0]
            return closed(r["minimal_maslov"], r["fiber"], r["orientable"], r["trivial"])

        argv = ["reproduce", family, "--json"]
        if params:
            argv[2:2] = ["--params", *(f"{k}={v}" for k, v in params.items())]
        ops.append(Op(_label(family, params), argv, check))
    random.Random(seed).shuffle(ops)
    return ops


def _unit(rng: random.Random) -> Fraction:
    """A generic rational strictly between 0 and 1."""
    den = rng.randint(5, 13)
    return Fraction(rng.randint(1, den - 1), den)


def generate(seed: int) -> list[tuple[dict, bool]]:
    """Seeded random H-presentations: a box in dim 2-5 plus 1-3 cuts.

    Each cut has a small primitive integer normal with no zero entry, so it
    faces one corner of the box, and no two cuts face the same corner. A
    cut crosses only the edges at its corner and less than half of each,
    with a generic rational offset: the box stays simple and irredundant.
    In every fourth input all normal entries are +-1, which keeps it
    Delzant, so the smoothness and embedding checks visit every vertex.
    In every odd-numbered input of a cell the last cut misses the box, which
    makes it redundant and the input a structural rejection. So every seed
    has half of each cell accepted, and seeds differ in their coefficients,
    corners and depths but hardly in cost. Returns (input, must be
    rejected) pairs.
    """
    rng = random.Random(seed)
    docs = []
    for dim, cuts in GEN_CELLS:
        for k in range(GEN_PER_CELL):
            half = [rng.randint(1, 3) for _ in range(dim)]
            normals: list[list[int]] = []
            offsets: list[Fraction] = []
            for i, h in enumerate(half):
                e = [int(j == i) for j in range(dim)]
                normals += [e, [-x for x in e]]
                offsets += [Fraction(h), Fraction(h)]
            smooth = k % 4 == 0
            for n, corner in enumerate(rng.sample(range(2 ** dim), cuts)):
                while True:
                    c = [(1 if corner >> j & 1 else -1) * (1 if smooth else rng.randint(1, 2))
                         for j in range(dim)]
                    if gcd(*c) == 1:
                        break
                # <c, x> runs from -reach at the faced corner to reach; the
                # corner's neighbours sit at least 2 * nearest above -reach
                reach = sum(abs(x) * h for x, h in zip(c, half))
                nearest = min(abs(x) * h for x, h in zip(c, half))
                if k % 2 and n == cuts - 1:
                    offsets.append(reach * (1 + _unit(rng) / 2))
                else:
                    offsets.append(reach - nearest * _unit(rng))
                normals.append(c)
            docs.append(({"schema": 1, "kind": "polytope", "normals": normals,
                          "offsets": [_frac(b) for b in offsets]}, k % 2 == 1))
    return docs


# fields of `check --json` that must agree between an input and its Gale dual
_DUAL_FIELDS = (
    ("flags",), ("delzant",), ("embedded",), ("fano",), ("monotone",),
    ("maslov", "minimal_maslov"), ("fiber_rendered",),
)


def _dual_check(lab, path: Path, workdir: Path):
    """Re-check an accepted input through its Gale dual (gale, then check)."""

    def check(out: str) -> str | None:
        first = json.loads(out)
        buf, err = StringIO(), StringIO()
        with redirect_stdout(buf), redirect_stderr(err):
            rc = lab.cli.main(["gale", str(path), "--json"])
        if rc != 0:
            return f"gale exited {rc}: {err.getvalue().strip()}"
        dual = workdir / (path.stem + "-dual.json")
        dual.write_text(buf.getvalue())
        buf, err = StringIO(), StringIO()
        with redirect_stdout(buf), redirect_stderr(err):
            rc = lab.cli.main(["check", str(dual), "--json"])
        if rc != 0:
            return f"check of the Gale dual exited {rc}: {err.getvalue().strip()}"
        second = json.loads(buf.getvalue())
        for keys in _DUAL_FIELDS:
            a, b = first, second
            for k in keys:
                a, b = a[k], b[k]
            if a != b:
                return f"{'.'.join(keys)}: {a!r} on the input, {b!r} on its Gale dual"
        return None

    return check


def generated(lab, seed: int, workdir: Path) -> list[Op]:
    ops = []
    for i, (doc, rejected) in enumerate(generate(seed)):
        path = workdir / f"generated-{i}.json"
        path.write_text(json.dumps(doc))
        dim, n = len(doc["normals"][0]), len(doc["normals"])
        ops.append(Op(f"gen{i}(dim={dim},n={n})", ["check", str(path), "--json"],
                      _dual_check(lab, path, workdir), 2 if rejected else 0))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {"ladder": ladder, "sweep": sweep, "generated": generated}
