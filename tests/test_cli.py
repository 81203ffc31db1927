"""Command-line behavior: formats, exit codes, family tables."""

import dataclasses
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangelab import cli, families, polytope, report
from lagrangelab.cli import main, parse_input
from lagrangelab.errors import UsageError
from lagrangelab.numerics import NumericReport
from lagrangelab.topology import normalize, render

PENTAGON = {
    "schema": 1,
    "kind": "polytope",
    "normals": [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]],
    "offsets": [1, 1, 1, 1, 1],
}
TWO_BLOCK = {
    "schema": 1,
    "kind": "quadrics",
    "gamma": [[1, 1, 1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]],
    "delta": [4, 6],
}
WEIGHTED = {
    "kind": "polytope",
    "normals": [[1, 0], [0, 1], [-3, 0], [0, -7], [-1, -6]],
    "offsets": [0, 0, 4, 8, 8],
}

# four quadrics: the fiber is Unknown and gets a connectivity bound
TRUNCATED_CUBE = {
    "kind": "polytope",
    "normals": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]],
    "offsets": [0, 1, 0, 1, 0, 1, "-1/4"],
}


def write(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_pentagon_text(tmp_path, capsys):
    assert main(["check", write(tmp_path, PENTAGON)]) == 0
    out = capsys.readouterr().out
    assert "smooth (Delzant): yes" in out
    assert "fano: yes, c = 1" in out
    assert "minimal N = 1" in out
    assert "Sigma_5" in out
    assert "orientable=False" in out
    assert "numeric spot check" in out


def test_check_pentagon_json(tmp_path, capsys):
    assert main(["check", write(tmp_path, PENTAGON), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["delzant"] is True and data["embedded"] is True
    assert data["fano"] == "1" and data["monotone"] == "1"
    assert data["maslov"]["mu"] == [2, 2, 3]
    assert data["maslov"]["minimal_maslov"] == 1
    assert data["fiber"] == {"surface_genus": 5}
    assert data["fibration"]["orientable"] is False
    assert data["numeric"]["max_quadric_residual"] <= 1e-9
    assert data["numeric"]["max_omega_residual"] <= 1e-8
    # the quadric residual is relative, so large offsets pass the default
    # tolerance (absolute residuals: 3.7e-9 at 1e7, 4.9e-4 at 1e12)
    for big in ("1e7", "1e12"):
        scaled = dict(PENTAGON, offsets=[big] * 5)
        assert main(["check", write(tmp_path, scaled), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["numeric"]["max_quadric_residual"] <= 1e-9


def test_check_quadrics_json(tmp_path, capsys):
    assert main(["check", write(tmp_path, TWO_BLOCK), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["source"] == "quadrics"
    assert data["fibration"]["trivial"] is True
    assert data["isotopy"] == {
        "dim_total": 10,
        "h1_rank": 2,
        "bound": 4,
        "reason": "at most 2^2 smooth isotopy classes",
    }
    assert data["fiber_rendered"] == "S^3 x S^5"


def check_five_fold(tmp_path, capsys, p, facets, dim, vertices):
    """The full check on th4(p, 2). The pipeline must reproduce the family's
    closed forms; the polytope is not Delzant, with the embedding witness
    the same vertex."""
    inst = families.build("th4", p=p, q=2)
    doc = {
        "kind": "quadrics",
        "gamma": [list(row) for row in inst.system.gamma.data],
        "delta": [str(d) for d in inst.system.delta],
    }
    assert main(["check", write(tmp_path, doc), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (len(data["normals"]), len(data["normals"][0])) == (facets, dim)
    assert len(data["vertices"]) == vertices
    assert data["maslov"]["minimal_maslov"] == inst.minimal_maslov == 2
    assert data["fiber_rendered"] == render(normalize(inst.fiber))
    assert data["fibration"]["orientable"] is inst.orientable is True
    assert data["fibration"]["trivial"] is inst.trivial is True
    assert data["delzant"] is False and data["embedded"] is False
    assert data["delzant_witness"]["index"] == 2
    assert "has lattice index 2" in data["diagnostics"][0]


def test_check_five_fold_p4_q2(tmp_path, capsys):
    check_five_fold(tmp_path, capsys, p=4, facets=20, dim=17, vertices=320)


def test_check_th4_p8_q2(tmp_path, capsys):
    check_five_fold(tmp_path, capsys, p=8, facets=40, dim=37, vertices=2560)


def test_check_weighted_pentagon(tmp_path, capsys):
    assert main(["check", write(tmp_path, WEIGHTED), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delzant"] is False and data["embedded"] is False
    assert data["delzant_witness"]["index"] == 7
    assert data["fano"] is None and data["fano_refused"]
    assert data["monotone"] == "1"
    assert data["maslov"]["minimal_maslov"] == 4


def test_normalize_normals_drops_weights(tmp_path, capsys):
    path = write(tmp_path, WEIGHTED)
    assert main(["check", path, "--normalize-normals", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # primitive normals now, so the reflexive test runs (and honestly fails)
    assert data["fano_refused"] is None
    assert data["fano"] is None
    assert data["flags"]["primitive_normals"] is True
    # the flag rescales normals, so on a quadric input it is refused
    assert main(["gale", path, "--json"]) == 0
    quad = write(tmp_path, json.loads(capsys.readouterr().out), "q.json")
    assert main(["check", quad, "--normalize-normals"]) == 1
    assert "polytope inputs" in capsys.readouterr().err


def test_gale_round_trip(tmp_path, capsys):
    assert main(["gale", write(tmp_path, PENTAGON), "--json"]) == 0
    quad = json.loads(capsys.readouterr().out)
    assert quad["kind"] == "quadrics" and len(quad["gamma"]) == 3
    assert main(["gale", write(tmp_path, quad, "q.json"), "--json"]) == 0
    poly = json.loads(capsys.readouterr().out)
    assert poly["kind"] == "polytope" and len(poly["normals"]) == 5
    # and the round-tripped polytope produces the same quadric system
    assert main(["gale", write(tmp_path, poly, "p.json"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == quad


def test_topology_command(tmp_path, capsys):
    assert main(["topology", write(tmp_path, PENTAGON)]) == 0
    assert "Sigma_5" in capsys.readouterr().out
    assert main(["topology", write(tmp_path, TWO_BLOCK)]) == 0
    assert "S^3 x S^5" in capsys.readouterr().out

    redundant_cut = {
        "kind": "polytope",
        "normals": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
        "offsets": [0, 0, 1, 1, 10],
    }
    assert main(["topology", write(tmp_path, redundant_cut)]) == 2
    assert "irredundant" in capsys.readouterr().err


def test_one_vertex_enumeration_per_op(tmp_path, capsys, monkeypatch):
    original = polytope.enumerate_vertices
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patch every lagrangelab module that binds the function
    for name, module in list(sys.modules.items()):
        if name == "lagrangelab" or name.startswith("lagrangelab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert main(["check", write(tmp_path, PENTAGON)]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["topology", write(tmp_path, TRUNCATED_CUBE)]) == 0
    assert "at least 0-connected" in capsys.readouterr().out
    assert len(calls) == 1


def test_parse_input_number_forms():
    doc = dict(PENTAGON, offsets=[1, "3/4", "0.5", "1e3", "-2"])
    assert parse_input(json.dumps(doc)).offsets == (
        1, Fraction(3, 4), Fraction(1, 2), 1000, -2,
    )
    # numerators and denominators must stay below 2**1024 (float range)
    assert parse_input(json.dumps(dict(doc, offsets=["1e300", "1e-300", 1, 1, 1])))
    # huge exponents are refused (or read as 0) before 10**exponent is built
    start = time.perf_counter()
    assert parse_input(json.dumps(dict(doc, offsets=["0e100000000", 1, 1, 1, 1]))).offsets[0] == 0
    for out_of_range in ("1e400", "1e5000", "1e-5000", "1e100000000", "-1e-100000000",
                         2**1024, -(2**1024)):
        doc = dict(PENTAGON, offsets=[out_of_range, 1, 1, 1, 1])
        with pytest.raises(UsageError, match=r"offsets\[0\].*2\*\*1024"):
            parse_input(json.dumps(doc))
    assert time.perf_counter() - start < 0.5
    with pytest.raises(UsageError, match="normals"):
        parse_input(json.dumps(dict(PENTAGON, normals=[[2**1024, 0]] + PENTAGON["normals"][1:])))


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken(p):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "check_polytope", broken)
    assert main(["check", write(tmp_path, PENTAGON)]) == 3
    assert capsys.readouterr().err == "internal error (bug): ValueError: boom\n"


def test_embedding_witness_must_match_delzant(tmp_path, capsys, monkeypatch):
    original = report.embedded_check
    path = write(tmp_path, WEIGHTED)
    for shift in ("witness", "witness_index"):
        def shifted(q, vertices, shift=shift):
            res = original(q, vertices)
            if shift == "witness":
                k = vertices.index(res.witness)
                return dataclasses.replace(res, witness=vertices[(k + 1) % len(vertices)])
            return dataclasses.replace(res, witness_index=res.witness_index + 1)

        monkeypatch.setattr(report, "embedded_check", shifted)
        assert main(["check", path]) == 3
        assert "disagrees with vertex smoothness" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    assert "parse error at line" in capsys.readouterr().err
    assert main(["check", write(tmp_path, {"kind": "nope"})]) == 1
    short = dict(PENTAGON, offsets=[1, 1])
    assert main(["check", write(tmp_path, short)]) == 1
    assert main(["check", write(tmp_path, dict(PENTAGON, schema=2))]) == 1
    # numbers outside float range end in an error line, not a traceback
    for value in ("1e400", "1e5000", "1e-5000"):
        square = {"kind": "polytope", "normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                  "offsets": [value, 1, 1, 1]}
        for command in ("check", "gale"):
            assert main([command, write(tmp_path, square)]) == 1
            assert "error: offsets[0]" in capsys.readouterr().err
    too_long = tmp_path / "long.json"
    too_long.write_text(json.dumps(PENTAGON).replace('"offsets": [1', '"offsets": [1' + "0" * 5000))
    assert main(["check", str(too_long)]) == 1
    assert "integer literal too long" in capsys.readouterr().err
    assert main(["reproduce", "nope"]) == 1
    assert main(["reproduce", "ex1", "--params", "p=4"]) == 1  # missing n, k
    assert main(["reproduce", "ex1", "--params", "p=4", "n=7", "k=0"]) == 1
    assert "constraints violated" in capsys.readouterr().err
    assert main(["reproduce", "ex1", "--params", "p=oops", "n=10", "k=0"]) == 1
    assert main(["scan", "ex1", "--range", "p=4..2..0"]) == 1
    assert main([]) == 1  # no subcommand


def test_tolerances_must_be_positive(tmp_path, capsys):
    """A NaN, zero or negative tolerance is a usage error, refused before
    the input is read."""
    path = write(tmp_path, PENTAGON)
    for option in ("--tol-membership", "--tol-lagrangian"):
        for value in ("nan", "-nan", "0", "-1", "-1e-9"):
            assert main(["check", path, f"{option}={value}"]) == 1
            assert "tolerance must be positive" in capsys.readouterr().err
        assert main(["check", path, option, "x"]) == 1
        assert "invalid tolerance 'x'" in capsys.readouterr().err
        assert main(["check", path, option, "1e-3"]) == 0


def test_spot_check_failure_names_every_tolerance(tmp_path, capsys, monkeypatch):
    failing = NumericReport(8, 4, 1.0, 1.0, 1.0)
    monkeypatch.setattr(cli, "numeric_report", lambda rep, seed: failing)
    assert main(["check", write(tmp_path, PENTAGON)]) == 3
    err = capsys.readouterr().err
    assert "numeric spot check failed" in err
    for named in ("quadric residual 1.000e+00 (tolerance 1e-09)",
                  "symplectic residual 1.000e+00 (tolerance 1e-08)",
                  "loop error 1.000e+00 (tolerance 1e-06)"):
        assert named in err


_SMALL = st.integers(-3, 3)
# every rational form the parser reads, plus junk it must refuse
_ENTRY = st.one_of(
    _SMALL,
    st.builds("{}/{}".format, _SMALL, st.integers(-1, 4)),
    st.builds("{}.{}".format, _SMALL, st.integers(0, 99)),
    st.builds("{}e{}".format, _SMALL, st.integers(-3, 3)),
    st.builds("{}e{}".format, _SMALL, st.integers(-400, 400)),
)
_POSITIVE = st.one_of(
    st.integers(1, 3),
    st.builds("{}/{}".format, st.integers(1, 5), st.integers(1, 4)),
    st.builds("{}e{}".format, st.integers(1, 3), st.integers(-3, 3)),
)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(-2**1100, 2**1100), st.lists(_SMALL, max_size=2),
    st.dictionaries(st.text(max_size=2), _SMALL, max_size=1),
)


@st.composite
def input_documents(draw):
    """A polytope (facets x dim normals, one offset per facet) or quadric
    system (r x n gamma, one delta per row) document of small size, often
    made malformed by one change."""
    kind = draw(st.sampled_from(("polytope", "quadrics")))
    # half the documents start from a shape that is often accepted: a box
    # with positive offsets, or quadrics with nonnegative rows and positive
    # right-hand sides
    tame = draw(st.booleans())
    if kind == "polytope":
        width = draw(st.integers(1, 3))
        matrix = [[s * (i == k) for k in range(width)]
                  for i in range(width) for s in (1, -1)] if tame else []
        rows = draw(st.integers(max(1, len(matrix)), len(matrix) + 3))
        vector = draw(st.lists(_POSITIVE, min_size=len(matrix), max_size=len(matrix)))
    else:
        rows = draw(st.integers(1, 3))
        width = draw(st.integers(rows + 1, 6))
        matrix, vector = [], draw(st.lists(_POSITIVE, min_size=rows, max_size=rows)) if tame else []
    coefficients = st.integers(0, 2) if tame and kind == "quadrics" else st.integers(-2, 2)
    matrix += draw(st.lists(st.lists(coefficients, min_size=width, max_size=width),
                            min_size=rows - len(matrix), max_size=rows - len(matrix)))
    vector += draw(st.lists(_ENTRY, min_size=rows - len(vector), max_size=rows - len(vector)))
    keys = ("normals", "offsets") if kind == "polytope" else ("gamma", "delta")
    doc = {"kind": kind, keys[0]: matrix, keys[1]: vector}
    change = draw(st.sampled_from(
        ("drop", "junk_value", "junk_entry", "junk_row_entry", "ragged", "length",
         "kind", "schema", "not_object")
    )) if draw(st.booleans()) else "none"
    if change == "drop":
        del doc[draw(st.sampled_from(("kind",) + keys))]
    elif change == "junk_value":
        doc[draw(st.sampled_from(keys))] = draw(_JUNK)
    elif change == "junk_entry":
        vector[draw(st.integers(0, rows - 1))] = draw(_JUNK)
    elif change == "junk_row_entry":
        matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, width - 1))] = draw(_JUNK)
    elif change == "ragged":
        matrix[draw(st.integers(0, rows - 1))].append(draw(_SMALL))
    elif change == "length" and draw(st.booleans()):
        vector.append(draw(_ENTRY))
    elif change == "length":
        vector.pop()
    elif change == "kind":
        doc["kind"] = draw(_JUNK)
    elif change == "schema":
        doc["schema"] = draw(st.one_of(st.just(1), _JUNK))
    elif change == "not_object":
        doc = draw(st.lists(_SMALL, max_size=2))
    return doc


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=input_documents())
def test_check_exits_0_1_or_2_on_any_document(tmp_path_factory, doc):
    """Whatever document it is given, check ends in success, a usage error
    or a structural rejection, never in exit 3."""
    path = tmp_path_factory.getbasetemp() / "robustness.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--json"]) in (0, 1, 2)


def test_structural_rejections(tmp_path, capsys):
    unsaturated = {"kind": "quadrics", "gamma": [[2, 2]], "delta": [1]}
    assert main(["check", write(tmp_path, unsaturated)]) == 2
    assert "saturated" in capsys.readouterr().err
    unbounded = {
        "kind": "polytope",
        "normals": [[1, 0], [0, 1], [1, 1]],
        "offsets": [0, 0, 1],
    }
    assert main(["check", write(tmp_path, unbounded)]) == 2


def test_reproduce_table(capsys):
    assert main(["reproduce", "ex1", "--params", "p=4", "n=10,12", "k=0,2"]) == 0
    out = capsys.readouterr().out
    assert "p=4 n=10 k=0 | N=2" in out
    assert "p=4 n=10 k=2 | N=4" in out
    assert "p=4 n=12 k=0 | N=4" in out
    assert "p=4 n=12 k=2 | N=2" in out
    assert "distinct N values: [2, 4]" in out


def test_reproduce_parameterless_family(capsys):
    assert main(["reproduce", "th3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["minimal_maslov"] == 1
    assert data["rows"][0]["fiber"] == "Sigma_5"


def test_reproduce_th6_grid(capsys):
    assert main(["reproduce", "th6", "--params", "k=4,6,8", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["minimal_maslov"] for r in rows] == [4, 6, 8]
    assert all(r["orientable"] for r in rows)
    assert all(r["trivial"] is None for r in rows)


def test_scan_groups_and_pigeonhole(capsys):
    assert main([
        "scan", "th4", "--params", "p=12", "--range", "q=2..10..2", "--json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["skipped"] == 0
    (group,) = data["groups"]
    assert group["fiber"] == "#_5(S^23 x S^34)"
    assert group["distinct_N"] == [2, 4, 6]
    assert group["smooth_bound"] == 8 and group["collision"] is False


def test_scan_skips_out_of_constraint_points(capsys):
    assert main([
        "scan", "ex1", "--params", "p=4", "k=0", "--range", "n=5..12", "--json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    # n-p+k > p fails for n <= 8
    assert data["skipped"] == 4
    assert sum(g["count"] for g in data["groups"]) == 4


def test_scan_empty_range(capsys):
    assert main(["scan", "ex1", "--params", "p=4", "k=0", "--range", "n=12..10"]) == 0
    assert capsys.readouterr().out == ""
