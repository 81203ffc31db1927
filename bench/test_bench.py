"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_generator_repeats_for_a_seed(tmp_path):
    assert workloads.generate(7) == workloads.generate(7)
    assert workloads.generate(7) != workloads.generate(8)
    lab = run.import_lab()
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = workloads.generated(lab, 7, first)
    b = workloads.generated(lab, 7, second)
    assert [op.label for op in a] == [op.label for op in b]
    assert [Path(op.argv[1]).read_bytes() for op in a] == [Path(op.argv[1]).read_bytes() for op in b]


def test_generated_inputs_fill_every_cell():
    pairs = workloads.generate(3)
    cells = {(len(d["normals"][0]), len(d["normals"]) - 2 * len(d["normals"][0])) for d, _ in pairs}
    assert cells == set(workloads.GEN_CELLS)
    assert len(pairs) == len(cells) * workloads.GEN_PER_CELL
    assert sum(rejected for _, rejected in pairs) == len(pairs) // 2


def test_self_time_on_a_synthetic_tree():
    S = tracer.Span
    spans = [
        S("cli.main", 0.0, 10.0, -1, 0),
        S("report.check_polytope", 1.0, 4.0, 0, 0),
        S("numerics.numeric_report", 3.0, 6.0, 0, 0),  # overlaps its sibling
        S("cli.parse_input", 8.0, 9.0, 0, 0),
        S("exactlinalg.det", 2.0, 3.0, 1, 0),
        S("exactlinalg.det", 5.0, 5.5, 2, 0, raised=True),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.0, 1.0, 0.5])
    table = tracer.layer_table(spans)
    assert table["exactlinalg.det"] == {"calls": 2, "self_s": pytest.approx(1.5), "raised": 1}
    assert table["cli.main"]["self_s"] == pytest.approx(4.0)
    assert table["fme.feasible_point"] == {"calls": 0, "self_s": 0.0, "raised": 0}


def test_tracer_sees_every_binding_and_restores_them(tmp_path, capsys):
    lab = run.import_lab()
    polytope = sys.modules["lagrangelab.polytope"]
    original = polytope.enumerate_vertices
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(workloads.instance_doc(lab.families.build("th3"))))
    with tracer.Tracer() as tr:
        assert lab.cli.main(["check", str(path), "--json"]) == 0
    capsys.readouterr()
    table = tracer.layer_table(tr.spans)
    # once in check_polytope, once again inside numeric_report
    assert table["polytope.enumerate_vertices"]["calls"] == 2
    assert table["cli.main"]["calls"] == 1
    assert tr.counters["polytope.enumerate_vertices.subsets"] == 2 * 10  # comb(5, 2)
    assert tr.counters["polytope.enumerate_vertices.vertices"] == 2 * 5
    assert polytope.enumerate_vertices is original
    assert sys.modules["lagrangelab.report"].enumerate_vertices is original


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A tiny slice of every workload, with one pass and one setup."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PASSES", 1)
    monkeypatch.setattr(workloads, "LADDER", workloads.LADDER[:2])
    grid = workloads.sweep_grid()
    bad = ("ex2", {"q": 2, "l": 3, "k": 3, "p": 7, "n": 8})
    assert bad in grid
    monkeypatch.setattr(workloads, "sweep_grid", lambda: grid[:3] + [bad])
    monkeypatch.setattr(workloads, "GEN_CELLS", ((2, 1), (3, 1)))
    monkeypatch.setattr(workloads, "GEN_PER_CELL", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert result["correct"] is True
    if workload == "sweep":
        # the ex2 point whose closed-form triviality flag is wrong exits 3
        assert result["failed"] == (2 if trace else 1)
        assert any("exit 3" in line and "ex2(q=2,l=3,k=3,p=7,n=8)" in line for line in lines)
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ladder", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
