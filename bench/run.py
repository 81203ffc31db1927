#!/usr/bin/env python3
"""Benchmark of the lagrangelab command line, run in-process.

    python3 bench/run.py --workload {ladder,sweep,generated} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, one caller: each op is one call of
``lagrangelab.cli.main`` and the next op starts when it returns (a closed
loop). A pass runs every op of the workload once; passes repeat until
``--seconds`` have gone by, and at least MIN_PASSES are made. Outputs are
checked after each pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: calls, self
time and raised exceptions of each covered function, the vertex
enumeration counters, CLI exit codes and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An op fails on exit
1 or 3, an uncaught exception, a verdict (exit 0 or 2) other than the one
its input was built for, or an output that fails its check. ``correct`` is
false only when an op gave an answer that was refuted; an op that stopped
without an answer counts in ``failed`` and is listed with its exit code and
message. Detailed results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import types
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
import workloads

# the bench measures one thread; numpy, first imported with lagrangelab
# in main(), must not start BLAS or OpenMP pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 3
SETUP_PER_PASS = 3
MIN_TRACED_PASSES = 1

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)


def import_lab() -> types.SimpleNamespace:
    """Import lagrangelab afresh from this checkout's src/."""
    for name in [k for k in sys.modules if k == "lagrangelab" or k.startswith("lagrangelab.")]:
        del sys.modules[name]
    importlib.import_module("lagrangelab.cli")
    mods = {name: sys.modules[f"lagrangelab.{name}"] for name in ("cli", "families", "topology")}
    where = Path(mods["cli"].__file__).resolve()
    if not where.is_relative_to(SRC):
        raise ImportError(f"lagrangelab was imported from {where}, not from {SRC}")
    return types.SimpleNamespace(**mods)


class Setup:
    """Imports lagrangelab afresh and builds the workload's inputs, timed.

    It runs SETUP_PER_PASS times before every pass, so its samples are
    spread over the run like the passes are. The first one also pays for
    numpy's import.
    """

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.times: list[float] = []

    def __call__(self):
        for _ in range(SETUP_PER_PASS):
            start = perf_counter()
            lab = import_lab()
            ops = workloads.WORKLOADS[self.name](lab, self.seed, self.workdir)
            self.times.append(perf_counter() - start)
        return lab, ops


@dataclass
class OpResult:
    seconds: float
    code: int | None  # None: main raised
    out: str
    err: str


def run_pass(lab, ops, trace: tracer.Tracer | None = None) -> tuple[float, list[OpResult]]:
    results = []
    gc.collect()
    begin = perf_counter()
    for i, op in enumerate(ops):
        if trace is not None:
            trace.op = i
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = lab.cli.main(op.argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        results.append(OpResult(perf_counter() - start, code, out.getvalue(), err.getvalue()))
    return perf_counter() - begin, results


class Checker:
    """Judges op results; each distinct output of an op is checked once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, dict] = {}  # op label -> code, message, count
        self._verdicts: dict[tuple[int, str], str | None] = {}

    def _problem(self, op, i: int, res: OpResult) -> tuple[str | None, bool]:
        """(message, wrong answer?) for a failed op, (None, False) otherwise."""
        if res.code is None:
            return "uncaught exception: " + res.err.strip().splitlines()[-1], False
        if res.code in (0, 2) and res.code != op.expected_code:
            return f"verdict exit {res.code} on an input built for exit {op.expected_code}: " \
                f"{res.err.strip()}", True
        if res.code == 2:
            return None, False
        if res.code != 0:
            return res.err.strip(), False
        key = (i, res.out)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = op.check(res.out)
            except (ValueError, KeyError, TypeError) as exc:
                self._verdicts[key] = f"unreadable output ({type(exc).__name__}: {exc})"
        message = self._verdicts[key]
        return (None, False) if message is None else ("check failed: " + message, True)

    def judge(self, ops, results: list[OpResult]) -> None:
        for i, (op, res) in enumerate(zip(ops, results)):
            self.attempted += 1
            message, wrong = self._problem(op, i, res)
            if message is None:
                continue
            self.failed += 1
            self.wrong += wrong
            entry = self.failures.setdefault(
                op.label, {"code": res.code, "message": message, "count": 0})
            entry["count"] += 1


def provenance() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu or "unknown"}


def quantile(values: list[float], k: int) -> float:
    """The k-th decile cut point of values."""
    return statistics.quantiles(values, n=10)[k - 1]


def measure(setup: Setup, seconds: float, checker: Checker) -> tuple[dict, dict]:
    walls: list[float] = []
    per_op: dict[str, list[float]] = {}
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        lab, ops = setup()
        wall, results = run_pass(lab, ops)
        checker.judge(ops, results)
        walls.append(wall)
        for op, r in zip(ops, results):
            per_op.setdefault(op.label, []).append(r.seconds)
    latencies = [x for samples in per_op.values() for x in samples]
    metrics = {
        "setup_s": statistics.median(setup.times),
        "wall_s": statistics.median(walls),
        "op_s.p50": quantile(latencies, 5),
        "op_s.p90": quantile(latencies, 9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"passes": len(walls), "ops_per_pass": len(per_op), "op_samples": len(latencies),
             "pass_walls": walls, "setup_times": setup.times,
             "op_medians": {k: statistics.median(v) for k, v in per_op.items()}}
    return metrics, notes


def measure_traced(setup: Setup, seconds: float, checker: Checker) -> tuple[dict, dict, list]:
    untraced, traced, tables, counts = [], [], [], []
    first_spans: list[tracer.Span] = []
    while len(traced) < MIN_TRACED_PASSES or sum(untraced) + sum(traced) < seconds:
        lab, ops = setup()
        wall, results = run_pass(lab, ops)
        checker.judge(ops, results)
        untraced.append(wall)
        lab, ops = setup()
        with tracer.Tracer() as tr:
            wall, results = run_pass(lab, ops, tr)
        checker.judge(ops, results)
        traced.append(wall)
        tables.append(tracer.layer_table(tr.spans))
        counts.append((dict(tr.counters), [r.code for r in results]))
        if not first_spans:
            first_spans = tr.spans
    metrics: dict[str, float] = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = tables[0][name]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(t[name]["self_s"] for t in tables)
        metrics[f"{name}.raised"] = tables[0][name]["raised"]
    counters, codes = counts[0]
    subsets = counters.get("polytope.enumerate_vertices.subsets", 0)
    vertices = counters.get("polytope.enumerate_vertices.vertices", 0)
    metrics["polytope.enumerate_vertices.subsets"] = subsets
    metrics["polytope.enumerate_vertices.vertices"] = vertices
    metrics["polytope.vertex_yield"] = vertices / subsets if subsets else 0.0
    for code in tracer.EXIT_CODES:
        metrics[f"cli.exit_{code}"] = codes.count(code)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    calls = [[t[n]["calls"] for n in tracer.span_names()] for t in tables]
    repeat = all(c == calls[0] for c in calls) and all(c == counts[0] for c in counts)
    notes = {"traced_passes": len(traced), "untraced_walls": untraced, "traced_walls": traced,
             "ops_per_pass": len(codes), "calls_repeat_exactly": repeat}
    return metrics, notes, first_spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lagrangelab" / "cli.py").is_file():
        print(f"error: no lagrangelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = Setup(args.workload, args.seed, workdir)
        checker = Checker()
        if args.trace:
            values, notes, spans = measure_traced(setup, args.seconds, checker)
            units = dict(tracer.per_layer_names())
        else:
            values, notes = measure(setup, args.seconds, checker)
            units = dict(END_TO_END)
            spans = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = provenance()
    print(f"# lagrangelab bench: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; python {info['python']}, numpy {info['numpy']}, "
          f"nproc {info['nproc']}, cpu {info['cpu']}")
    passes = notes["traced_passes"] if args.trace else notes["passes"]
    print(f"# {passes} {'traced ' if args.trace else ''}passes of {notes['ops_per_pass']} ops, "
          f"each after a fresh import and input build")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>14.6g} {unit}")
    ratio = checker.failed / checker.attempted
    print(f"{'fail_ratio':48s} {ratio:>14.6g} ({checker.failed} failed / "
          f"{checker.attempted} attempted)")
    for label, entry in sorted(checker.failures.items()):
        print(f"# failed op {label} x{entry['count']}: exit {entry['code']}: {entry['message']}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": info, "notes": notes,
              "metrics": values, "units": units, "attempted": checker.attempted,
              "failed": checker.failed, "fail_ratio": ratio, "failures": checker.failures}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if spans:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.op, s.raised] for s in spans]))

    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
