"""Tests of the benchmark's own machinery: wrappers, restoring, counters.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repo root.
Each test runs a few ops of the small rect-robin workload.
"""

import json
import os
from collections import Counter

import pytest

import run as bench
import tracing


@pytest.fixture(scope="module")
def modules():
    return tracing.conesolve_modules()


@pytest.fixture(scope="module")
def workload():
    return bench.load_workloads()["rect-robin"]


@pytest.fixture
def cfg_path(tmp_path, workload):
    path = tmp_path / "rect-robin.cfg"
    path.write_text(workload["config_text"], encoding="utf-8")
    return str(path)


def _originals(modules):
    found = {(owner, attr): owner.__dict__[attr]
             for owner, attr, _, _ in tracing.targets(modules)}
    op_cls = modules["operator"].DiscreteOperator
    found[(op_cls, "factorization")] = op_cls.__dict__["factorization"]
    return found


def _traced_op(modules, workload, cfg_path, work, seed=7):
    tracer = tracing.Tracer(modules)
    ops = bench.load_loop(modules["cli"], workload, cfg_path, seed, 0.0,
                          str(work), tracer)
    assert [op.traced for op in ops] == [True]
    return tracer, ops[0]


def test_untraced_run_installs_no_wrappers(modules, workload, cfg_path,
                                           tmp_path, monkeypatch):
    cli = modules["cli"]
    real_main = cli.main
    before = _originals(modules)
    seen = []

    def spy(argv):
        now = _originals(modules)
        seen.append([attr for (owner, attr), fn in now.items()
                     if fn is not before[(owner, attr)]])
        return real_main(argv)

    monkeypatch.setattr(cli, "main", spy)
    ops = bench.load_loop(cli, workload, cfg_path, 7, 0.0, str(tmp_path))
    assert seen == [[]]
    assert [op.failure for op in ops] == [None]
    assert not ops[0].traced


def test_traced_run_restores_every_original(modules, workload, cfg_path,
                                            tmp_path):
    before = _originals(modules)
    tracer, op = _traced_op(modules, workload, cfg_path, tmp_path)
    assert op.failure is None
    assert tracer.spans, "the traced op recorded no spans"
    after = _originals(modules)
    assert all(after[key] is fn for key, fn in before.items())


def test_traced_op_that_raises_still_restores(modules, workload, cfg_path,
                                              tmp_path, monkeypatch):
    before = _originals(modules)

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(modules["cli"], "main", broken)
    _, op = _traced_op(modules, workload, cfg_path, tmp_path)
    assert op.exit_code is None
    assert op.message == "RuntimeError: boom"
    assert op.failure == "exit None"
    after = _originals(modules)
    assert all(after[key] is fn for key, fn in before.items())


def test_span_counts_equal_counters(modules, workload, cfg_path, tmp_path):
    tracer, _ = _traced_op(modules, workload, cfg_path, tmp_path)
    (op_id, notes), = tracer.ops
    spans = tracer.spans
    by_name = Counter(s[0] for s in spans if s[4] == op_id)
    calls = {k[:-len(".calls")]: v for k, v in notes.items()
             if k.endswith(".calls")}
    assert by_name == calls

    # T is applied once more than the iteration count of each run of
    # monotone_iterate: its children are the counter's apply_T calls
    iterate = [k for k, s in enumerate(spans)
               if s[0] == "fixedpoint.iterate"]
    under = sum(1 for s in spans
                if s[0] == "fixedpoint.apply_T" and s[3] in iterate)
    assert under == notes["fixedpoint.iterations"] + len(iterate)

    metrics = tracing.op_metrics(spans, tracing.spans_by_op(spans)[op_id],
                                 notes)
    assert metrics["greens.lu_solves"] == by_name["greens.lu_solve"]
    assert metrics["greens.solves_per_apply"] == 1.0
    assert metrics["fixedpoint.apply_T_calls"] == \
        by_name["fixedpoint.apply_T"]
    assert metrics["expr.eval_calls"] == by_name["expr.eval"]


def test_size_counters_match_the_operator(modules, workload, cfg_path,
                                          tmp_path):
    tracer, _ = _traced_op(modules, workload, cfg_path, tmp_path)
    (op_id, notes), = tracer.ops
    metrics = tracing.op_metrics(
        tracer.spans, tracing.spans_by_op(tracer.spans)[op_id], notes)
    cli = modules["cli"]
    cfg = cli.load_config(cfg_path)
    grid = cli.build_grid(cfg.domain, cfg.h)
    op = cli.assemble(grid, cfg.coefficients, cfg.bc)
    lu = op.factorization()
    assert metrics["geometry.nodes"] == grid.interior_count == workload["N"]
    assert metrics["operator.nnz"] == op.matrix.nnz
    assert metrics["greens.lu_fill"] == lu.L.nnz + lu.U.nnz


def test_counters_repeat_with_one_seed(modules, workload, cfg_path,
                                       tmp_path):
    runs = []
    for _ in range(2):
        tracer, _ = _traced_op(modules, workload, cfg_path, tmp_path,
                               seed=99)
        (op_id, notes), = tracer.ops
        m = tracing.op_metrics(tracer.spans,
                               tracing.spans_by_op(tracer.spans)[op_id],
                               notes)
        runs.append({key: m[key] for key in tracing.REPEATABLE_COUNTERS})
    assert runs[0] == runs[1]
    assert all(v > 0 for v in runs[0].values())


def test_output_check_rejects_a_wrong_norm(modules, workload, cfg_path,
                                           tmp_path):
    cli = modules["cli"]
    out = tmp_path / "out"
    out.mkdir()
    _, code, _ = bench.run_op(cli, ["solve", "--config", cfg_path, "--out",
                                    str(out), "--seed", "7"])
    assert bench.check_output(code, str(out), workload) is None
    shifted = dict(workload, reference_norm=workload["reference_norm"] + 1e-6)
    assert "differs from reference" in bench.check_output(code, str(out),
                                                          shifted)
    assert bench.check_output(70, str(out), workload) == "exit 70"


def test_tail_leaves_ten_samples_beyond():
    times = [float(k) for k in range(1, 101)]
    assert bench.tail(times) == (90, 90.0)
    assert bench.tail(times[:10]) is None
    _, value = bench.tail(times[:66])
    assert sum(t > value for t in times[:66]) == 10


def test_metric_names_match_benchmark_json():
    path = os.path.join(bench.HERE, os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER_UNITS
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == {name for name, wl in bench.load_workloads().items()
                      if wl["listed_in_benchmark_json"]}
