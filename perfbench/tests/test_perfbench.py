"""Tests of the benchmark harness itself, on tiny versions of its workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(BENCH)]

from plurigeo import flow, grid, hermitian  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import ROOT, Tracer, per_layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    PLURICLOSED_DRIFT_RATE,
    PROGRAM,
    Checks,
    Flow4D,
    FlowTorus,
    Ops,
    _pluriclosed_ok,
    generic_field,
    load_build,
)

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
BUILD = load_build(PROGRAM)

TINY = {
    "flow-torus": FlowTorus(dims=(4, 4, 8, 4), t_end=0.1),
    "flow-4d": Flow4D(dims=(8, 4, 8, 4), steps=2),
    "checks": Checks(count=20, fields=1, dims=(8, 4, 8, 4), hopf_samples=10),
}


def test_tiny_workloads_cover_the_spec():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert all(TINY[name].name == name for name in TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_present_with_units(name, tmp_path):
    raw = worker.execute(TINY[name], seed=3, seconds=0, mode="run", scratch=str(tmp_path))
    assert raw["failed"] == 0, raw["failures"]
    assert len(raw["ref_s"]) == len(raw["rep_s"]) >= 1
    metrics = run.end_to_end(raw, [(raw["setup_s"], raw["setup_s"])], SPEC["end_to_end"])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["unit"] and math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_present_with_units(name, tmp_path):
    raw = worker.execute(TINY[name], seed=3, seconds=0, mode="trace", scratch=str(tmp_path))
    assert raw["failed"] == 0, raw["failures"]
    metrics = raw["per_layer"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["unit"] and math.isfinite(m["value"]) for m in metrics.values())
    assert (tmp_path / f"spans-{name}.json").is_file()


def test_traced_flow_counts_jets_and_covers_the_run(tmp_path):
    raw = worker.execute(TINY["flow-4d"], seed=3, seconds=0, mode="trace", scratch=str(tmp_path))
    m = {k: v["value"] for k, v in raw["per_layer"].items()}
    # 3 diagnostics x 3 jets + 2 steps x 4 stages; 9 distinct fields
    assert m["grid.jets.calls"] == 17
    assert m["grid.jets.useful_frac"] == pytest.approx(9 / 17)
    assert m["flow.step.calls"] == 2 and m["flow.diagnostics.calls"] == 3
    assert m["trace.coverage"] > 0.9
    assert 0 <= m["flow.step.self_s"] <= m["flow.step.busy_s"]


def test_tracer_wraps_caller_names_and_restores_them():
    originals = (flow.degree, grid.MetricField.jets, hermitian.gflow_rhs, hermitian.inverse_metric)
    field = generic_field(BUILD, (8, 4, 8, 4), seed=1)
    tracer = Tracer()
    tracer.install()
    try:
        assert flow.degree is not originals[0]
        with tracer.span(ROOT):
            flow.diagnostics(flow.FlowState(0.0, 0, field))
    finally:
        tracer.uninstall()
    assert (flow.degree, grid.MetricField.jets, hermitian.gflow_rhs, hermitian.inverse_metric) == originals
    names = {sid: name for sid, name, _, _, _ in tracer.spans}
    parents = {names[p] for _, name, _, _, p in tracer.spans if name == "grid.degree"}
    assert parents == {"flow.diagnostics"}
    assert tracer.counts["hermitian.inverse_metric"] > 0
    stats = tracer.layer_stats()
    assert 0 <= stats["flow.diagnostics"]["self_s"] < stats["flow.diagnostics"]["busy_s"]


def test_unknown_per_layer_metric_is_refused():
    with pytest.raises(KeyError):
        per_layer_metrics(Tracer(), [{"name": "grid.jet.calls", "unit": "count"}], 1, 1.0, 1.0)


def test_pluriclosed_gate_bounds_every_row():
    rows = [{"t": 0.0, "pluriclosed_resid": 1e-15}, {"t": 0.01, "pluriclosed_resid": 1e-6}]
    assert _pluriclosed_ok(rows, 0.0)
    rows[1]["pluriclosed_resid"] = 1.1e-6
    assert not _pluriclosed_ok(rows, 0.0)
    assert _pluriclosed_ok(rows, PLURICLOSED_DRIFT_RATE)
    rows[1]["pluriclosed_resid"] = 1e-6 + 1.1 * PLURICLOSED_DRIFT_RATE * 0.01
    assert not _pluriclosed_ok(rows, PLURICLOSED_DRIFT_RATE)


def _negative_field(path):
    g = grid.TorusGrid((8, 4, 8, 4))
    values = np.broadcast_to(-np.eye(2, dtype=complex), g.dims + (2, 2)).copy()
    grid.save_field(path, grid.MetricField(g, values))
    return str(path)


def test_non_positive_field_counts_as_failed(tmp_path):
    bad = _negative_field(tmp_path / "bad.pgmf")
    out = tmp_path / "out"
    out.mkdir()

    wl = TINY["flow-4d"]
    ops = Ops()
    wl.body(BUILD, {"field": bad}, str(out), ops, 0)
    wl.verify({"field": bad}, str(out), ops, 0)
    assert ops.failed >= 1 and ops.attempted > ops.failed

    wl = TINY["checks"]
    inputs = wl.prepare(BUILD, str(tmp_path), seed=0)
    static_cfg = tmp_path / "static-bad.json"
    static_cfg.write_text(json.dumps({"command": "static", "field_file": bad}))
    inputs["static"] = [str(static_cfg)]
    ops = Ops()
    wl.body(BUILD, inputs, str(out), ops, 0)
    wl.verify(inputs, str(out), ops, 0)
    assert ops.failed == 2  # the static command and its report gate
    assert any("cli static" in msg for msg in ops.failures)


def test_failing_command_counts_as_failed(tmp_path):
    wl = TINY["checks"]
    inputs = wl.prepare(BUILD, str(tmp_path), seed=0)
    (tmp_path / "hopf.json").write_text(json.dumps({"command": "hopf", "samples": 0}))
    (tmp_path / "identities.json").write_text(json.dumps({"command": "flow"}))
    ops = Ops()
    wl.body(BUILD, inputs, str(tmp_path), ops, 0)
    wl.verify(inputs, str(tmp_path), ops, 0)
    # identities exits 2 and writes no report, hopf exits 2; static passes
    assert ops.failed == 3
    assert ops.attempted == 5


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    TINY["checks"].prepare(BUILD, str(a), seed=5)
    TINY["checks"].prepare(BUILD, str(b), seed=5)
    assert (a / "field-0.pgmf").read_bytes() == (b / "field-0.pgmf").read_bytes()
    one = generic_field(BUILD, (8, 4, 8, 4), seed=5).values
    other = generic_field(BUILD, (8, 4, 8, 4), seed=6).values
    assert np.array_equal(one, generic_field(BUILD, (8, 4, 8, 4), seed=5).values)
    assert not np.array_equal(one, other)


def test_generic_field_is_positive_for_many_seeds():
    for seed in range(40):
        generic_field(BUILD, (8, 8, 8, 8), seed).check()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
