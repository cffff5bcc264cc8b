"""The split stencil pass: bit-identical for every ``PLURIGEO_THREADS``.

Grids of at least ``grid._SPLIT_NODES`` nodes take their jets in two
halves; with two threads allowed the second half runs in a worker thread.
Each test that needs the worker asserts that it really ran, and skips when
this process may run on fewer than 2 CPUs, so no test starts more threads
than there are cores.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import plurigeo
from plurigeo import cli, grid
from plurigeo import flow as fl
from plurigeo.families import MetricFamily
from plurigeo.grid import perturb_with_potential, sample, save_field, stencil_threads

from conftest import random_trig

DIMS = (16, 8, 16, 8)  # the headline grid, above the split threshold


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


two_cpus = pytest.mark.skipif(_cpus() < 2, reason="the split pass needs 2 CPUs")


@pytest.fixture(scope="module")
def large_field():
    base = sample(MetricFamily("torus_pluriclosed", 0.5), DIMS)
    return perturb_with_potential(base, 0.05 * random_trig(base.grid, 13))


@pytest.fixture
def halves(monkeypatch):
    """Names of the threads that ran a half of the split pass."""
    names = []
    real = grid._stencil_half

    def spy(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(grid, "_stencil_half", spy)
    return names


def _ran_in_worker(names):
    return any(n.startswith("plurigeo-stencil") for n in names)


@two_cpus
def test_jets_bit_identical_across_threads(large_field, halves, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "1")
    one = (large_field.surface_jet(), large_field.jets()[0])
    assert halves and not _ran_in_worker(halves)
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    two = (large_field.surface_jet(), large_field.jets()[0])
    assert _ran_in_worker(halves)
    for name in ("d1", "d2m"):
        assert np.array_equal(getattr(one[0], name), getattr(two[0], name))
    for name in ("d1", "d2m", "d2h"):
        assert np.array_equal(getattr(one[1], name), getattr(two[1], name))


def test_split_pass_matches_the_one_pass_form(large_field, monkeypatch):
    # _stencil_rows, which small grids use, is the reference of the split pass
    split = (large_field.surface_jet(), large_field.jets()[0])
    monkeypatch.setattr(grid, "_SPLIT_NODES", 10**9)
    whole = (large_field.surface_jet(), large_field.jets()[0])
    for name in ("d1", "d2m"):
        assert getattr(split[0], name).tobytes() == getattr(whole[0], name).tobytes()
    for name in ("d1", "d2m", "d2h"):
        assert getattr(split[1], name).tobytes() == getattr(whole[1], name).tobytes()


@two_cpus
def test_gflow_bit_identical_across_threads(large_field, halves, tmp_path, monkeypatch):
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        result = fl.run(large_field, variant="gflow", t_end=3e-3, cadence=1, dt=1.5e-3)
        assert result.status == "completed" and len(result.records) == 3
        fl.write_diagnostics_csv(tmp_path / f"diagnostics{threads}.csv", result.records)
        fl.write_summary_json(tmp_path / f"summary{threads}.json", result.summary)
        outputs[threads] = result.final_state.field.values
    assert _ran_in_worker(halves)
    assert np.array_equal(outputs["1"], outputs["2"])
    for name in ("diagnostics", "summary"):
        suffix = ".csv" if name == "diagnostics" else ".json"
        assert (tmp_path / f"{name}1{suffix}").read_bytes() == (tmp_path / f"{name}2{suffix}").read_bytes()


@two_cpus
def test_static_report_byte_identical_across_threads(large_field, halves, tmp_path, monkeypatch):
    path = tmp_path / "field.pgmf"
    save_field(path, large_field)
    cfg = tmp_path / "static.json"
    cfg.write_text(json.dumps({"command": "static", "field_file": str(path), "c1_bundle": [[1, 0], [0, -1]]}))
    reports = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        out = tmp_path / f"out{threads}"
        assert cli.main(["static", "--config", str(cfg), "--out", str(out)]) == 0
        reports[threads] = (out / "static_report.json").read_bytes()
    assert _ran_in_worker(halves)
    assert reports["1"] == reports["2"]


class TestThreadCap:
    def test_unset_is_the_affinity_mask_at_most_two(self, monkeypatch):
        monkeypatch.delenv("PLURIGEO_THREADS", raising=False)
        assert stencil_threads() == min(2, _cpus())

    @pytest.mark.parametrize("val", ["1", "2", "7", " 8 "])
    def test_a_large_value_is_capped(self, monkeypatch, val):
        monkeypatch.setenv("PLURIGEO_THREADS", val)
        assert stencil_threads() == min(int(val), 2, _cpus())

    @pytest.mark.parametrize("val", ["zero", "0", "-1", "1.5", ""])
    def test_malformed_value_raises(self, monkeypatch, val):
        monkeypatch.setenv("PLURIGEO_THREADS", val)
        with pytest.raises(ValueError, match="PLURIGEO_THREADS"):
            stencil_threads()


@pytest.mark.parametrize("val", ["zero", "0"])
def test_library_runs_serially_on_a_malformed_value(large_field, halves, monkeypatch, val):
    # only the CLI rejects a malformed value; library calls at every grid size run on one thread
    expect = large_field.surface_jet()
    monkeypatch.setenv("PLURIGEO_THREADS", val)
    small = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
    small.surface_jet(), small.jets()
    halves.clear()
    jet = large_field.surface_jet()
    large_field.jets()
    assert len(halves) == 4 and not _ran_in_worker(halves)
    assert np.array_equal(jet.d1, expect.d1) and np.array_equal(jet.d2m, expect.d2m)


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(plurigeo.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    env.pop("PLURIGEO_THREADS", None)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


def test_import_and_small_grids_start_no_thread():
    proc = _python(
        "import sys, threading\n"
        "import plurigeo.cli\n"
        "from plurigeo.families import MetricFamily\n"
        "from plurigeo.grid import sample\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
        "field = sample(MetricFamily('torus_pluriclosed', 0.5), (4, 4, 16, 4))\n"
        "field.surface_jet(), field.jets()\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
    )
    assert proc.returncode == 0, proc.stderr


@two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork")
def test_forked_child_computes_a_split_jet(large_field, halves, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    expect = large_field.surface_jet()
    assert _ran_in_worker(halves)  # the parent has its worker thread now
    pid = os.fork()
    if pid == 0:  # child: the inherited executor has no thread
        code = 1
        try:
            jet = large_field.surface_jet()
            code = 0 if np.array_equal(jet.d2m, expect.d2m) and np.array_equal(jet.d1, expect.d1) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung computing a split jet")
        time.sleep(0.02)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
