"""The stencil pass, the split surface kernel and the split identity
suite: bit-identical for every ``PLURIGEO_THREADS``.

The stencil pass takes the metric's four real fields in one
``_stencil_half`` call in the calling thread, or, on grids of at least
``_threads.SPLIT_NODES`` nodes with two threads allowed, in two halves,
the second in a worker thread; there ``surface_flow`` hands part of its
work to the same thread.  ``identity_suite`` checks batches of at least
``_threads.SPLIT_JETS`` jets in two halves, the first in the same
worker when two threads are allowed.  Each test that needs the worker
asserts that it really ran, and skips when this process may run on
fewer than 2 CPUs, so no test starts more threads than there are cores.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import plurigeo
from plurigeo import _threads, cli, grid
from plurigeo import flow as fl
from plurigeo import hermitian as hm
from plurigeo._threads import stencil_threads
from plurigeo.families import MetricFamily
from plurigeo.grid import perturb_with_potential, sample, save_field

from conftest import (
    cpus,
    data_blocks,
    grouped_complex_hessian,
    grouped_surface_jet,
    random_trig,
    surface_jet_of,
    two_cpus,
    worker_ran,
)

DIMS = (16, 8, 16, 8)  # the headline grid, above the split threshold
SMALL = (4, 4, 16, 4)  # the flow-torus grid, below it


@pytest.fixture(scope="module")
def large_field():
    base = sample(MetricFamily("torus_pluriclosed", 0.5), DIMS)
    return perturb_with_potential(base, 0.05 * random_trig(base.grid, 13))


@pytest.fixture(scope="module")
def pinned_fields(large_field):
    small = sample(MetricFamily("torus_pluriclosed", 0.5), SMALL)
    return {"small": perturb_with_potential(small, 0.05 * random_trig(small.grid, 13)), "large": large_field}


@pytest.fixture
def halves(monkeypatch):
    """Names of the threads that ran a call of the stencil pass (the four
    fields, or a half of them)."""
    names = []
    real = grid._stencil_half

    def spy(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(grid, "_stencil_half", spy)
    return names


@two_cpus
def test_jets_bit_identical_across_threads(large_field, halves, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "1")
    one = (large_field.surface_jet(), large_field.jets()[0])
    assert halves and not worker_ran(halves)
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    two = (large_field.surface_jet(), large_field.jets()[0])
    assert worker_ran(halves)
    for name in ("d1", "d2m"):
        assert np.array_equal(getattr(one[0], name), getattr(two[0], name))
    for name in ("d1", "d2m", "d2h"):
        assert np.array_equal(getattr(one[1], name), getattr(two[1], name))


def test_split_pass_matches_the_one_pass_form(pinned_fields, halves, monkeypatch):
    # the grouped pass, frozen in conftest.stencil_rows, is the independent
    # reference of the one pass and of its split form; two threads only
    # where this process may run on two CPUs
    counts = ("1", "2") if cpus() >= 2 else ("1",)
    for threads in counts:
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        for name, field in pinned_fields.items():
            expect = grouped_surface_jet(field)
            for jet in (field.surface_jet(), surface_jet_of(field.jets()[0])):
                for part in ("d1", "d2m"):
                    assert getattr(jet, part).tobytes() == getattr(expect, part).tobytes(), (threads, name, part)
            u = random_trig(field.grid, 3)
            hessian = grouped_complex_hessian(field.grid, u)
            assert field.grid.complex_hessian(u).tobytes() == hessian.tobytes(), (threads, name)
    assert worker_ran(halves) == (len(counts) == 2)


def test_small_jets_split_in_the_calling_thread(halves, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    sample(MetricFamily("torus_pluriclosed", 0.5), SMALL).jets()
    assert halves == [threading.current_thread().name]  # one call over the four fields


@two_cpus
def test_worker_half_keeps_the_callers_error_state(large_field, halves, monkeypatch):
    values = large_field.values.copy()
    values[3, 2, 5, 1, 0, 0] = np.inf  # g11: the worker's half
    field = grid.MetricField(large_field.grid, values)
    for threads in ("1", "2"):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        for take in (field.surface_jet, field.jets):
            with np.errstate(invalid="raise", over="raise"), pytest.raises(FloatingPointError):
                take()
            with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
                warnings.simplefilter("always")
                take()
            assert not caught, (threads, take.__name__)
            called = []
            with np.errstate(all="ignore", invalid="call", call=lambda kind, flag: called.append(kind)):
                take()
            assert called and set(called) == {"invalid value"}, (threads, take.__name__)
    assert worker_ran(halves)


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
    assert worker_ran(halves)
    assert np.array_equal(outputs["1"], outputs["2"])
    for name in ("diagnostics", "summary"):
        suffix = ".csv" if name == "diagnostics" else ".json"
        assert (tmp_path / f"{name}1{suffix}").read_bytes() == (tmp_path / f"{name}2{suffix}").read_bytes()


@two_cpus
def test_a_run_on_two_threads_takes_every_jet_in_one_workspace(large_field, halves, kernel_jets, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    result = fl.run(large_field, variant="gflow", t_end=1.5e-3, cadence=1, dt=1.5e-3)
    assert result.status == "completed" and worker_ran(halves)
    assert len(kernel_jets) == 5  # two records and three stages
    assert len(data_blocks(jet.d1 for jet in kernel_jets)) == 1


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
    assert worker_ran(halves)
    assert reports["1"] == reports["2"]


OUTPUTS = ("rhs", "det", "scal", "tnorm_sq", "w_sq", "pluriclosed", "curv_sq")


def _same_outputs(a: hm.SurfaceFlow, b: hm.SurfaceFlow) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name)) and getattr(a, name).dtype == getattr(b, name).dtype
        for name in OUTPUTS
    )


@pytest.fixture(scope="module")
def kernel_inputs(large_field):
    """The kernel's input as the flow and ``static_report`` give it
    (``surface_jet``), and as the strided views of a full jet
    (``surface_jet_of``) that the oracle tests pass."""
    return {"surface_jet": large_field.surface_jet(), "views": surface_jet_of(large_field.jets()[0])}


@two_cpus
def test_kernel_runs_partly_in_the_worker(kernel_inputs, kernel_threads, monkeypatch):
    main = threading.current_thread().name
    monkeypatch.setenv("PLURIGEO_THREADS", "1")
    hm.surface_flow(kernel_inputs["surface_jet"])
    assert kernel_threads == [main]
    kernel_threads.clear()
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    hm.surface_flow(kernel_inputs["surface_jet"])
    assert len(kernel_threads) == 1 and worker_ran(kernel_threads)


@two_cpus
def test_kernel_bit_identical_across_threads(kernel_inputs, kernel_threads, monkeypatch):
    for name, jet in kernel_inputs.items():
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("PLURIGEO_THREADS", threads)
            outputs[threads] = hm.surface_flow(jet)
        assert _same_outputs(outputs["1"], outputs["2"]), name
    assert worker_ran(kernel_threads)


@two_cpus
def test_kernel_worker_keeps_the_callers_error_state(kernel_inputs, kernel_threads, monkeypatch):
    jet = kernel_inputs["surface_jet"]
    d1 = jet.d1.copy()
    # read only by the worker's part (mu * d1[i, k, 1]), where inf * mu is an invalid value
    d1[0, 0, 1][3, 2, 5, 1] = complex(np.inf, np.inf)
    bad = hm.SurfaceJet(jet.g, d1, jet.d2m)
    for threads in ("1", "2"):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            hm.surface_flow(bad)
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            hm.surface_flow(bad)
        assert not caught, threads
    assert worker_ran(kernel_threads)


@two_cpus
def test_singular_field_raises_and_the_next_call_succeeds(large_field, kernel_inputs, kernel_threads, monkeypatch):
    jet = kernel_inputs["surface_jet"]
    expect = hm.surface_flow(jet)
    for node in ([[1.0, 1.0], [1.0, 1.0]], 0.0):  # det 0; and g 0, where mu is 0 / 0
        values = large_field.values.copy()
        values[5, 1, 9, 3] = node
        singular = hm.SurfaceJet(values, jet.d1, jet.d2m)
        for threads in ("1", "2"):
            monkeypatch.setenv("PLURIGEO_THREADS", threads)
            with np.errstate(all="ignore"), pytest.raises(hm.SingularMetricError):
                hm.surface_flow(singular)
            assert _same_outputs(hm.surface_flow(jet), expect), threads
    assert worker_ran(kernel_threads)


@two_cpus
def test_a_split_entered_in_the_worker_runs_there(monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    with _threads.split(_threads.SPLIT_NODES) as outer:
        assert outer.threaded
        inner = outer.get(outer.run(_threads.split, _threads.SPLIT_NODES))
    assert inner is _threads._ONE_THREAD


@two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork")
def test_kernel_handed_to_the_worker_returns(kernel_inputs, kernel_threads, monkeypatch):
    # surface_flow splits again in the worker: handing its frame to the
    # worker there would wait on itself forever, so the child has a deadline
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    jet = kernel_inputs["surface_jet"]
    expect = hm.surface_flow(jet)
    kernel_threads.clear()

    def check():
        with _threads.split(_threads.SPLIT_NODES) as split:
            part = split.run(hm.surface_flow, jet)
        return _same_outputs(split.get(part), expect) and len(kernel_threads) == 1 and worker_ran(kernel_threads)

    _in_forked_child(check)


def _identity_batches(large_field):
    """An odd count of random pluriclosed jets just over the split threshold,
    and a grid's jets, split along its first axis."""
    return {
        "random": hm.random_jet_batch(np.random.default_rng(5), _threads.SPLIT_JETS + 1, pluriclosed=True),
        "grid": large_field.jets()[0],
    }


@two_cpus
def test_identity_suite_bit_identical_across_threads(large_field, identity_threads, monkeypatch):
    least = _threads.SPLIT_JETS
    for name, jets in _identity_batches(large_field).items():
        monkeypatch.setattr(_threads, "SPLIT_JETS", 10**9)
        whole = hm.identity_suite(jets, pluriclosed=True)
        monkeypatch.setattr(_threads, "SPLIT_JETS", least)
        for threads in ("1", "2"):
            identity_threads.clear()
            monkeypatch.setenv("PLURIGEO_THREADS", threads)
            split = hm.identity_suite(jets, pluriclosed=True)
            assert len(identity_threads) == 2 and worker_ran(identity_threads) == (threads == "2"), name
            assert split.keys() == whole.keys()
            for key, value in whole.items():
                assert split[key].shape == value.shape and split[key].tobytes() == value.tobytes(), (name, key)


@two_cpus
def test_identity_halves_fail_as_on_one_thread(identity_threads, monkeypatch):
    jets = hm.random_jet_batch(np.random.default_rng(5), _threads.SPLIT_JETS + 1)
    for row in (3, -3):  # in the worker's half, in the caller's
        g = jets.g.copy()
        g[row] = 0.0
        singular = hm.HermitianJet(g, jets.d1, jets.d2m, jets.d2h)
        d2h = jets.d2h.copy()
        d2h[row, 0, 0, 0, 0] = np.inf  # inf - inf in the torsion's derivative
        bad = hm.HermitianJet(jets.g, jets.d1, jets.d2m, d2h)
        for threads in ("1", "2"):
            monkeypatch.setenv("PLURIGEO_THREADS", threads)
            with pytest.raises(hm.SingularMetricError):
                hm.identity_suite(singular)
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
                hm.identity_suite(bad)
            with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
                warnings.simplefilter("always")
                hm.identity_suite(bad)
            assert not caught, (row, threads)
    assert worker_ran(identity_threads)


@two_cpus
def test_kernel_raises_the_same_exception_for_every_thread_count(large_field, kernel_inputs, monkeypatch):
    # g 0 at a node: the frame's mu is 0 / 0 before inverse_metric finds det 0; on
    # one thread the frame fails first, so it does on two
    jet = kernel_inputs["surface_jet"]
    values = large_field.values.copy()
    values[5, 1, 9, 3] = 0.0
    singular = hm.SurfaceJet(values, jet.d1, jet.d2m)
    for threads in ("1", "2"):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
            hm.surface_flow(singular)

class TestThreadCap:
    def test_unset_is_the_affinity_mask_at_most_two(self, monkeypatch):
        monkeypatch.delenv("PLURIGEO_THREADS", raising=False)
        assert stencil_threads() == min(2, cpus())

    @pytest.mark.parametrize("val", ["1", "2", "7", " 8 "])
    def test_a_large_value_is_capped(self, monkeypatch, val):
        monkeypatch.setenv("PLURIGEO_THREADS", val)
        assert stencil_threads() == min(int(val), 2, cpus())

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
    small = sample(MetricFamily("torus_pluriclosed", 0.5), SMALL)
    small.surface_jet(), small.jets()
    halves.clear()
    jet = large_field.surface_jet()
    large_field.jets()
    assert len(halves) == 2 and not worker_ran(halves)  # one call each
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


def _in_forked_child(check) -> None:
    """Run ``check()`` in a forked child, which inherits the executor but
    not its worker thread; fail unless it returns true within 30 s."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if check() else 1
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
            pytest.fail("the forked child hung")
        time.sleep(0.02)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork")
def test_forked_child_computes_a_split_jet(large_field, halves, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    expect = large_field.surface_jet()
    assert worker_ran(halves)  # the parent has its worker thread now

    def check():
        jet = large_field.surface_jet()
        return np.array_equal(jet.d2m, expect.d2m) and np.array_equal(jet.d1, expect.d1)

    _in_forked_child(check)


@two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork")
def test_forked_child_computes_the_kernel(kernel_inputs, kernel_threads, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    jet = kernel_inputs["surface_jet"]
    expect = hm.surface_flow(jet)
    assert worker_ran(kernel_threads)
    _in_forked_child(lambda: _same_outputs(hm.surface_flow(jet), expect))


_DX_HASHES = (
    "import hashlib\n"
    "import numpy as np\n"
    "from plurigeo.grid import TorusGrid\n"
    "grid = TorusGrid((16, 16, 16, 16))\n"
    "rng = np.random.default_rng(3)\n"
    "u = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)\n"
    "print(' '.join(hashlib.sha256(grid.dx(u, a).tobytes()).hexdigest() for a in range(4)))\n"
)


@two_cpus
def test_outputs_byte_identical_across_blas_threads(tmp_path):
    """The difference-matrix products give the same bits for every BLAS
    thread count: a 16x8x16x8 flow's diagnostics.csv, and complex
    derivatives at 16^4, whose products exceed OpenBLAS's threading
    threshold.  The stencil pass stays on one thread, so no run starts
    more threads than there are cores."""
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "command": "flow", "family": {"kind": "torus_pluriclosed", "eps": 0.5},
        "dims": [16, 8, 16, 8], "dt": 1.5e-3, "t_end": 4.5e-3, "cadence": 1,
    }))
    env = dict(os.environ, PLURIGEO_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(plurigeo.__file__)), env.get("PYTHONPATH", "")])
    outputs = {}
    for blas in ("1", str(min(2, cpus()))):
        env["OPENBLAS_NUM_THREADS"] = blas
        out = tmp_path / f"out{blas}"
        flow = subprocess.run(
            [sys.executable, "-m", "plurigeo", "flow", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert flow.returncode == 0, flow.stderr
        dx = subprocess.run([sys.executable, "-c", _DX_HASHES], capture_output=True, text=True, env=env, timeout=120)
        assert dx.returncode == 0, dx.stderr
        outputs[blas] = ((out / "diagnostics.csv").read_bytes(), dx.stdout)
    assert len(outputs["1"][0].splitlines()) == 5  # header and steps 0 to 3
    assert outputs["1"] == outputs["2"]
