"""What the benchmark's traced run (``perfbench --trace 1``) needs from the package.

The tracer in ``perfbench/tracer.py`` wraps functions by ``(owner,
attribute)`` and reads the size of every jet ``MetricField.jets`` returns.
A refactor that renames a wrapped function or slims the full jet would
break the traced run; these tests catch that in the package's own suite.
The tracer keeps one span stack, which is not thread-safe, so no wrapped
function may run in the worker thread of the split stencil pass and
surface kernel.  The split identity suite is the one exception: the
worker checks the first half of a large batch with the wrapped kernels
(``chern_curvature`` and the like), so the traced ``checks`` run can
attribute their spans across the two threads.
"""

import functools
import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from plurigeo import flow as fl
from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily
from plurigeo.grid import perturb_with_potential, sample

from conftest import random_trig, two_cpus, worker_ran

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves(tracer):
    targets = [site for _, sites in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS for site in sites]
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if attr not in vars(owner) or not callable(vars(owner)[attr])
    ]
    assert not missing


def test_metric_field_jets_returns_a_full_jet():
    field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 8, 4))
    jet, deviations = field.jets()
    assert isinstance(jet, hm.HermitianJet)
    batch = field.grid.dims
    assert jet.g.shape == batch + (2, 2)
    assert jet.d1.shape == batch + (2, 2, 2)
    for arr in (jet.d2m, jet.d2h):
        assert isinstance(arr, np.ndarray) and arr.shape == batch + (2, 2, 2, 2)
        assert arr.nbytes == field.grid.nodes * 16 * 16
    assert set(deviations) == {"d2h_symmetry", "d2m_reality"}


@two_cpus
def test_wrapped_functions_run_on_the_calling_thread(tracer, kernel_threads, monkeypatch):
    """``flow.diagnostics`` and ``flow.step`` above the split threshold, with
    two threads: every call of a function the tracer wraps is made on the
    main thread, and no more threads than the two cores ever run."""
    monkeypatch.setenv("PLURIGEO_THREADS", "2")
    calls = []

    def spy(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return fn(*args, **kwargs)

        return wrapper

    for _, sites in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS:
        for owner, attr in sites:
            monkeypatch.setattr(owner, attr, spy(vars(owner)[attr]))
    base = sample(MetricFamily("torus_pluriclosed", 0.5), (16, 8, 16, 8))
    state = fl.FlowState(0.0, 0, perturb_with_potential(base, 0.05 * random_trig(base.grid, 13)))
    fl.diagnostics(state)
    fl.step(state, 1.5e-3)
    assert worker_ran(kernel_threads)
    assert calls and all(main for main, _ in calls)
    assert max(count for _, count in calls) <= 2 and threading.active_count() <= 2


def test_ab_bodies_runs_a_checkout_against_the_reference():
    # scripts/ab_bodies.py runs perfbench's workload bodies: a change to
    # perfbench/workloads.py that breaks the tool fails here
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "scripts/ab_bodies.py", ".", "perfbench/reference/plurigeo_ref",
         "--workload", "flow-torus", "--pairs", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "B/A median ratio" in proc.stdout, proc.stdout
