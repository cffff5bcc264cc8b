"""What the benchmark's traced run (``perfbench --trace 1``) needs from the package.

The tracer in ``perfbench/tracer.py`` wraps functions by ``(owner,
attribute)`` and reads the size of every jet ``MetricField.jets`` returns.
A refactor that renames a wrapped function or slims the full jet would
break the traced run; these tests catch that in the package's own suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily
from plurigeo.grid import sample

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
