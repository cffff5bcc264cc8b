"""Numerics for the pluriclosed flow on complex surfaces.

Pointwise Hermitian tensor calculus (:mod:`plurigeo.hermitian`), exact
metric families (:mod:`plurigeo.families`), a periodic 4-torus
discretization (:mod:`plurigeo.grid`), flow time integration
(:mod:`plurigeo.flow`), static-metric diagnostics
(:mod:`plurigeo.statics`), and a batch CLI (:mod:`plurigeo.cli`).
"""

from .families import MetricFamily, jet_at
from .hermitian import HermitianJet, identity_suite
from .grid import MetricField, TorusGrid, sample

__version__ = "0.1.0"

__all__ = [
    "MetricFamily",
    "jet_at",
    "HermitianJet",
    "identity_suite",
    "MetricField",
    "TorusGrid",
    "sample",
    "__version__",
]
