"""The fused surface kernel and the one-pass stencil jets against the oracles.

The flow hot path evaluates ``surface_flow`` on ``MetricField.surface_jet``;
the einsum kernels (``gflow_rhs``, ``chern_curvature``,
``torsion_quadratics``, ``torsion``, ``curvature_norm``) on the full
``MetricField.jets`` are the oracles it is pinned to.  The jets themselves
are pinned to ``dz``/``dzbar`` compositions in ``test_grid.py``.
"""

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily, jet_at
from plurigeo.grid import degree, wedge_pair

TOL = 1e-13


def _family_jets():
    grids = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    pts = (grids, grids * 0 + 0.3, grids[::-1], grids * 0 + 1.1)
    zs = np.exp(1j * grids)
    return {
        "kahler_potential": jet_at(MetricFamily("kahler_potential", 0.4), pts),
        "torus_pluriclosed": jet_at(MetricFamily("torus_pluriclosed", 0.5), pts),
        "hopf": jet_at(MetricFamily("hopf"), (0.9 * zs, 0.7 * np.conj(zs))),
    }


JETS = {
    "random_free": hm.random_jet_batch(range(2000)),
    "random_pluriclosed": hm.random_jet_batch(range(2000, 4000), pluriclosed=True),
    **_family_jets(),
}


def _rel(value, oracle) -> float:
    """Largest |value - oracle| / max(1, |oracle|), entrywise."""
    value, oracle = np.asarray(value), np.asarray(oracle)
    return float((np.abs(value - oracle) / np.maximum(1.0, np.abs(oracle))).max())


@pytest.mark.parametrize("name", sorted(JETS))
def test_kernel_matches_oracles(name):
    jet = JETS[name]
    out = hm.surface_flow(hm.SurfaceJet.from_jet(jet), curvature=True)
    _, _, _, scal = hm.chern_curvature(jet)
    _, _, tnorm_sq = hm.torsion_quadratics(jet)
    _, w = hm.torsion(jet)
    gup = hm.inverse_metric(jet.g)
    w_sq = np.einsum("...ij,...i,...j->...", gup, w, np.conj(w)).real
    assert _rel(out.rhs, hm.gflow_rhs(jet)) <= TOL
    assert _rel(out.scal, scal) <= TOL
    assert _rel(out.tnorm_sq, tnorm_sq) <= TOL
    assert _rel(out.w_sq, w_sq) <= TOL
    assert _rel(np.sqrt(out.curv_sq), hm.curvature_norm(jet)) <= TOL
    assert _rel(out.pluriclosed, hm.pluriclosed_residual(jet)) <= TOL


def test_velocity_is_exactly_hermitian():
    out = hm.surface_flow(hm.SurfaceJet.from_jet(JETS["random_free"]))
    rhs = out.rhs
    assert np.array_equal(rhs, np.conj(rhs.swapaxes(-1, -2)))
    assert out.curv_sq is None


def test_singular_metric_raises():
    jet = hm.HermitianJet.flat((3,))
    g = jet.g.copy()
    g[1] = 0.0
    with pytest.raises(hm.SingularMetricError):
        hm.surface_flow(hm.SurfaceJet.from_jet(hm.HermitianJet(g, jet.d1, jet.d2m, jet.d2h)))


def test_surface_jet_matches_full_jets(generic_fields):
    """The hot-path velocity on grid jets equals the einsum oracle on the full
    jets (the jets themselves are bit-equal: ``TestOnePass`` in ``test_grid.py``)."""
    for field in generic_fields:
        full, _ = field.jets()
        assert np.abs(
            hm.surface_flow(field.surface_jet()).rhs - hm.gflow_rhs(full)
        ).max() <= 1e-13


def test_surface_jet_keeps_pluriclosed_data_pluriclosed(generic_fields):
    pluriclosed, generic = generic_fields
    assert hm.surface_flow(pluriclosed.surface_jet()).pluriclosed.max() < 1e-13
    assert hm.surface_flow(generic.surface_jet()).pluriclosed.max() > 1e-3


def test_degree_is_integrated_chern_scalar(generic_fields):
    # int (-(i/2) del dbar log det g) ^ omega through the Hodge-block oracle
    for field in generic_fields:
        jet, _ = field.jets()
        rep = -hm.hodge_operators(jet).chern_ricci
        oracle = float(field.grid.integrate(wedge_pair(rep, field.values).real))
        assert abs(degree(field) - oracle) <= 1e-12 * max(1.0, abs(oracle))
