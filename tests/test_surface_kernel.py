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

from conftest import composed_jets, cross_field

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


def conditioned_jets(kappa: float, seeds, seed: int) -> hm.HermitianJet:
    """Random jets whose metric has condition number ``kappa``: eigenvalues 1
    and 1/kappa, eigenvectors from a seeded random unitary per jet."""
    jet = hm.random_jet_batch(seeds)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((len(seeds), 2, 2)) + 1j * rng.standard_normal((len(seeds), 2, 2))
    q, _ = np.linalg.qr(z)
    g = np.einsum("nij,j,nkj->nik", q, np.array([1.0, 1.0 / kappa]), np.conj(q))
    g = 0.5 * (g + np.conj(g.swapaxes(-1, -2)))
    return hm.HermitianJet(g, jet.d1, jet.d2m, jet.d2h)


def _kernel_and_oracle_jets():
    """Name -> (the kernel's input, the oracles' jet).  For ``cross`` the
    kernel reads the flow's one stencil pass and the oracles the ``dz``/``dzbar``
    compositions, so a wrong sign in any row of the pass shows here."""
    jets = {
        "random_free": hm.random_jet_batch(range(2000)),
        "random_pluriclosed": hm.random_jet_batch(range(2000, 4000), pluriclosed=True),
        **_family_jets(),
        **{f"kappa_{k:.0e}": conditioned_jets(k, range(4000 + i * 2000, 6000 + i * 2000), i)
           for i, k in enumerate(KAPPAS)},
    }
    pairs = {name: (hm.SurfaceJet.from_jet(jet), jet) for name, jet in jets.items()}
    cross = cross_field()
    pairs["cross"] = (cross.surface_jet(), composed_jets(cross))
    return pairs


# The einsum oracles lose digits like kappa(g) eps, so on the conditioned
# sets the kernel is held to KAPPA_TOL * kappa (largest error / kappa
# measured over the three sets: 1.6e-15)
KAPPAS = (1e2, 1e4, 1e6)
KAPPA_TOL = 1e-14
JETS = _kernel_and_oracle_jets()


def _tol(name: str) -> float:
    return KAPPA_TOL * float(name[len("kappa_"):]) if name.startswith("kappa_") else TOL


def _rel(value, oracle) -> float:
    """Largest |value - oracle| / max(1, |oracle|), entrywise."""
    value, oracle = np.asarray(value), np.asarray(oracle)
    return float((np.abs(value - oracle) / np.maximum(1.0, np.abs(oracle))).max())


@pytest.mark.parametrize("name", sorted(JETS))
def test_kernel_matches_oracles(name):
    surface, jet = JETS[name]
    tol = _tol(name)
    out = hm.surface_flow(surface, curvature=True)
    _, _, _, scal = hm.chern_curvature(jet)
    _, _, tnorm_sq = hm.torsion_quadratics(jet)
    _, w = hm.torsion(jet)
    gup = hm.inverse_metric(jet.g)
    w_sq = np.einsum("...ij,...i,...j->...", gup, w, np.conj(w)).real
    assert _rel(out.rhs, hm.gflow_rhs(jet)) <= tol
    assert _rel(out.scal, scal) <= tol
    assert _rel(out.tnorm_sq, tnorm_sq) <= tol
    assert _rel(out.w_sq, w_sq) <= tol
    assert _rel(np.sqrt(out.curv_sq), hm.curvature_norm(jet)) <= tol
    assert _rel(out.pluriclosed, hm.pluriclosed_residual(jet)) <= tol


def test_conditioned_jets_have_their_condition_number():
    for kappa in KAPPAS:
        g = JETS[f"kappa_{kappa:.0e}"][1].g
        lam = np.linalg.eigvalsh(g)
        assert np.allclose(lam[:, 1] / lam[:, 0], kappa, rtol=1e-6)
        # g is exactly Hermitian, and so is its inverse
        gup = hm.inverse_metric(g)
        assert not np.diagonal(gup, axis1=-2, axis2=-1).imag.any()
        assert np.array_equal(gup[:, 1, 0], np.conj(gup[:, 0, 1]))


def test_velocity_is_exactly_hermitian():
    out = hm.surface_flow(JETS["random_free"][0])
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
