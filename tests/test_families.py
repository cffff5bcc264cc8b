"""Analytic family tests: jets against finite-difference oracles, predictions."""

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import DomainError, MetricFamily, jet_at

from conftest import kahler_ricci


def fd_jet_error(family: MetricFamily, n: int) -> float:
    """Max deviation between analytic jets and 4th-order differences of the
    closed form sampled on an n-point axis grid (active axes only)."""
    h = 2 * np.pi / n
    xs = np.arange(n) * h

    def g_of(x1, x3):
        jet = jet_at(family, (np.asarray(x1, float), 0.0 * np.asarray(x1, float),
                              np.asarray(x3, float), 0.0 * np.asarray(x3, float)))
        return jet.g

    x1 = xs[:, None] * np.ones(n)[None, :]
    x3 = np.ones(n)[:, None] * xs[None, :]
    g = g_of(x1, x3)

    def d(u, axis):
        return (
            -np.roll(u, -2, axis) + 8 * np.roll(u, -1, axis)
            - 8 * np.roll(u, 1, axis) + np.roll(u, 2, axis)
        ) / (12 * h)

    # holomorphic derivatives: x2/x4 directions are inactive for these families
    d1_fd = np.stack([0.5 * d(g, 0), 0.5 * d(g, 1)], axis=-3)
    d2m_fd = np.stack(
        [np.stack([0.5 * d(d1_fd[..., k, :, :], l) for l in range(2)], axis=-3)
         for k in range(2)],
        axis=-4,
    )
    jet = jet_at(family, (x1, 0 * x1, x3, 0 * x3))
    return max(
        float(np.abs(jet.d1 - d1_fd).max()), float(np.abs(jet.d2m - d2m_fd).max())
    )


class TestJetsVsFiniteDifferences:
    @pytest.mark.parametrize(
        "family",
        [MetricFamily("kahler_potential", 0.4), MetricFamily("torus_pluriclosed", 0.5)],
    )
    def test_fourth_order_convergence(self, family):
        e8 = fd_jet_error(family, 8)
        e16 = fd_jet_error(family, 16)
        assert e16 < 1e-3
        order = np.log2(e8 / e16)
        assert order >= 3.5

    def test_flat_exact(self):
        assert fd_jet_error(MetricFamily("flat"), 8) == 0.0

    def test_hopf_fd_oracle(self):
        # complex-step-free oracle: central differences of g over real coords of C^2
        z0 = np.array([0.8 + 0.3j, -0.4 + 1.1j])
        h = 1e-5

        def g_of(z1, z2):
            return jet_at(MetricFamily("hopf"), (z1, z2)).g

        jet = jet_at(MetricFamily("hopf"), (z0[0], z0[1]))
        # del_{z^1} g = ((d/dx - i d/dy)/2) g
        gx = (g_of(z0[0] + h, z0[1]) - g_of(z0[0] - h, z0[1])) / (2 * h)
        gy = (g_of(z0[0] + 1j * h, z0[1]) - g_of(z0[0] - 1j * h, z0[1])) / (2 * h)
        assert np.abs(jet.d1[0] - 0.5 * (gx - 1j * gy)).max() < 1e-8


class TestSpecificValues:
    def test_torus_sample_values(self):
        jet = jet_at(MetricFamily("torus_pluriclosed", 0.5), (0.0, 0.0, 0.0, 0.0))
        assert abs(jet.g[0, 1] - 0.5) < 1e-15
        assert abs(jet.d1[1, 0, 1] - 0.25j) < 1e-15

    def test_hopf_at_unit_point(self):
        jet = jet_at(MetricFamily("hopf"), (1.0 + 0j, 0.0 + 0j))
        assert np.abs(jet.g - np.eye(2)).max() < 1e-15
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[0] = -np.eye(2)  # del_k g_{i jbar} = -zbar_k delta_ij
        assert np.abs(jet.d1 - expected).max() < 1e-15


class TestPredictions:
    """The invariants each family is built to have, at every sampled point."""

    @pytest.mark.parametrize(
        "family",
        [
            MetricFamily("flat"),
            MetricFamily("kahler_potential", 0.4),
            MetricFamily("torus_pluriclosed", 0.5),
        ],
    )
    def test_torus_family_checks(self, family):
        xs = np.linspace(0, 2 * np.pi, 11, endpoint=False)
        jet = jet_at(family, (xs, 0 * xs, xs[::-1], 0 * xs))
        t, w = hm.torsion(jet)
        rhs = hm.gflow_rhs(jet)
        assert hm.pluriclosed_residual(jet).max() <= 1e-14
        if family.kind == "torus_pluriclosed":
            det = np.linalg.det(jet.g).real
            assert np.abs(det - (1 - family.eps**2)).max() <= 1e-13
            # T_{1 2 2bar} = -(i eps / 2) e^{i x3} = -(i / 2) g_{1 2bar} and T_{1 2 1bar} = 0
            dev = np.abs(t[..., 0, 1, 1] + 0.5j * jet.g[..., 0, 1]) + np.abs(t[..., 0, 1, 0])
            assert dev.max() <= 1e-13
            return
        # Kaehler: torsion-free, and the flow is minus the Ricci form (zero on flat)
        assert max(np.abs(t).max(), np.abs(w).max()) <= 1e-14
        if family.kind == "flat":
            assert np.abs(rhs).max() <= 1e-14
        else:
            assert np.abs(rhs + kahler_ricci(jet)).max() <= 1e-10

    def test_hopf_checks(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(50, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rho = rng.uniform(0.5, 2.0, 50)
        jet = jet_at(
            MetricFamily("hopf"),
            (rho * (z[:, 0] + 1j * z[:, 1]), rho * (z[:, 2] + 1j * z[:, 3])),
        )
        # static: the curvature trace and the torsion quadratic both reproduce g
        _, ric1, _, _ = hm.chern_curvature(jet)
        quad1, _, _ = hm.torsion_quadratics(jet)
        scale = np.abs(jet.g).max(axis=(-1, -2))
        assert (np.abs(ric1 - jet.g).max(axis=(-1, -2)) / scale).max() <= 1e-10
        assert (np.abs(quad1 - jet.g).max(axis=(-1, -2)) / scale).max() <= 1e-10
        assert np.abs(hm.gflow_rhs(jet)).max() <= 1e-10
        assert hm.pluriclosed_residual(jet).max() <= 1e-12


class TestDomain:
    def test_hopf_origin_rejected(self):
        with pytest.raises(DomainError):
            jet_at(MetricFamily("hopf"), (0.0 + 0j, 0.0 + 0j))

    def test_hopf_point_is_two_complex_coordinates(self):
        # four real coordinates are not a hopf point
        with pytest.raises(ValueError, match="2 complex coordinates"):
            jet_at(MetricFamily("hopf"), (1.0, 0.0, 0.0, 0.0))

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            MetricFamily("kahler_potential", 4.0)
        with pytest.raises(ValueError):
            MetricFamily("torus_pluriclosed", 1.0)
        with pytest.raises(ValueError):
            MetricFamily("nonsense")

    def test_positivity_across_range(self):
        jet = jet_at(MetricFamily("kahler_potential", 3.9), (0.0, 0.0, 0.0, 0.0))
        assert np.linalg.eigvalsh(jet.g).min() > 0
