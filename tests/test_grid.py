"""Grid operator tests: stencil accuracy, exact structure, wedges, serialization."""

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily, jet_at
from plurigeo.grid import (
    FormField,
    MetricField,
    TorusGrid,
    d_one_form,
    degree,
    divisor_area,
    exterior_derivative,
    form_wedge,
    load_field,
    pairwise_sum,
    perturb_with_potential,
    real_components,
    sample,
    save_field,
    wedge_pair,
)

from conftest import random_trig


class TestDerivatives:
    def test_constant_exact_zero(self):
        grid = TorusGrid((8, 4, 8, 4))
        u = np.full(grid.dims, 3.7)
        assert np.abs(grid.dx(u, 0)).max() == 0.0
        assert np.abs(grid.dx(grid.dx(u, 2), 2)).max() == 0.0

    def test_sine_accuracy_and_order(self):
        errs = {}
        for n in (16, 32):
            grid = TorusGrid((4, 4, n, 4))
            x3 = grid.coords()[2]
            errs[n] = np.abs(grid.dx(np.sin(x3), 2) - np.cos(x3)).max()
        assert errs[16] <= 2e-3
        assert errs[16] / errs[32] >= 14

    def test_translation_equivariance_exact(self):
        grid = TorusGrid((8, 4, 8, 4))
        u = random_trig(grid, seed=5)
        for axis in range(4):
            a = grid.dx(np.roll(u, 3, axis), axis)
            b = np.roll(grid.dx(u, axis), 3, axis)
            assert np.array_equal(a, b)

    def test_linearity_exact(self):
        grid = TorusGrid((8, 4, 8, 4))
        u = random_trig(grid, 1)
        v = random_trig(grid, 2)
        assert np.allclose(
            grid.dx(2.0 * u + v, 1), 2.0 * grid.dx(u, 1) + grid.dx(v, 1),
            rtol=0, atol=1e-13,
        )

    def test_grid_jets_vs_analytic(self):
        field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
        jet, dev = field.jets()
        x = field.grid.coords()
        exact = jet_at(MetricFamily("torus_pluriclosed", 0.5), tuple(x))
        assert np.abs(jet.d1 - exact.d1).max() <= 1e-3
        assert np.abs(jet.d2m - exact.d2m).max() <= 1e-3
        assert dev["d2h_symmetry"] <= 1e-12
        assert dev["d2m_reality"] <= 1e-12

    def test_invalid_axis_order(self):
        grid = TorusGrid((4, 4, 4, 4))
        u = np.zeros(grid.dims)
        with pytest.raises(ValueError):
            grid.dx(u, 5)


class TestIntegration:
    def test_exact_for_trig_polynomials(self):
        grid = TorusGrid((8, 4, 8, 4))
        x = grid.coords()
        u = 1.0 + np.cos(3 * x[2]) * np.sin(x[0]) + 0.2 * np.sin(x[2])
        assert abs(grid.integrate(u) - (2 * np.pi) ** 4) < 1e-9

    def test_pairwise_sum_deterministic(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=1001)
        assert pairwise_sum(vals) == pairwise_sum(vals.copy())

    def test_volume_values(self):
        flat = sample(MetricFamily("flat"), (8, 8, 8, 8))
        assert abs(flat.volume() - (2 * np.pi) ** 4) < 1e-9
        torus = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
        assert abs(torus.volume() - 0.75 * (2 * np.pi) ** 4) < 1e-9

    def test_wedge_volume_consistency(self, torus_field):
        v = torus_field.grid.integrate(
            wedge_pair(torus_field.values, torus_field.values).real
        )
        assert abs(v - 2 * torus_field.volume()) < 1e-12 * abs(v)


class TestSampling:
    def test_flat_nodes(self):
        field = sample(MetricFamily("flat"), (8, 8, 8, 8))
        assert np.abs(field.values - np.eye(2)).max() == 0.0

    def test_torus_phase_per_node(self):
        field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
        m = 5
        expected = 0.5 * np.exp(1j * 2 * np.pi * m / 16)
        assert abs(field.values[0, 0, m, 0, 0, 1] - expected) < 1e-15

    def test_kahler_diagonal(self):
        field = sample(MetricFamily("kahler_potential", 0.4), (16, 4, 16, 4))
        x1 = field.grid.coords()[0]
        assert np.abs(field.values[..., 0, 0] - (1 - 0.1 * np.cos(x1))).max() < 1e-15
        assert np.abs(field.values[..., 0, 1]).max() == 0.0

    def test_active_axis_size_enforced(self):
        with pytest.raises(ValueError, match="active"):
            sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 4, 4))
        with pytest.raises(ValueError):
            sample(MetricFamily("flat"), (7, 4, 4, 4))  # odd size

    def test_hopf_not_sampleable(self):
        with pytest.raises(ValueError, match="pointwise"):
            sample(MetricFamily("hopf"), (8, 8, 8, 8))

    def test_potential_field_positive_and_pluriclosed(self):
        grid = TorusGrid((8, 4, 8, 4))
        u = 0.05 * random_trig(grid, 3)
        field = perturb_with_potential(sample(MetricFamily("flat"), grid.dims), u)
        jet, _ = field.jets()
        assert hm.pluriclosed_residual(jet).max() < 1e-13
        # torsion-free: it is a potential perturbation of the flat Kaehler form
        t, _ = hm.torsion(jet)
        assert np.abs(t).max() < 1e-13

    def test_perturbation_keeps_pluriclosed_exactly(self, torus_field):
        u = 0.04 * random_trig(torus_field.grid, 8)
        pert = perturb_with_potential(torus_field, u)
        jet, _ = pert.jets()
        assert hm.pluriclosed_residual(jet).max() < 1e-13


class TestWedge:
    def test_trace_identity_nodewise(self, torus_field):
        # beta ^ omega = tr_g(b) det g dx nodewise
        rng = np.random.default_rng(2)
        b = rng.normal(size=torus_field.grid.dims + (2, 2)) + 1j * rng.normal(
            size=torus_field.grid.dims + (2, 2)
        )
        lhs = wedge_pair(b, torus_field.values)
        gup = hm.inverse_metric(torus_field.values)
        rhs = np.einsum("...ij,...ij->...", gup, b) * torus_field.det()
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() < 1e-12 * scale

    def test_degree_flat_and_torus(self, torus_field, flat_field):
        assert abs(degree(flat_field)) < 1e-12
        assert abs(degree(torus_field)) < 1e-12

    def test_degree_kahler_small(self, kahler_field):
        assert abs(degree(kahler_field)) <= 1e-6

    def test_divisor_area(self, torus_field):
        assert abs(divisor_area(torus_field) - (2 * np.pi) ** 2) < 1e-10


class TestExteriorDerivative:
    def test_kahler_form_closed(self, kahler_field):
        d = exterior_derivative(FormField.from_metric(kahler_field))
        assert d.max_norm() <= 1e-6

    def test_torus_form_not_closed_matches_oracle(self, torus_field):
        d = exterior_derivative(FormField.from_metric(torus_field))
        x3 = torus_field.grid.coords()[2]
        eps = 0.5
        # symbolic: (d omega)_{134} = eps sin x3, (d omega)_{234} = eps cos x3
        expected = np.zeros(torus_field.grid.dims + (4,))
        expected[..., 2] = eps * np.sin(x3)
        expected[..., 3] = eps * np.cos(x3)
        assert d.max_norm() > 0.4
        assert np.abs(d.components - expected).max() <= 1e-3

    def test_d_squared_exact(self):
        grid = TorusGrid((8, 4, 8, 4))
        comp1 = np.stack(
            [random_trig(grid, seed=10 + a).astype(complex) for a in range(4)], axis=-1
        )
        two = d_one_form(grid, comp1)
        # promote the 6 components to a FormField-free d: reuse exterior_derivative's
        # triple rule directly through a synthetic (1,1)+20/02 decomposition is not
        # needed; apply the same formula on raw components.
        from plurigeo.grid import PAIRS, TRIPLES

        index = {p: i for i, p in enumerate(PAIRS)}
        out = np.zeros(grid.dims + (4,), dtype=complex)
        for t, (a, b, c) in enumerate(TRIPLES):
            out[..., t] = (
                grid.dx(two[..., index[(b, c)]], a)
                - grid.dx(two[..., index[(a, c)]], b)
                + grid.dx(two[..., index[(a, b)]], c)
            )
        assert np.abs(out).max() <= 1e-10

    def test_real_components_of_metric_form_are_real(self, torus_field):
        comp = real_components(FormField.from_metric(torus_field))
        assert np.abs(comp.imag).max() < 1e-13

    def test_form_wedge_includes_off_type_blocks(self, flat_field):
        grid = flat_field.grid
        p20 = np.full(grid.dims, 0.3 + 0.1j)
        f = FormField(grid, flat_field.values, p20=p20, p02=np.conj(p20))
        val = form_wedge(f, f)
        expected = 2.0 + 8 * abs(0.3 + 0.1j) ** 2
        assert np.abs(val - expected).max() < 1e-12

    def test_pluriclosed_defect_detects(self, flat_field):
        grid = flat_field.grid
        x = grid.coords()
        b = flat_field.values.copy()
        b[..., 0, 0] += 0.2 * np.cos(x[2])  # x3-dependence in g_{1 1bar} breaks it
        f = FormField(grid, b)
        assert f.pluriclosed_defect().max() > 1e-3


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path, torus_field):
        p = tmp_path / "field.pgmf"
        save_field(p, torus_field)
        back = load_field(p)
        assert back.grid.dims == torus_field.grid.dims
        assert np.array_equal(back.values, torus_field.values)

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.pgmf"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_field(p)

    def test_truncated_payload_rejected(self, tmp_path, flat_field):
        p = tmp_path / "field.pgmf"
        save_field(p, flat_field)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload"):
            load_field(p)
