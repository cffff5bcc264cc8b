"""Grid operator tests: stencil accuracy, exact structure, wedges, serialization."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily, jet_at
from plurigeo.grid import (
    FormField,
    MetricField,
    TorusGrid,
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

from conftest import composed_jets, cross_field, dzbar, random_trig, surface_jet_of


class TestDerivatives:
    def test_constant_exact_zero(self):
        # +0 with no sign bit, first and second derivatives along every
        # axis: a flow run steps data constant along an axis once (flow.run)
        for dims in ((4, 4, 4, 4), (8, 4, 16, 4), (32, 8, 4, 16), (16, 32, 8, 4)):
            grid = TorusGrid(dims)
            for c in (3.7, -3.7, -0.0):
                u = np.full(grid.dims, c)
                for a in range(4):
                    first = grid.dx(u, a)
                    assert not (first.any() or np.signbit(first).any()), (dims, c, a)
                    for b in range(4):
                        second = grid.dx(first, b)
                        assert not (second.any() or np.signbit(second).any()), (dims, c, a, b)

    @pytest.mark.parametrize("c", [3.7, -3.7, -0.0])
    def test_one_point_axis_is_filled_plus_zero(self, c):
        # values held once along an axis differentiate to +0 along it
        grid = TorusGrid((8, 4, 16, 4))
        u = np.full((1, 4, 16, 1), c) + random_trig(TorusGrid((4, 4, 16, 4)), seed=2)[:1, :, :, :1]
        for a in (0, 3):
            d = grid.dx(u, a)
            assert d.shape == u.shape and not (d.any() or np.signbit(d).any())
        full = np.broadcast_to(u, grid.dims)
        for a in (1, 2):
            assert np.array_equal(np.broadcast_to(grid.dx(u, a), grid.dims), grid.dx(full, a))

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


class TestSpectrum:
    """``MetricField.eigenvalues`` (closed form) against LAPACK ``eigvalsh``."""

    GRID = TorusGrid((4, 4, 4, 4))

    def _batch(self, kind, seed):
        """Seeded Hermitian blocks ``U diag(lam) U^*`` with a given spectrum shape."""
        rng = np.random.default_rng(seed)
        shape = self.GRID.dims + (2, 2)
        if kind == "semidefinite":
            return np.ones(shape, dtype=complex)
        u, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        lam = rng.uniform(1.0, 2.0, self.GRID.dims + (2,))
        lam[..., 0] *= {"well": 1.0, "conditioned": 1e-8, "indefinite": -1.0}[kind]
        v = (u * lam[..., None, :]) @ np.conj(u.swapaxes(-1, -2))
        return 0.5 * (v + np.conj(v.swapaxes(-1, -2)))

    @pytest.mark.parametrize("kind", ["well", "conditioned", "indefinite", "semidefinite"])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-160, 1e155])  # squares under- and overflow past 1e±154
    def test_matches_eigvalsh(self, kind, scale):
        for seed in range(3):
            field = MetricField(self.GRID, scale * self._batch(kind, seed))
            lo, hi = field.eigenvalues()
            oracle = np.linalg.eigvalsh(field.values)
            bound = 4e-15 * np.abs(oracle).max(axis=-1)
            assert (np.abs(lo - oracle[..., 0]) <= bound).all()
            assert (np.abs(hi - oracle[..., 1]) <= bound).all()
            assert np.array_equal(np.sign(lo), np.sign(oracle[..., 0]))

    def test_values_may_be_held_once_along_an_axis(self, flat_field):
        grid = flat_field.grid
        MetricField(grid, flat_field.values[:1, :, :1, :1]).check()
        for shape in ((2,) + grid.dims[1:], grid.dims[:3], grid.dims + (2,)):
            with pytest.raises(ValueError, match="must have shape"):
                MetricField(grid, np.zeros(shape + (2, 2), complex))

    @pytest.mark.parametrize("block", [[[1, 0], [0, -1]], [[1, 1], [1, 1]]], ids=["indefinite", "semidefinite"])
    def test_check_rejects_non_positive_node(self, flat_field, block):
        values = flat_field.values.copy()
        values[1, 2, 3, 0] = block
        with pytest.raises(ValueError, match="not positive definite"):
            MetricField(flat_field.grid, values).check()


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
        assert abs(flat.grid.integrate(flat.det()) - (2 * np.pi) ** 4) < 1e-9
        torus = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
        assert abs(torus.grid.integrate(torus.det()) - 0.75 * (2 * np.pi) ** 4) < 1e-9

    def test_values_held_once_along_an_axis_integrate_with_the_full_bits(self):
        grid = TorusGrid((8, 4, 16, 4))
        rep = random_trig(TorusGrid((8, 4, 16, 4)), seed=3)[:, :1, :, :1]
        assert grid.integrate(rep) == grid.integrate(np.broadcast_to(rep, grid.dims).copy())

    def test_wedge_volume_consistency(self, torus_field):
        v = torus_field.grid.integrate(
            wedge_pair(torus_field.values, torus_field.values).real
        )
        assert abs(v - 2 * torus_field.grid.integrate(torus_field.det())) < 1e-12 * abs(v)


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

    @pytest.mark.parametrize("family", [MetricFamily("flat"), MetricFamily("kahler_potential", 0.4),
                                        MetricFamily("torus_pluriclosed", 0.5)], ids=lambda f: f.kind)
    def test_jet_on_the_dense_mesh_has_the_same_bits(self, family):
        # sample evaluates the family on the axes' coordinates and broadcasts
        grid = TorusGrid((16, 8, 16, 8))
        dense = jet_at(family, tuple(grid.coords())).g
        assert sample(family, grid.dims).values.tobytes() == np.ascontiguousarray(dense).tobytes()

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
        assert np.array_equal(field.values, np.conj(field.values.swapaxes(-1, -2)))
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
        for field in (flat_field, torus_field):
            assert abs(degree(field, hm.surface_flow(field.surface_jet(), ("scal",)))) < 1e-12

    def test_degree_kahler_small(self, kahler_field):
        surf = hm.surface_flow(kahler_field.surface_jet(), ("scal",))
        assert abs(degree(kahler_field, surf)) <= 1e-6

    def test_divisor_area(self, torus_field):
        assert abs(divisor_area(torus_field) - (2 * np.pi) ** 2) < 1e-10

    def test_divisor_area_of_values_held_once(self, kahler_field):
        # kahler_potential varies along axes 0 and 2 only
        rep = MetricField(kahler_field.grid, np.ascontiguousarray(kahler_field.values[:, :1, :, :1]))
        assert divisor_area(rep) == divisor_area(kahler_field)


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
        from plurigeo.grid import PAIRS, TRIPLES

        grid = TorusGrid((8, 4, 8, 4))
        comp1 = np.stack(
            [random_trig(grid, seed=10 + a).astype(complex) for a in range(4)], axis=-1
        )
        # d of the 1-form, then d of the 2-form by exterior_derivative's triple rule
        two = np.zeros(grid.dims + (len(PAIRS),), dtype=complex)
        for idx, (a, b) in enumerate(PAIRS):
            two[..., idx] = grid.dx(comp1[..., b], a) - grid.dx(comp1[..., a], b)
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
        f = FormField(grid, flat_field.values, p20=p20)
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


def _composed_hessian(grid, u):
    """``del_{z^i} del_{zbar^j} u`` by composition: the ``complex_hessian`` oracle."""
    out = np.zeros(np.shape(u) + (2, 2), dtype=complex)
    for i in range(2):
        du = grid.dz(np.asarray(u, dtype=complex), i)
        for j in range(2):
            out[..., i, j] = dzbar(grid, du, j)
    return out


def _composed_defect(form):
    """``|del dbar beta|`` by composition: the ``pluriclosed_defect`` oracle."""
    g, b = form.grid, form.p11
    val = (
        dzbar(g, g.dz(b[..., 0, 0], 1), 1)
        + dzbar(g, g.dz(b[..., 1, 1], 0), 0)
        - dzbar(g, g.dz(b[..., 0, 1], 1), 0)
        - dzbar(g, g.dz(b[..., 1, 0], 0), 1)
    )
    return np.abs(val)


def _rel(value, oracle) -> float:
    """Largest |value - oracle| / max(1, |oracle|), entrywise."""
    return float((np.abs(value - oracle) / np.maximum(1.0, np.abs(oracle))).max())


class TestOnePass:
    """Every second derivative comes from the one stencil pass
    (``grid._stencil_half``): ``jets`` with its holomorphic rows,
    ``surface_jet`` without, ``complex_hessian`` on one field.  The
    fixtures are too small to split; ``tests/test_threads.py`` pins the
    pass on both thread counts to the frozen grouped form."""

    @pytest.fixture(scope="class")
    def fields(self, generic_fields, torus_field, kahler_field, flat_field):
        return (*generic_fields, cross_field(), torus_field, kahler_field, flat_field)

    def test_jets_match_composition(self, fields):
        for field in fields:
            jet, dev = field.jets()
            oracle = composed_jets(field)
            for name in ("d1", "d2m", "d2h"):
                assert _rel(getattr(jet, name), getattr(oracle, name)) <= 1e-15, name
            assert dev == {"d2h_symmetry": 0.0, "d2m_reality": 0.0}

    def test_jets_symmetric_and_real_by_construction(self, fields):
        for field in fields:
            jet, _ = field.jets()
            assert np.array_equal(jet.d2h, jet.d2h.swapaxes(-4, -3))
            assert np.array_equal(jet.d2m, np.conj(jet.d2m.swapaxes(-4, -3).swapaxes(-2, -1)))

    def test_full_jet_contains_the_surface_jet(self, fields):
        for field in fields:
            full = surface_jet_of(field.jets()[0])
            one_pass = field.surface_jet()
            assert np.array_equal(full.d1, one_pass.d1)
            assert np.array_equal(full.d2m, one_pass.d2m)

    def test_complex_hessian_matches_composition(self):
        grid = TorusGrid((8, 8, 8, 8))
        x = grid.coords()
        u = random_trig(grid, 3) + np.sin(x[0] + x[3]) * np.cos(x[1] - x[2])  # every f_ab nonzero
        assert _rel(grid.complex_hessian(u), _composed_hessian(grid, u)) <= 1e-14
        with pytest.raises(TypeError):  # real input only
            grid.complex_hessian(u + 1j * random_trig(grid, 4))

    def test_complex_hessian_of_values_held_once(self):
        # a function constant along axes 0 and 3, held once along them, has
        # the Hessian of the whole grid's values at its nodes
        grid = TorusGrid((8, 4, 8, 4))
        x = grid.coords()
        u = np.sin(x[1]) * np.cos(2.0 * x[2]) + np.cos(x[1] - x[2])
        held = np.ascontiguousarray(u[:1, :, :, :1])
        whole = grid.complex_hessian(u)
        assert grid.complex_hessian(held).tobytes() == np.ascontiguousarray(whole[:1, :, :, :1]).tobytes()
        with pytest.raises(ValueError):
            grid.complex_hessian(u[:2])

    def test_pluriclosed_defect_matches_composition(self, generic_fields):
        field = generic_fields[1]
        rng = np.random.default_rng(6)
        p11 = field.values + 0.1 * (
            rng.normal(size=field.values.shape) + 1j * rng.normal(size=field.values.shape)
        )  # complex and not Hermitian
        form = FormField(field.grid, p11)
        assert _rel(form.pluriclosed_defect(), _composed_defect(form)) <= 1e-14


def test_convergence_study_script():
    """``scripts/convergence_study.py`` runs, and every order it prints is 4th."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "convergence_study.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    orders = re.findall(r"^.+ \S+e[-+]\d+ +\S+e[-+]\d+ +(\S+)$", proc.stdout, re.MULTILINE)
    assert len(orders) == 4, proc.stdout
    assert min(float(o) for o in orders) >= 3.5, proc.stdout


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
