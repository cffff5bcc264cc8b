"""Static diagnostics tests: lambda estimation, reports, inequality, extension."""

import json
import warnings

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo import statics as st
from plurigeo.families import MetricFamily
from plurigeo.grid import FormField, MetricField, degree, perturb_with_potential, sample, wedge_pair

from conftest import random_trig, surface_jet_of


class TestLambdaEstimate:
    def test_flat_zero(self, flat_field):
        lam, imag = st.lambda_estimate(flat_field)
        assert lam == 0.0 and imag == 0.0

    def test_torus_value_and_sign(self, torus_field):
        lam, imag = st.lambda_estimate(torus_field)
        q = 0.25 / (4 * 0.75**2)
        assert lam < 0
        assert abs(lam + q) < 2e-3  # stencil-scaled analytic value -q
        assert imag < 1e-12

    def test_kahler_near_zero_small_eps(self):
        for eps in (0.05, 0.1):
            field = sample(MetricFamily("kahler_potential", eps), (16, 4, 16, 4))
            lam, _ = st.lambda_estimate(field)
            assert abs(lam) <= 1e-10 * max(eps, 1)

    def test_scaling_inverse_linearity(self, torus_field):
        lam1, _ = st.lambda_estimate(torus_field)
        doubled = MetricField(torus_field.grid, 2.0 * torus_field.values)
        lam2, _ = st.lambda_estimate(doubled)
        assert abs(lam2 - 0.5 * lam1) <= 1e-10


class TestStaticReport:
    def test_flat_gaps_vanish(self, flat_field):
        for bundle in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0]),
                       np.array([[1.0, 0.5], [0.5, -2.0]])):
            rep = st.static_report(flat_field, bundle)
            assert abs(rep.lambda_star) < 1e-12
            assert abs(rep.gap_wedge_volume) < 1e-10
            assert abs(rep.gap_degree_pairing) < 1e-10
            assert abs(rep.c1_squared) < 1e-10
            assert rep.residual_max < 1e-12

    def test_flat_bundle_degrees(self, flat_field):
        vol = (2 * np.pi) ** 4
        rep = st.static_report(flat_field, np.diag([1.0, -1.0]))
        assert abs(rep.deg_bundle) < 1e-9
        rep2 = st.static_report(flat_field, np.diag([1.0, 0.0]))
        assert abs(rep2.deg_bundle - vol) < 1e-8

    def test_torus_self_consistency(self, torus_field):
        rep = st.static_report(torus_field, np.diag([1.0, -1.0]))
        # d = 0 here, so the wedge/volume gap must equal -2 lambda Vol - 2 E_w
        expected = -2 * rep.lambda_star * rep.vol - 2 * rep.e_w
        assert abs(rep.gap_wedge_volume - expected) <= 1e-10 * max(1, abs(expected))
        assert rep.residual_l2 > 0  # the family is not static

    def test_non_hermitian_bundle_rejected(self, flat_field):
        with pytest.raises(ValueError, match="Hermitian"):
            st.static_report(flat_field, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bundle_rejected(self, flat_field, bad):
        # NaN passes a Hermitian test (NaN > tol is False), and the report would be all NaN
        for entry in ((0, 0), (0, 1)):
            bundle = np.diag([1.0, -1.0])
            bundle[entry] = bundle[entry[::-1]] = bad
            with pytest.raises(ValueError, match="finite"):
                st.static_report(flat_field, bundle)

    def test_json_roundtrip(self, tmp_path, flat_field):
        rep = st.static_report(flat_field, np.diag([1.0, -1.0]))
        p = tmp_path / "report.json"
        st.write_static_report(p, rep)
        data = json.loads(p.read_text())
        assert data["lambda_star"] == rep.lambda_star
        assert set(data) == set(rep.__dataclass_fields__)


def _einsum_static_report(field: MetricField, c1_bundle) -> st.StaticReport:
    """The static report from the full jets, the einsum ``hodge_operators``
    and ``metric_pairing``: the oracle of ``static_report``."""
    c1_bundle = np.asarray(c1_bundle, dtype=complex)
    grid = field.grid
    jet, _ = field.jets()
    hodge = hm.hodge_operators(jet)
    surf = hm.surface_flow(surface_jet_of(jet))
    g = field.values
    det = field.det()
    vol = float(grid.integrate(det))
    ratio = grid.integrate(hm.metric_pairing(g, hodge.static_op, g) * det) / (2.0 * grid.integrate(det))
    lam, lam_imag = float(ratio.real), float(abs(ratio.imag))
    resid = hodge.static_op - lam * g
    sq = hm.metric_pairing(g, resid, resid).real
    d = degree(field, surf)
    e_w = float(grid.integrate(surf.w_sq * det))
    bundle_field = np.broadcast_to(c1_bundle, grid.dims + (2, 2))
    deg_bundle = float(grid.integrate(wedge_pair(bundle_field, g).real))
    c1_rep = -hodge.chern_ricci
    c1_pair = float(grid.integrate(wedge_pair(c1_rep, bundle_field).real))
    c1_sq = float(grid.integrate(wedge_pair(c1_rep, c1_rep).real))
    return st.StaticReport(
        lambda_star=lam,
        lambda_imag_residue=lam_imag,
        residual_l2=float(np.sqrt(max(grid.integrate(sq * det), 0.0))),
        residual_max=float(np.sqrt(max(sq.max(), 0.0))),
        vol=vol,
        degree=d,
        e_w=e_w,
        gap_wedge_volume=(d - 2.0 * lam * vol) - 2.0 * e_w,
        deg_bundle=deg_bundle,
        c1_pairing=c1_pair,
        gap_degree_pairing=c1_pair - lam * deg_bundle,
        c1_squared=c1_sq,
        intersection_upper=c1_sq - 2.0 * lam * d + 0.5 * d**2,
        intersection_lower=-c1_sq + 0.5 * d**2,
    )


def _report_fields():
    """The README's static configs and four seeded all-axis fields at 16x8x16x8."""
    fields = {
        "flat": sample(MetricFamily("flat"), (8, 4, 8, 4)),
        "kahler_potential": sample(MetricFamily("kahler_potential", 0.4), (16, 4, 16, 4)),
        **{f"torus_{eps}": sample(MetricFamily("torus_pluriclosed", eps), (4, 4, 16, 4)) for eps in (0.3, 0.5, 0.7)},
    }
    base = sample(MetricFamily("torus_pluriclosed", 0.5), (16, 8, 16, 8))
    for seed in (21, 22, 23, 24):
        fields[f"all_axis_{seed}"] = perturb_with_potential(base, 0.05 * random_trig(base.grid, seed))
    return fields


# Largest error of a report field over the report's scale (its largest
# field) measured on these fields: 1.4e-16, in gap_wedge_volume on torus_0.7
REPORT_TOL = 1e-14


@pytest.mark.parametrize("name, field", sorted(_report_fields().items()))
def test_report_matches_the_einsum_report(name, field):
    bundle = np.diag([1.0, -1.0])
    new, old = st.static_report(field, bundle), _einsum_static_report(field, bundle)
    # the gaps and the imaginary residue are rounding-sized, so each error is
    # taken relative to the report's scale
    scale = max(abs(v) for v in old.__dict__.values())
    for key, value in old.__dict__.items():
        assert abs(getattr(new, key) - value) <= REPORT_TOL * max(abs(value), scale), key
    # the integrals of the surface kernel's scalars are the same ones
    assert (new.vol, new.degree, new.e_w) == (old.vol, old.degree, old.e_w)


class TestBuchdahl:
    def test_equality_for_psi_equal_omega(self, torus_field):
        r = st.buchdahl_check(torus_field, FormField.from_metric(torus_field))
        assert r.gap == 0.0

    def test_equality_case_potential(self, flat_field):
        grid = flat_field.grid
        x = grid.coords()
        f = 0.3 * (np.cos(x[0]) + np.sin(x[2]))
        psi = FormField(grid, 2.0 * flat_field.values + 2.0 * grid.complex_hessian(f))
        r = st.buchdahl_check(flat_field, psi)
        assert abs(r.gap) <= 1e-6 * r.scale

    def test_positive_gap_for_non_cohomologous(self, flat_field):
        other = sample(MetricFamily("torus_pluriclosed", 0.7), flat_field.grid.dims)
        r = st.buchdahl_check(flat_field, FormField.from_metric(other))
        assert r.gap > 0

    def test_rejects_non_pluriclosed(self, flat_field):
        x = flat_field.grid.coords()
        bad = flat_field.values.copy()
        bad[..., 0, 0] += 0.3 * np.cos(x[2])
        with pytest.raises(ValueError, match="pluriclosed"):
            st.buchdahl_check(flat_field, FormField(flat_field.grid, bad))

    def test_rejects_non_real(self, flat_field):
        bad = flat_field.values.astype(complex).copy()
        bad[..., 0, 1] += 0.5  # breaks hermiticity
        with pytest.raises(ValueError, match="real"):
            st.buchdahl_check(flat_field, FormField(flat_field.grid, bad))

    def test_seeded_family_nonnegative(self, flat_field):
        grid = flat_field.grid
        base = sample(MetricFamily("torus_pluriclosed", 0.4), grid.dims)
        rng = np.random.default_rng(42)
        for seed in range(20):
            alpha = rng.uniform(-2, 2)
            f = 0.2 * random_trig(grid, seed=1000 + seed)
            psi = FormField(
                grid, alpha * base.values + 2.0 * grid.complex_hessian(f)
            )
            r = st.buchdahl_check(flat_field, psi)
            assert r.gap >= -1e-8 * r.scale


class TestHermitianSymplectic:
    def test_lambda_zero_rejected(self, torus_field):
        with pytest.raises(ValueError, match="lambda = 0"):
            st.hermitian_symplectic(torus_field, 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_rejected(self, torus_field, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide warning before the error
            with pytest.raises(ValueError, match="finite"):
                st.hermitian_symplectic(torus_field, lam)

    def test_kahler_extension_is_identity(self, kahler_field):
        hs = st.hermitian_symplectic(kahler_field, 2.0)
        assert np.abs(hs.omega_tilde.block20()).max() < 1e-13
        assert hs.d_omega_tilde.max_norm() <= 1e-6
        assert hs.self_intersection > 0

    def test_family_identity_residual(self, torus_field):
        hs = st.hermitian_symplectic(torus_field, 1.0)
        assert hs.identity_max <= 1e-6
        expected = 2 * torus_field.grid.integrate(torus_field.det())
        assert hs.self_intersection >= expected - 1e-9

    def test_perturbed_identity_converges(self):
        vals = {}
        for n3 in (16, 32):
            field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, n3, 4))
            x = field.grid.coords()
            pert = perturb_with_potential(field, 0.05 * np.sin(x[2]))
            hs = st.hermitian_symplectic(pert, 1.0)
            vals[n3] = hs.identity_max
            assert hs.self_intersection > 0
        assert np.log2(vals[16] / vals[32]) >= 3.5

    def test_real_form(self, torus_field):
        hs = st.hermitian_symplectic(torus_field, 1.3)
        assert hs.omega_tilde.reality_deviation() < 1e-13
