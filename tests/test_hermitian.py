"""Pointwise kernel tests: frozen closed-form values plus identity properties."""

import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurigeo import cli
from plurigeo import flow as fl
from plurigeo import hermitian as hm
from plurigeo import statics
from plurigeo.families import MetricFamily, jet_at
from plurigeo.grid import perturb_with_potential, sample

from conftest import kahler_ricci, random_jet, random_trig

EPS = 0.5
Q = EPS**2 / (4 * (1 - EPS**2) ** 2)  # half the squared torsion norm of the family


def torus_jet(x3=0.7, eps=EPS):
    x3 = np.asarray(x3, dtype=float)
    zeros = np.zeros_like(x3)
    return jet_at(MetricFamily("torus_pluriclosed", eps), (zeros, zeros, x3, zeros))


def kahler_jet(x1=0.3, x3=1.1, eps=0.4):
    x1, x3 = np.asarray(x1, float), np.asarray(x3, float)
    z = np.zeros_like(x1)
    return jet_at(MetricFamily("kahler_potential", eps), (x1, z, x3, z))


def assert_valid_jet(jet, tol=1e-12):
    """Hermitian positive-definite ``g``, ``d2h`` symmetric in (k, l), ``d2m`` real."""
    g = jet.g
    assert np.abs(g - np.conj(g.swapaxes(-1, -2))).max() <= tol
    assert np.linalg.eigvalsh(g).min() > 0
    assert np.abs(jet.d2h - jet.d2h.swapaxes(-4, -3)).max() <= tol
    assert np.abs(np.conj(jet.d2m) - jet.d2m.swapaxes(-4, -3).swapaxes(-2, -1)).max() <= tol


class TestConnection:
    def test_flat_connection_vanishes(self):
        jet = hm.HermitianJet.flat()
        assert np.abs(hm.chern_connection(jet)).max() == 0.0

    def test_hopf_connection_closed_form(self):
        jet = jet_at(MetricFamily("hopf"), (np.array(1.0 + 0j), np.array(0.0 + 0j)))
        gam = hm.chern_connection(jet)
        # at z = (1, 0): Gamma^k_{0j} = -delta_jk, Gamma^k_{1j} = 0
        assert np.abs(gam[..., :, 0, :] + np.eye(2)).max() < 1e-14
        assert np.abs(gam[..., :, 1, :]).max() < 1e-14

    def test_torus_connection_vs_finite_difference(self):
        # Richardson-extrapolated 4th-order differences of the closed form as
        # an independent oracle for the connection coefficients
        x3 = 0.0
        eps = EPS

        def g_of(y):
            return torus_jet(np.asarray(y)).g

        def d1_fd(h):
            stencil = np.array([x3 - 2 * h, x3 - h, x3 + h, x3 + 2 * h])
            g = g_of(stencil)
            dx3 = (8.0 * (g[2] - g[1]) - (g[3] - g[0])) / (12.0 * h)
            return 0.5 * dx3  # del_{z^2} of an x3-only field

        d1z2 = (16.0 * d1_fd(0.005) - d1_fd(0.01)) / 15.0
        jet = torus_jet(x3)
        gup = hm.inverse_metric(jet.g)
        gam_fd = np.einsum("kl,jl->kj", gup, d1z2)  # Gamma^k_{1j} (z^2 direction)
        gam = hm.chern_connection(jet)
        assert np.abs(gam[:, 1, :] - gam_fd).max() <= 1e-10
        # antisymmetrisation reproduces the torsion
        t, _ = hm.torsion(jet)
        recon = np.einsum("kl,ijl->kij", gup, t)
        assert np.abs(gam - gam.swapaxes(-1, -2) - recon).max() < 1e-13

    def test_singular_metric_raises(self):
        jet = hm.HermitianJet.flat()
        g = jet.g.copy()
        g[..., 1, 1] = 0.0
        g[..., 0, 0] = 0.0
        bad = hm.HermitianJet(g, jet.d1, jet.d2m, jet.d2h)
        with pytest.raises(hm.SingularMetricError, match="not invertible"):
            hm.chern_connection(bad)


class TestTorsion:
    def test_kahler_torsion_free(self):
        jet = kahler_jet(np.linspace(0, 6, 13), np.linspace(0, 6, 13))
        t, w = hm.torsion(jet)
        assert np.abs(t).max() == 0.0
        assert np.abs(w).max() == 0.0

    def test_torus_component(self):
        x3 = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        t, _ = hm.torsion(torus_jet(x3))
        expected = -0.5j * EPS * np.exp(1j * x3)
        assert np.abs(t[..., 0, 1, 1] - expected).max() < 1e-15
        assert np.abs(t[..., 0, 1, 0]).max() == 0.0

    def test_hopf_component(self):
        jet = jet_at(MetricFamily("hopf"), (np.array(1.0 + 0j), np.array(0.0 + 0j)))
        t, _ = hm.torsion(jet)
        assert abs(t[0, 1, 1] - (-1.0)) < 1e-15
        assert abs(t[0, 1, 0]) < 1e-15


class TestCurvature:
    def test_flat(self):
        jet = hm.HermitianJet.flat()
        curv, ric1, ric2, scal = hm.chern_curvature(jet)
        assert np.abs(curv).max() == np.abs(ric1).max() == np.abs(ric2).max() == 0.0
        assert scal == 0.0

    def test_hopf_static_trace(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(40, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rho = rng.uniform(0.5, 2.0, 40)
        jet = jet_at(
            MetricFamily("hopf"),
            (rho * (z[:, 0] + 1j * z[:, 1]), rho * (z[:, 2] + 1j * z[:, 3])),
        )
        _, ric1, _, _ = hm.chern_curvature(jet)
        rel = np.abs(ric1 - jet.g).max(axis=(-1, -2)) / np.abs(jet.g).max(axis=(-1, -2))
        assert rel.max() < 1e-12

    def test_kahler_matches_ricci_oracle(self):
        jet = kahler_jet(np.linspace(0, 5, 7), np.linspace(1, 4, 7))
        _, ric1, _, _ = hm.chern_curvature(jet)
        assert np.abs(ric1 - kahler_ricci(jet)).max() < 1e-14

    def test_hermiticity_and_real_scalar(self):
        jet = hm.random_jet_batch(np.random.default_rng(0), 32)
        _, ric1, ric2, scal = hm.chern_curvature(jet)
        assert np.abs(ric1 - np.conj(ric1.swapaxes(-1, -2))).max() < 1e-13
        assert np.abs(ric2 - np.conj(ric2.swapaxes(-1, -2))).max() < 1e-13
        assert np.isrealobj(scal)


class TestQuadratics:
    def test_identity_metric_single_component(self):
        # g = I with the only torsion entries a = T_{1 2 1bar} = 1, b = 0
        jet = hm.HermitianJet.flat()
        d1 = jet.d1.copy()
        d1[..., 0, 1, 0] = 1.0  # del_0 g_{1 0bar} -> T_{010} = 1
        jet = hm.HermitianJet(jet.g, d1, jet.d2m, jet.d2h)
        t, _ = hm.torsion(jet)
        assert t[0, 1, 0] == 1.0 and t[0, 1, 1] == 0.0
        quad1, quad2, t2 = hm.torsion_quadratics(jet)
        assert np.abs(quad1 - np.eye(2)).max() < 1e-15
        assert np.abs(quad2 - np.diag([2.0, 0.0])).max() < 1e-15
        assert abs(t2 - 2.0) < 1e-15

    def test_flat_zero(self):
        quad1, quad2, t2 = hm.torsion_quadratics(hm.HermitianJet.flat())
        assert np.abs(quad1).max() == np.abs(quad2).max() == 0.0 and t2 == 0.0

    def test_torus_proportionality(self):
        jet = torus_jet(np.linspace(0, 6, 11))
        quad1, _, t2 = hm.torsion_quadratics(jet)
        assert np.abs(quad1 - 0.5 * t2[..., None, None] * jet.g).max() < 1e-14
        assert np.abs(t2 - 2 * Q).max() < 1e-14

    def test_positive_semidefinite(self):
        jet = hm.random_jet_batch(np.random.default_rng(0), 64)
        quad1, quad2, t2 = hm.torsion_quadratics(jet)
        assert np.linalg.eigvalsh(quad1).min() > -1e-12
        assert np.linalg.eigvalsh(quad2).min() > -1e-12
        assert t2.min() >= 0


def _hodge_oracle(jet):
    """The term-by-term einsum formula of the Hodge-type blocks."""
    gup = hm.inverse_metric(jet.g)
    d1, d2m = jet.d1, jet.d2m
    d1b = np.conj(d1.swapaxes(-1, -2))
    del_star = 0.5j * (
        np.einsum("...pq,...qpk->...k", gup, d1b)
        - np.einsum("...pq,...kpq->...k", gup, d1b)
    )
    dbar_star = 0.5j * (
        np.einsum("...pq,...jpq->...j", gup, d1)
        - np.einsum("...pq,...pjq->...j", gup, d1)
    )
    dds = (
        np.einsum("...pq,...jqpk->...jk", gup, d2m)
        - np.einsum("...pq,...jkpq->...jk", gup, d2m)
        - np.einsum("...pm,...nq,...jnm,...qpk->...jk", gup, gup, d1, d1b, optimize=True)
        + np.einsum("...pm,...nq,...jnm,...kpq->...jk", gup, gup, d1, d1b, optimize=True)
    )
    dbdbs = (
        np.einsum("...pq,...pkjq->...jk", gup, d2m)
        - np.einsum("...pq,...jkpq->...jk", gup, d2m)
        - np.einsum("...pm,...nq,...knm,...pjq->...jk", gup, gup, d1b, d1, optimize=True)
        + np.einsum("...pm,...nq,...knm,...jpq->...jk", gup, gup, d1b, d1, optimize=True)
    )
    ricci = (
        np.einsum("...pq,...jkpq->...jk", gup, d2m)
        - np.einsum("...pr,...sq,...jsr,...kpq->...jk", gup, gup, d1, d1b, optimize=True)
    )
    return {
        "del_star": del_star,
        "dbar_star": dbar_star,
        "del_del_star": dds,
        "dbar_dbar_star": dbdbs,
        "chern_ricci": ricci,
        "static_op": -(dds + dbdbs + ricci),
    }


def _hodge_jets():
    """Random jets, the family probe jets of ``identities`` and an all-axis grid jet."""
    base = sample(MetricFamily("torus_pluriclosed", 0.5), (8, 8, 8, 8))
    field = perturb_with_potential(base, 0.05 * random_trig(base.grid, seed=7))
    return {
        "random_free": hm.random_jet_batch(np.random.default_rng(0), 1000),
        "random_pluriclosed": hm.random_jet_batch(np.random.default_rng(1), 1000, pluriclosed=True),
        "all_axis_grid": field.jets()[0],
        **cli._family_sample_jets(),
    }


HODGE_JETS = _hodge_jets()


class TestHodge:
    @pytest.mark.parametrize("name", sorted(HODGE_JETS))
    def test_matches_einsum_oracle(self, name):
        jet = HODGE_JETS[name]
        hod = hm.hodge_operators(jet)
        for block, oracle in _hodge_oracle(jet).items():
            value = getattr(hod, block)
            rel = np.abs(value - oracle) / np.maximum(1.0, np.abs(oracle))
            assert rel.max() <= 1e-13, block
        assert np.array_equal(hod.static_op, np.conj(hod.static_op.swapaxes(-1, -2)))

    def test_kahler_codifferentials_vanish(self):
        hod = hm.hodge_operators(kahler_jet(np.linspace(0, 5, 9), 0.7))
        assert np.abs(hod.del_star).max() == 0.0
        assert np.abs(hod.dbar_star).max() == 0.0

    def test_flat_static_operator_zero(self):
        hod = hm.hodge_operators(hm.HermitianJet.flat())
        assert np.abs(hod.static_op).max() == 0.0

    def test_torus_codifferential_value(self):
        x3 = np.linspace(0, 6, 10)
        hod = hm.hodge_operators(torus_jet(x3))
        expected = EPS * np.exp(-1j * x3) / (4 * (1 - EPS**2))
        assert np.abs(hod.del_star[..., 0] - expected).max() < 1e-14
        # and the torsion-trace relation to 1e-12
        _, w = hm.torsion(torus_jet(x3))
        assert np.abs(hod.del_star + 0.5j * np.conj(w)).max() < 1e-12

    def test_torus_chern_ricci_vanishes(self):
        hod = hm.hodge_operators(torus_jet(np.linspace(0, 6, 10)))
        assert np.abs(hod.chern_ricci).max() < 1e-14  # det g is constant


class TestFlowRhs:
    def test_hopf_static(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(30, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rho = rng.uniform(0.1, 10.0, 30)
        jet = jet_at(
            MetricFamily("hopf"),
            (rho * (z[:, 0] + 1j * z[:, 1]), rho * (z[:, 2] + 1j * z[:, 3])),
        )
        rel = np.abs(hm.gflow_rhs(jet)).max(axis=(-1, -2)) / np.abs(jet.g).max(axis=(-1, -2))
        assert rel.max() < 1e-10

    def test_kahler_reduces_to_ricci_flow(self):
        jet = kahler_jet(np.linspace(0, 5, 9), np.linspace(0, 5, 9))
        assert np.abs(hm.gflow_rhs(jet) + kahler_ricci(jet)).max() < 1e-10

    def test_flat_fixed_point(self):
        assert np.abs(hm.gflow_rhs(hm.HermitianJet.flat())).max() == 0.0


class TestKahlerRicci:
    def test_flat(self):
        assert np.abs(kahler_ricci(hm.HermitianJet.flat())).max() == 0.0

    def test_kahler_finite_difference_oracle(self):
        eps, x1 = 0.4, 0.0
        h = 1e-4
        # d^2/dx1^2 log det g at x1 = x3 = 0, central difference on the closed form
        def logdet(x):
            return np.log((1 - eps / 4 * np.cos(x)) * (1 - eps / 4))

        d2 = (logdet(x1 + h) - 2 * logdet(x1) + logdet(x1 - h)) / h**2
        expected = -0.25 * d2  # Ric_{0 0bar} = -del_z del_zbar log det g = -(1/4) d^2/dx1^2
        ric = kahler_ricci(kahler_jet(0.0, 0.0, eps))
        assert abs(ric[0, 0] - expected) < 1e-7
        assert abs(ric[0, 1]) < 1e-15

    def test_hopf_symbolic(self):
        # -del dbar log det g = 2 del dbar log rho^2; at (1, 0) this is 2(delta_kl - z zbar/rho^2)/rho^2
        jet = jet_at(MetricFamily("hopf"), (np.array(1.0 + 0j), np.array(0.0 + 0j)))
        expected = 2 * np.array([[0.0, 0.0], [0.0, 1.0]])
        assert np.abs(kahler_ricci(jet) - expected).max() < 1e-13


class TestPluriclosedResidual:
    def test_kahler_zero(self):
        assert hm.pluriclosed_residual(kahler_jet(1.0, 2.0)).max() == 0.0

    def test_torus_zero(self):
        assert hm.pluriclosed_residual(torus_jet(np.linspace(0, 6, 20))).max() < 1e-16

    def test_linear_response(self):
        # perturbing a participating (self-conjugate) mixed second derivative
        # of a pluriclosed jet by delta moves the residual to exactly |delta|
        jet = random_jet(123, pluriclosed=True)
        delta = 0.37
        d2m = jet.d2m.copy()
        d2m[1, 1, 0, 0] += delta
        jet2 = hm.HermitianJet(jet.g, jet.d1, d2m, jet.d2h)
        assert_valid_jet(jet2)
        assert abs(hm.pluriclosed_residual(jet2) - delta) < 1e-14


class TestCovariantOps:
    def test_flat_zero(self):
        cov = hm.covariant_torsion_ops(hm.HermitianJet.flat())
        for arr in (cov.grad_hol, cov.grad_antihol, cov.divergence, cov.trace_grad):
            assert np.abs(arr).max() == 0.0

    def test_kahler_all_vanish(self):
        cov = hm.covariant_torsion_ops(kahler_jet(np.linspace(0, 5, 7), 0.3))
        assert np.abs(cov.trace_grad).max() == 0.0
        assert np.abs(cov.divergence).max() == 0.0

    def test_torus_closed_form_divergence(self):
        x3 = np.array([0.4, 2.2])
        cov = hm.covariant_torsion_ops(torus_jet(x3))
        e = np.exp(1j * x3)
        assert np.abs(cov.divergence[..., 0, 0] + Q).max() < 1e-15
        assert np.abs(
            cov.divergence[..., 0, 1] + EPS * e / (4 * (1 - EPS**2) ** 2)
        ).max() < 1e-15
        assert np.abs(cov.trace_grad[..., 0, 1] - EPS * e / (4 * (1 - EPS**2))).max() < 1e-15

    def test_grad_norms_closed_form(self):
        jet = torus_jet(np.linspace(0, 6, 7))
        n10, n01 = hm.grad_torsion_norms(jet.g, hm.covariant_torsion_ops(jet))
        assert np.abs(n10 - EPS**2 / (8 * (1 - EPS**2) ** 3)).max() < 1e-14
        assert np.abs(n01 - EPS**2 / (8 * (1 - EPS**2) ** 4)).max() < 1e-14


class TestIdentitySuite:
    def test_flat_all_zero(self):
        res = hm.identity_suite(hm.HermitianJet.flat(), pluriclosed=True)
        assert max(float(np.asarray(v).max()) for v in res.values()) == 0.0

    def test_random_pluriclosed_batch(self):
        jets = hm.random_jet_batch(np.random.default_rng(0), 200, pluriclosed=True)
        res = hm.identity_suite(jets, pluriclosed=True)
        assert set(res) >= {
            "torsion_trace_identity",
            "ricci_trace_relation",
            "flow_form_equivalence",
        }
        worst = max(float(np.asarray(v).max()) for v in res.values())
        assert worst < 1e-12

    def test_random_unconstrained_batch(self):
        jets = hm.random_jet_batch(np.random.default_rng(0), 200)
        res = hm.identity_suite(jets)
        assert "flow_form_equivalence" not in res
        worst = max(float(np.asarray(v).max()) for v in res.values())
        assert worst < 1e-12

    def test_flag_rejected_when_not_pluriclosed(self):
        jet = random_jet(9, pluriclosed=False)
        assert hm.pluriclosed_residual(jet) > 1e-3  # generic jets are far from pluriclosed
        with pytest.raises(ValueError, match="pluriclosed flag"):
            hm.identity_suite(jet, pluriclosed=True)

    def test_families_pass(self):
        res = hm.identity_suite(torus_jet(np.linspace(0, 6, 9)), pluriclosed=True)
        assert max(float(np.asarray(v).max()) for v in res.values()) < 1e-13


# the modules whose tensor contractions all go through hm._contract
_CONTRACTING = [pathlib.Path(hm.__file__), pathlib.Path(fl.__file__)]


def _assert_matches_einsum(subscripts, operands, out, tol=1e-14):
    ref = np.einsum(subscripts, *operands)
    assert np.shape(out) == np.shape(ref), subscripts
    err = np.abs(out - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max(initial=0.0) <= tol, (subscripts, err.max())


class TestContract:
    """``_contract`` is ``np.einsum`` taken with the batch axes trailing."""

    def test_every_call_site_matches_einsum(self, monkeypatch, generic_fields):
        calls = []
        contract = hm._contract

        def record(subscripts, *operands):
            out = contract(subscripts, *operands)
            calls.append((subscripts, operands, out))
            return out

        monkeypatch.setattr(hm, "_contract", record)
        for pluriclosed in (False, True):
            jets = hm.random_jet_batch(np.random.default_rng(0), 40, pluriclosed)
            hm.identity_suite(jets, pluriclosed)
            hm.identity_suite(random_jet(3, pluriclosed), pluriclosed)
        field = generic_fields[0]  # pluriclosed, varies along all four axes
        statics.static_report(field, np.diag([1.0, -1.0]))
        jet, _ = field.jets()
        hm.grad_torsion_norms(jet.g, hm.covariant_torsion_ops(jet))
        hm.curvature_norm(jet)
        fl.tnorm_evolution_check(fl.FlowState(0.0, 0, field))

        for subscripts, operands, out in calls:
            _assert_matches_einsum(subscripts, operands, out)
        source = "".join(path.read_text() for path in _CONTRACTING)
        assert {c[0] for c in calls} == set(re.findall(r'_contract\(\s*"([^"]+)"', source))

    @pytest.mark.parametrize("a_batch, b_batch", [
        ((4, 2, 3, 2), (4, 2, 3, 2)),  # a 4-axis grid batch
        ((5, 1, 3), (5, 1, 3)),        # a size-1 batch axis
        ((), (6,)),                    # an operand with no batch axes
        ((6, 1), (1, 3)),              # batch axes that broadcast
        ((), ()),                      # a single point
    ])
    def test_batches_match_einsum(self, a_batch, b_batch):
        rng = np.random.default_rng(4)

        def draw(shape):
            return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

        a, b = draw(a_batch + (2, 2)), draw(b_batch + (2, 2, 2))
        for subscripts, operands in (
            ("...kl,...ijl->...kij", (a, b)),
            ("...pb,...cq,...acb->...apq", (a, a, b)),
            ("...ij,...kji->...", (a, b)),
            ("...iaj->...jai", (b,)),
        ):
            _assert_matches_einsum(subscripts, operands, hm._contract(subscripts, *operands))

    def test_result_independent_of_memory_layout(self):
        jet = hm.random_jet_batch(np.random.default_rng(0), 50)
        gup = hm.inverse_metric(jet.g)
        t, _ = hm.torsion(jet)
        subscripts = "...kl,...mn,...ikn,...jlm->...ij"
        expected = hm._contract(subscripts, gup, gup, t, np.conj(t)).tobytes()
        for layout in (np.asfortranarray, lambda x: np.ascontiguousarray(x.T).T):
            g2, t2 = layout(gup), layout(t)
            assert hm._contract(subscripts, g2, g2, t2, np.conj(t2)).tobytes() == expected

    @pytest.mark.parametrize("path", _CONTRACTING, ids=lambda p: p.name)
    def test_no_direct_einsum(self, path):
        # numpy's optimize path multiplies one 2x2 block per batch item: only
        # _contract calls einsum, and only its path finder passes optimize=
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr == "einsum":
                    assert owner == "_contract", f"{path.name}:{node.lineno} calls einsum"
                if any(k.arg == "optimize" for k in node.keywords):
                    assert owner == "_contraction_plan", f"{path.name}:{node.lineno} passes optimize="


def _random_jet_reference(seed, pluriclosed=False):
    """Frozen per-jet construction that :func:`hm.random_jet_batch` reproduces.
    ``seed`` may also be a generator (``default_rng`` returns it as is), so
    that jets can be drawn one after another from one stream."""
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))) / np.sqrt(2)
    g = a @ a.conj().T + np.eye(2)
    d1 = rng.uniform(-1, 1, (2, 2, 2)) + 1j * rng.uniform(-1, 1, (2, 2, 2))
    d2h = rng.uniform(-1, 1, (2, 2, 2, 2)) + 1j * rng.uniform(-1, 1, (2, 2, 2, 2))
    d2h = (d2h + d2h.transpose(1, 0, 2, 3)) / 2
    d2m = rng.uniform(-1, 1, (2, 2, 2, 2)) + 1j * rng.uniform(-1, 1, (2, 2, 2, 2))
    d2m = (d2m + d2m.transpose(1, 0, 3, 2).conj()) / 2
    if pluriclosed:
        d2m[1, 1, 0, 0] = (-d2m[0, 0, 1, 1] + d2m[1, 0, 0, 1] + d2m[0, 1, 1, 0]).real
    return g, d1, d2m, d2h


class TestRandomJet:
    @pytest.mark.parametrize("pluriclosed", [False, True])
    @pytest.mark.parametrize("counts", [(600,), (250, 1, 349)], ids=["contiguous", "split"])
    def test_batch_is_byte_identical_to_reference(self, counts, pluriclosed):
        # batches drawn one after another from one generator are the jets the
        # reference draws one after another from a generator of the same seed
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for count in counts:
            jet = hm.random_jet_batch(rng, count, pluriclosed)
            refs = [_random_jet_reference(ref_rng, pluriclosed) for _ in range(count)]
            for k, name in enumerate(("g", "d1", "d2m", "d2h")):
                expected = np.stack([ref[k] for ref in refs])
                value = getattr(jet, name)
                assert value.shape == expected.shape and value.dtype == expected.dtype
                assert value.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("pluriclosed", [False, True])
    def test_empty_batch(self, pluriclosed):
        jet = hm.random_jet_batch(np.random.default_rng(0), 0, pluriclosed)
        flat = hm.HermitianJet.flat((0,))
        for name in ("g", "d1", "d2m", "d2h"):
            assert getattr(jet, name).shape == getattr(flat, name).shape, name

    def test_single_jet_is_the_batch_of_one(self):
        jet = random_jet(2**40, pluriclosed=True)
        for name, ref in zip(("g", "d1", "d2m", "d2h"), _random_jet_reference(2**40, True)):
            assert getattr(jet, name).tobytes() == ref.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**200), st.booleans())
    def test_single_jet_matches_reference(self, seed, pluriclosed):
        jet = random_jet(seed, pluriclosed)
        for name, ref in zip(("g", "d1", "d2m", "d2h"), _random_jet_reference(seed, pluriclosed)):
            assert getattr(jet, name).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0)])
    def test_non_integral_seed_is_a_type_error(self, seed):
        with pytest.raises(TypeError):
            random_jet(seed)

    def test_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError):
            random_jet(-1)

    def test_draws_no_generator(self):
        # the batch draws from the generator it is given: one built per jet
        # (~15 us) would cost several times the draw of a whole jet
        tree = ast.parse(pathlib.Path(hm.__file__).read_text())
        (body,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "random_jet_batch"
        ]
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                assert name not in {"default_rng", "Generator", "SeedSequence", "PCG64"}, (
                    f"hermitian.py:{node.lineno} calls {name}"
                )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_deterministic_and_valid(self, seed):
        j1 = random_jet(seed)
        j2 = random_jet(seed)
        assert np.array_equal(j1.g, j2.g)
        assert np.array_equal(j1.d2m, j2.d2m)
        assert_valid_jet(j1)
        assert np.linalg.eigvalsh(j1.g).min() >= 1.0 - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_pluriclosed_constraint(self, seed):
        jet = random_jet(seed, pluriclosed=True)
        assert_valid_jet(jet)
        assert hm.pluriclosed_residual(jet) < 1e-14


class TestJetValidation:
    def test_rejects_wrong_shape(self):
        jet = hm.HermitianJet.flat()
        with pytest.raises(ValueError, match="shape"):
            hm.HermitianJet(jet.g, jet.d1[..., 0], jet.d2m, jet.d2h)
