"""The surface kernels and the one-pass stencil jets against the oracles.

The flow hot path evaluates ``surface_flow`` on ``MetricField.surface_jet``;
the einsum kernels (``gflow_rhs``, ``chern_curvature``,
``torsion_quadratics``, ``torsion``, ``curvature_norm``) on the full
``MetricField.jets`` are the oracles it is pinned to.  The static report,
the Hermitian-symplectic extension and the ``omega_form`` flow evaluate
``surface_hodge`` on the same jet; the einsum ``hodge_operators`` is its
oracle.  The jets themselves are pinned to ``dz``/``dzbar`` compositions in
``test_grid.py``.
"""

import functools

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily, jet_at
from plurigeo.grid import degree, wedge_pair

from conftest import composed_jets, cross_field, surface_jet_of

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


def conditioned_jets(kappa: float, count: int, seed: int) -> hm.HermitianJet:
    """Random jets whose metric has condition number ``kappa``: eigenvalues 1
    and 1/kappa, eigenvectors from a seeded random unitary per jet."""
    rng = np.random.default_rng(seed)
    jet = hm.random_jet_batch(rng, count)
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    q, _ = np.linalg.qr(z)
    g = np.einsum("nij,j,nkj->nik", q, np.array([1.0, 1.0 / kappa]), np.conj(q))
    g = 0.5 * (g + np.conj(g.swapaxes(-1, -2)))
    return hm.HermitianJet(g, jet.d1, jet.d2m, jet.d2h)


def _kernel_and_oracle_jets():
    """Name -> (the kernel's input, the oracles' jet).  For ``cross`` the
    kernel reads the flow's one stencil pass and the oracles the ``dz``/``dzbar``
    compositions, so a wrong sign in any row of the pass shows here."""
    jets = {
        "random_free": hm.random_jet_batch(np.random.default_rng(0), 2000),
        "random_pluriclosed": hm.random_jet_batch(np.random.default_rng(1), 2000, pluriclosed=True),
        **_family_jets(),
        **{f"kappa_{k:.0e}": conditioned_jets(k, 2000, 2 + i) for i, k in enumerate(KAPPAS)},
    }
    pairs = {name: (surface_jet_of(jet), jet) for name, jet in jets.items()}
    cross = cross_field()
    pairs["cross"] = (cross.surface_jet(), composed_jets(cross))
    return pairs


# On the conditioned sets g^-1 itself is only good to about kappa(g) eps (its
# determinant cancels), and the kernel and the einsum oracles take it from
# one inverse_metric, so both err alike; a result that cancels is no scale
# for that error.  There the kernel is held to its value on the jet in
# long double, within KAPPA_TOL * kappa * eps times the size of the terms
# each quantity sums (_term_sizes).  Largest error / (kappa eps size)
# measured over 40 fresh 2000-jet sets per kappa: 9.8, for the kernel and
# the float64 oracles alike (scal and |Omega|; rhs 3.3), so the bound has a
# margin of 3.3; for surface_hodge and hodge_operators alike 3.6 (chern_ricci)
KAPPAS = (1e2, 1e4, 1e6)
KAPPA_TOL = 32.0
JETS = _kernel_and_oracle_jets()


HODGE_BLOCKS = ("static_op", "chern_ricci", "del_star", "dbar_star", "del_del_star", "dbar_dbar_star")


def _hodge_blocks(ops: hm.HodgeOperators) -> dict:
    return {name: getattr(ops, name) for name in HODGE_BLOCKS}


def _rel(value, oracle) -> float:
    """Largest |value - oracle| / max(1, |oracle|), entrywise."""
    value, oracle = np.asarray(value), np.asarray(oracle)
    return float((np.abs(value - oracle) / np.maximum(1.0, np.abs(oracle))).max())


def _oracles(jet: hm.HermitianJet) -> dict:
    """The einsum oracles of each ``surface_flow`` output, in the jet's dtype."""
    _, _, _, scal = hm.chern_curvature(jet)
    _, _, tnorm_sq = hm.torsion_quadratics(jet)
    _, w = hm.torsion(jet)
    gup = hm.inverse_metric(jet.g)
    return {
        "rhs": hm.gflow_rhs(jet),
        "scal": scal,
        "tnorm_sq": tnorm_sq,
        "w_sq": np.einsum("...ij,...i,...j->...", gup, w, np.conj(w)).real,
        "curv": hm.curvature_norm(jet),
        "pluriclosed": hm.pluriclosed_residual(jet),
    }


def _term_sizes(jet: hm.HermitianJet) -> dict:
    """Per jet, the size of the terms each quantity sums, from the largest
    entries G of g^-1, M of d2m and D of d1: the velocity is g^-1 d2m plus
    g^-1 g^-1 d1 d1, and scal and |Omega| carry one more g^-1."""
    def largest(x, rank):
        return np.abs(x).reshape(x.shape[: x.ndim - rank] + (-1,)).max(axis=-1)

    big_g = largest(hm.inverse_metric(jet.g), 2)
    big_m, big_d = largest(jet.d2m, 4), largest(jet.d1, 3)
    rhs = big_g * big_m + big_g**2 * big_d**2
    torsion_sq = big_g**3 * big_d**2
    # the (1,1)-blocks of the Hodge operators sum terms like the velocity's,
    # the codifferentials g^-1 d1
    hodge = {name: rhs for name in HODGE_BLOCKS}
    hodge["del_star"] = hodge["dbar_star"] = big_g * big_d
    return {"rhs": rhs, "scal": big_g * rhs, "tnorm_sq": torsion_sq, "w_sq": torsion_sq,
            "curv": big_g * rhs, "pluriclosed": big_m, **hodge}


def _long_double(jet: hm.HermitianJet) -> hm.HermitianJet:
    return hm.HermitianJet(
        *(getattr(jet, name).astype(np.clongdouble) for name in ("g", "d1", "d2m", "d2h"))
    )


@functools.cache
def _long_double_reference(name: str) -> tuple[dict, dict]:
    jet = JETS[name][1]
    exact = _long_double(jet)
    return {**_oracles(exact), **_hodge_blocks(hm.hodge_operators(exact))}, _term_sizes(jet)


def _assert_within_kappa_bound(name: str, values: dict) -> None:
    bound = KAPPA_TOL * float(name[len("kappa_"):]) * np.finfo(float).eps
    reference, sizes = _long_double_reference(name)
    for key, value in values.items():
        err = np.abs(value - reference[key]).reshape(len(value), -1).max(axis=-1)
        assert (err <= bound * sizes[key]).all(), (key, float((err / sizes[key]).max()))


@pytest.mark.parametrize("name", sorted(JETS))
def test_kernel_matches_oracles(name):
    surface, jet = JETS[name]
    out = hm.surface_flow(surface)
    kernel = {"rhs": out.rhs, "scal": out.scal, "tnorm_sq": out.tnorm_sq, "w_sq": out.w_sq,
              "curv": np.sqrt(out.curv_sq), "pluriclosed": out.pluriclosed}
    if name.startswith("kappa_"):
        _assert_within_kappa_bound(name, kernel)
        return
    oracle = _oracles(jet)
    for key, value in kernel.items():
        assert _rel(value, oracle[key]) <= TOL, key


@pytest.mark.parametrize("name", [f"kappa_{k:.0e}" for k in KAPPAS])
def test_oracles_meet_the_kappa_bound(name):
    # the float64 oracles err like the kernel: the bound is g^-1's, not the kernel's
    _assert_within_kappa_bound(name, _oracles(JETS[name][1]))


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
    out = hm.surface_flow(JETS["random_free"][0], ("scal", "tnorm_sq", "pluriclosed"))
    rhs = out.rhs
    assert np.array_equal(rhs, np.conj(rhs.swapaxes(-1, -2)))
    assert out.curv_sq is None


def test_singular_metric_raises():
    """The zero metric at a node meets numpy's invalid-value warning in
    ``mu`` first, then the :class:`SingularMetricError` (``surface_flow``'s
    docstring)."""
    jet = hm.HermitianJet.flat((3,))
    g = jet.g.copy()
    g[1] = 0.0
    with pytest.raises(hm.SingularMetricError):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in divide"):
            hm.surface_flow(surface_jet_of(hm.HermitianJet(g, jet.d1, jet.d2m, jet.d2h)))


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


# ---------------------------------------------------------------------------
# surface_hodge against hodge_operators


@pytest.mark.parametrize("name", sorted(JETS))
def test_surface_hodge_matches_hodge_operators(name):
    surface, jet = JETS[name]
    kernel = _hodge_blocks(hm.surface_hodge(surface))
    if name.startswith("kappa_"):
        _assert_within_kappa_bound(name, kernel)
        return
    oracle = _hodge_blocks(hm.hodge_operators(jet))
    for key, value in kernel.items():
        assert _rel(value, oracle[key]) <= TOL, key


@pytest.mark.parametrize("name", ["random_free", "random_pluriclosed", "cross", "kappa_1e+06"])
def test_surface_hodge_static_op_is_exactly_hermitian(name):
    ops = hm.surface_hodge(JETS[name][0])
    assert np.array_equal(ops.static_op, np.conj(ops.static_op.swapaxes(-1, -2)))
    assert np.array_equal(ops.chern_ricci, np.conj(ops.chern_ricci.swapaxes(-1, -2)))
    assert np.array_equal(ops.dbar_dbar_star, np.conj(ops.del_del_star.swapaxes(-1, -2)))
    assert np.array_equal(ops.del_star, np.conj(ops.dbar_star))


@pytest.mark.parametrize("node", [[[1.0, 1.0], [1.0, 1.0]], 0.0])
def test_surface_hodge_singular_metric_raises(node):
    # det 0, and g 0, where mu is 0 / 0: inverse_metric runs first, so
    # nothing before it meets an invalid value
    jet = JETS["random_free"][0]
    g = jet.g.copy()
    g[7] = node
    with np.errstate(all="raise"), pytest.raises(hm.SingularMetricError):
        hm.surface_hodge(hm.SurfaceJet(g, jet.d1, jet.d2m))


def test_surface_hodge_on_grid_jets(generic_fields):
    """On grid fields ``surface_jet()`` and the views of the full jet give the
    same blocks, and the einsum oracle on the full jet agrees."""
    for field in generic_fields:
        full, _ = field.jets()
        ops = hm.surface_hodge(field.surface_jet())
        views = _hodge_blocks(hm.surface_hodge(surface_jet_of(full)))
        oracle = _hodge_blocks(hm.hodge_operators(full))
        for key, value in _hodge_blocks(ops).items():
            assert np.array_equal(value, views[key]), key
            assert _rel(value, oracle[key]) <= TOL, key


def test_surface_jet_pluriclosed_residual(generic_fields):
    for field in generic_fields:
        full, _ = field.jets()
        surface = field.surface_jet()
        assert np.array_equal(surface.pluriclosed_residual(), hm.surface_flow(surface).pluriclosed)
        assert np.abs(surface.pluriclosed_residual() - hm.pluriclosed_residual(full)).max() <= 1e-15


def test_hermitian_norm_sq_is_the_metric_pairing():
    rng = np.random.default_rng(4)
    for name in ("random_free", "random_pluriclosed", "kahler_potential", "torus_pluriclosed"):
        g = JETS[name][1].g
        a = rng.uniform(-1, 1, g.shape) + 1j * rng.uniform(-1, 1, g.shape)
        a = a + np.conj(a.swapaxes(-1, -2))
        norm = hm.hermitian_norm_sq(g, a)
        assert _rel(norm, hm.metric_pairing(g, a, a).real) <= TOL, name
        assert (norm >= 0).all()
