"""Pointwise Hermitian tensor calculus on a complex surface (n = 2).

Everything operates on jets of a Hermitian metric: the 2x2 component
matrix ``g[i, j] = g_{i jbar}`` together with its first and second
coordinate derivatives in a fixed holomorphic chart.  All functions
broadcast over leading batch axes, so a "jet" may be a single point or a
whole grid of points at once.

Index conventions (0-based, trailing axes):

=================  ==================================================
``g[..., i, j]``    ``g_{i jbar}``
``d1[..., k, i, j]``   ``del_{z^k} g_{i jbar}``
``d2m[..., k, l, i, j]``  ``del_{z^k} del_{zbar^l} g_{i jbar}``
``d2h[..., k, l, i, j]``  ``del_{z^k} del_{z^l} g_{i jbar}``
=================  ==================================================

Antiholomorphic first derivatives are derived, never stored:
``del_{zbar^k} g_{i jbar} = conj(d1[..., k, j, i])``.

Real (1,1)-forms are stored as coefficient matrices ``b`` with
``beta = (i/2) b_{i jbar} dz^i ^ dzbar^j``, so the Kaehler form of ``g``
has coefficient matrix ``g`` itself and ``beta ^ gamma`` reduces to
:func:`plurigeo.grid.wedge_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMetricError",
    "HermitianJet",
    "inverse_metric",
    "chern_connection",
    "torsion",
    "chern_curvature",
    "torsion_quadratics",
    "hodge_operators",
    "gflow_rhs",
    "kahler_ricci",
    "pluriclosed_residual",
    "SurfaceJet",
    "SurfaceFlow",
    "surface_flow",
    "covariant_torsion_ops",
    "metric_pairing",
    "grad_torsion_norms",
    "curvature_norm",
    "torsion_norm",
    "identity_suite",
    "random_jet",
    "random_jet_batch",
]


class SingularMetricError(ValueError):
    """Raised when a metric matrix is not invertible."""


def _amax(x: np.ndarray, rank: int) -> np.ndarray:
    """Max absolute value over the trailing `rank` tensor axes (batched)."""
    a = np.abs(np.asarray(x))
    if rank == 0:
        return a
    return a.reshape(a.shape[: a.ndim - rank] + (-1,)).max(axis=-1)


@dataclass(frozen=True)
class HermitianJet:
    """Second-order jet of a Hermitian metric at one or many points."""

    g: np.ndarray
    d1: np.ndarray
    d2m: np.ndarray
    d2h: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=complex)
        if g.shape[-2:] != (2, 2):
            raise ValueError("g must have trailing shape (2, 2)")
        b = g.shape[:-2]
        for name, arr, shape in (
            ("d1", self.d1, b + (2, 2, 2)),
            ("d2m", self.d2m, b + (2, 2, 2, 2)),
            ("d2h", self.d2h, b + (2, 2, 2, 2)),
        ):
            if np.asarray(arr).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")

    @classmethod
    def flat(cls, batch_shape: tuple = ()) -> "HermitianJet":
        """Jet of the identity metric (all derivatives zero)."""
        g = np.broadcast_to(np.eye(2, dtype=complex), batch_shape + (2, 2)).copy()
        return cls(
            g=g,
            d1=np.zeros(batch_shape + (2, 2, 2), dtype=complex),
            d2m=np.zeros(batch_shape + (2, 2, 2, 2), dtype=complex),
            d2h=np.zeros(batch_shape + (2, 2, 2, 2), dtype=complex),
        )


# ---------------------------------------------------------------------------
# basic tensors


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse metric ``gup[..., i, j] = g^{i jbar}`` with ``g^{i jbar} g_{k jbar} = delta_ik``."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if not np.isfinite(det).all() or np.abs(det).min() < 1e-300:
        raise SingularMetricError("metric not invertible")
    gup = np.empty_like(g)
    gup[..., 0, 0] = g[..., 1, 1] / det
    gup[..., 1, 1] = g[..., 0, 0] / det
    gup[..., 0, 1] = -g[..., 1, 0] / det
    gup[..., 1, 0] = -g[..., 0, 1] / det
    return gup


def _d1bar(jet: HermitianJet) -> np.ndarray:
    # d1b[..., k, i, j] = del_{zbar^k} g_{i jbar}
    return np.conj(jet.d1.swapaxes(-1, -2))


def chern_connection(jet: HermitianJet) -> np.ndarray:
    """Connection coefficients ``gam[..., k, i, j] = Gamma^k_{ij} = g^{k lbar} del_i g_{j lbar}``."""
    gup = inverse_metric(jet.g)
    return np.einsum("...kl,...ijl->...kij", gup, jet.d1)


def torsion(jet: HermitianJet) -> tuple[np.ndarray, np.ndarray]:
    """Torsion ``T[..., i, j, k] = T_{i j kbar}`` and its trace ``w[..., i] = g^{j kbar} T_{i j kbar}``."""
    t = jet.d1 - jet.d1.swapaxes(-3, -2)
    gup = inverse_metric(jet.g)
    w = np.einsum("...jk,...ijk->...i", gup, t)
    return t, w


def chern_curvature(jet: HermitianJet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chern curvature and its Ricci-type traces.

    Returns
    -------
    curv : ndarray
        ``curv[..., i, j, k, l] = Omega_{i jbar k lbar}
        = -g_{k lbar, i jbar} + g^{m nbar} g_{k nbar, i} g_{lbar m, jbar}``.
    ric1 : ndarray
        Trace over the form pair, ``g^{i jbar} Omega_{i jbar k lbar}``.
    ric2 : ndarray
        Trace over the endomorphism pair, ``g^{k lbar} Omega_{i jbar k lbar}``.
    scal : ndarray
        Scalar trace ``g^{k lbar} ric1_{k lbar}`` (real).
    """
    gup = inverse_metric(jet.g)
    curv = -jet.d2m + np.einsum(
        "...mn,...ikn,...jlm->...ijkl", gup, jet.d1, np.conj(jet.d1), optimize=True
    )
    ric1 = np.einsum("...ij,...ijkl->...kl", gup, curv)
    ric2 = np.einsum("...kl,...ijkl->...ij", gup, curv)
    scal = np.einsum("...kl,...kl->...", gup, ric1).real
    return curv, ric1, ric2, scal


def torsion_quadratics(jet: HermitianJet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic torsion contractions ``(quad1, quad2, tnorm_sq)``.

    ``quad1_{i jbar} = g^{k lbar} g^{m nbar} T_{i k nbar} T_{jbar lbar m}`` and
    ``quad2_{i jbar} = g^{k lbar} g^{m nbar} T_{lbar nbar i} T_{k m jbar}``,
    with barred torsion components given by conjugation.  ``tnorm_sq`` is the
    trace of quad1, equal to the squared torsion norm (real, >= 0).
    """
    gup = inverse_metric(jet.g)
    t, _ = torsion(jet)
    tb = np.conj(t)
    quad1 = np.einsum("...kl,...mn,...ikn,...jlm->...ij", gup, gup, t, tb, optimize=True)
    quad2 = np.einsum("...kl,...mn,...lni,...kmj->...ij", gup, gup, tb, t, optimize=True)
    tnorm_sq = np.einsum("...ij,...ij->...", gup, quad1).real
    return quad1, quad2, tnorm_sq


# ---------------------------------------------------------------------------
# Hodge-type operators


@dataclass(frozen=True)
class HodgeOperators:
    """Coordinate expressions of the codifferential/Hodge blocks of a metric.

    The 1-form components carry their full value; the (1,1)-blocks are the
    coefficient matrices in the (i/2)-convention (displayed bracket without
    the (i/2) prefactor).  ``static_op`` is the operator whose eigenvalue
    equation characterises static metrics; minus it is the Kaehler-form flow
    velocity.

    The codifferential of the Kaehler form is tied to the torsion trace by
    ``del_star = -(i/2) conj(w)``, so its pointwise coefficient norm is a
    quarter of ``|w|^2``; all integral energies in this package are
    standardised through ``|w|^2``.
    """

    del_star: np.ndarray        # (del* omega)_{kbar}
    dbar_star: np.ndarray       # (dbar* omega)_j
    del_del_star: np.ndarray    # (del del* omega) coefficient matrix
    dbar_dbar_star: np.ndarray  # (dbar dbar* omega) coefficient matrix
    chern_ricci: np.ndarray     # ((i/2) del dbar log det g) coefficient matrix
    static_op: np.ndarray       # -(del del* + dbar dbar*) - chern_ricci


def hodge_operators(jet: HermitianJet) -> HodgeOperators:
    """All pointwise Hodge-type blocks of the metric jet.

    Each shared contraction is computed once.  With the traces
    ``a1_j = g^{p qbar} del_j g_{p qbar}`` and ``a2_j = g^{p qbar} del_p g_{j qbar}``,
    ``tr_{jk} = g^{p qbar} d2m[j, k, p, q]``,
    ``b[j, q, p] = g^{n qbar} g^{p mbar} del_j g_{n mbar}`` and its contractions
    ``P_{jk} = b[j, q, p] d1b[q, p, k]``, ``Q_{jk} = b[j, q, p] d1b[k, p, q]``
    (``d1b[k, i, j] = del_{kbar} g_{i jbar}``):

    - ``dbar_star = (i/2)(a1 - a2)``, ``del_star = (i/2) conj(a2 - a1)``;
    - ``del_del_star = g^{p qbar} d2m[j, q, p, k] - tr - P + Q``;
    - ``dbar_dbar_star = g^{p qbar} d2m[p, k, j, q] - tr - P^H + Q^H``;
    - ``chern_ricci = tr - Q``.
    """
    gup = inverse_metric(jet.g)
    d1, d2m = jet.d1, jet.d2m
    d1b = _d1bar(jet)
    a1 = np.einsum("...pq,...jpq->...j", gup, d1)
    a2 = np.einsum("...pq,...pjq->...j", gup, d1)
    trace = np.einsum("...pq,...jkpq->...jk", gup, d2m)
    b = np.einsum("...nq,...jnm->...jqm", gup, d1)
    b = np.einsum("...pm,...jqm->...jqp", gup, b)
    p = np.einsum("...jqp,...qpk->...jk", b, d1b)
    q = np.einsum("...jqp,...kpq->...jk", b, d1b)
    p_h = np.conj(p.swapaxes(-1, -2))
    q_h = np.conj(q.swapaxes(-1, -2))
    dds = np.einsum("...pq,...jqpk->...jk", gup, d2m) - trace - p + q
    dbdbs = np.einsum("...pq,...pkjq->...jk", gup, d2m) - trace - p_h + q_h
    ricci = trace - q
    return HodgeOperators(
        del_star=0.5j * np.conj(a2 - a1),
        dbar_star=0.5j * (a1 - a2),
        del_del_star=dds,
        dbar_dbar_star=dbdbs,
        chern_ricci=ricci,
        static_op=-(dds + dbdbs + ricci),
    )


def gflow_rhs(jet: HermitianJet) -> np.ndarray:
    """Metric flow velocity ``-ric1 + quad1`` (Hermitian)."""
    _, ric1, _, _ = chern_curvature(jet)
    quad1, _, _ = torsion_quadratics(jet)
    return -ric1 + quad1


def kahler_ricci(jet: HermitianJet) -> np.ndarray:
    """Independent Ricci oracle ``-del_j del_kbar log det g`` (valid as Ricci on Kaehler jets)."""
    return -hodge_operators(jet).chern_ricci


def pluriclosed_residual(jet: HermitianJet) -> np.ndarray:
    """Absolute value of the single independent component of ``del dbar omega`` (n = 2)."""
    d2m = jet.d2m
    b = (
        d2m[..., 1, 1, 0, 0]
        + d2m[..., 0, 0, 1, 1]
        - d2m[..., 1, 0, 0, 1]
        - d2m[..., 0, 1, 1, 0]
    )
    return np.abs(b)


# ---------------------------------------------------------------------------
# fused surface kernel


@dataclass(frozen=True)
class SurfaceJet:
    """First and mixed second jet of a surface metric, component-leading.

    ``g`` is batch-trailing as in :class:`HermitianJet`; the derivative
    arrays lead with their component axes, so each component is one
    batch-shaped block:

    ==================  ==============================================
    ``d1[k, i, j]``     ``del_{z^k} g_{i jbar}``
    ``d2m[r, i, j]``    ``del_{z^k} del_{zbar^l} g_{i jbar}`` with
                        ``(k, l) = (0, 0), (1, 1), (0, 1)`` for r = 0, 1, 2
    ==================  ==============================================

    The ``(k, l) = (1, 0)`` row follows from reality,
    ``del_{z^2} del_{zbar^1} g_{i jbar} = conj(d2m[2, j, i])``.
    """

    g: np.ndarray
    d1: np.ndarray
    d2m: np.ndarray

    @classmethod
    def from_jet(cls, jet: HermitianJet) -> "SurfaceJet":
        """Views of a full jet's components (``d2h`` is not needed)."""
        rows = np.stack([jet.d2m[..., 0, 0, :, :], jet.d2m[..., 1, 1, :, :], jet.d2m[..., 0, 1, :, :]])
        return cls(
            g=jet.g,
            d1=np.moveaxis(jet.d1, (-3, -2, -1), (0, 1, 2)),
            d2m=np.moveaxis(rows, (-2, -1), (1, 2)),
        )


@dataclass(frozen=True)
class SurfaceFlow:
    """Flow velocity and the pointwise scalars of the diagnostics."""

    rhs: np.ndarray           # -ric1 + quad1, (..., 2, 2), Hermitian by construction
    scal: np.ndarray          # Chern scalar curvature g^{k lbar} ric1_{k lbar}
    tnorm_sq: np.ndarray      # |T|^2
    w_sq: np.ndarray          # |w|^2 = g^{i jbar} w_i conj(w_j) = |T|^2 / 2
    pluriclosed: np.ndarray   # as pluriclosed_residual
    curv_sq: np.ndarray | None = None  # |Omega|^2, when requested


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def surface_flow(jet: SurfaceJet, curvature: bool = False) -> SurfaceFlow:
    """Closed-form ``gflow`` velocity and diagnostics scalars on a surface.

    Component by component, with the torsion reduced to its two
    components ``tau_k = T_{1 2 kbar}``:

    - ``|T|^2 = (2 / det g) g^{m nbar} tau_n conj(tau_m)``, ``|w|^2 = |T|^2 / 2``
      and ``quad1 = (1/2) |T|^2 g`` (the surface torsion algebra);
    - ``-ric1_{k lbar} = g^{i jbar} del_i del_jbar g_{k lbar}
      - g^{i jbar} g^{m nbar} del_i g_{k nbar} conj(del_j g_{l mbar})``.

    Agrees with :func:`gflow_rhs`, :func:`chern_curvature`,
    :func:`torsion_quadratics`, :func:`torsion` and, with ``curvature``,
    :func:`curvature_norm` (squared) to rounding on jets that satisfy the
    reality of ``d2m``.
    """
    g = jet.g
    gup = inverse_metric(g)
    G = ((gup[..., 0, 0], gup[..., 0, 1]), (gup[..., 1, 0], gup[..., 1, 1]))
    det = (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]).real
    d1, r = jet.d1, jet.d2m
    d1c = np.conj(d1)

    tau0 = d1[0, 1, 0] - d1[1, 0, 0]
    tau1 = d1[0, 1, 1] - d1[1, 0, 1]
    w_sq = (
        G[0][0].real * _abs2(tau0)
        + G[1][1].real * _abs2(tau1)
        + 2.0 * (G[0][1] * tau1 * np.conj(tau0)).real
    ) / det

    # u[i][k][m] = g^{m nbar} del_i g_{k nbar}; s[j][k][m] = g^{i jbar} u[i][k][m]
    u = [[[G[m][0] * d1[i, k, 0] + G[m][1] * d1[i, k, 1] for m in (0, 1)]
          for k in (0, 1)] for i in (0, 1)]
    s = [[[G[0][j] * u[0][k][m] + G[1][j] * u[1][k][m] for m in (0, 1)]
          for k in (0, 1)] for j in (0, 1)]

    def neg_ric1(k: int, l: int) -> np.ndarray:
        trace = (
            G[0][0] * r[0, k, l]
            + G[1][1] * r[1, k, l]
            + G[0][1] * r[2, k, l]
            + G[1][0] * np.conj(r[2, l, k])
        )
        quad = (
            s[0][k][0] * d1c[0, l, 0]
            + s[0][k][1] * d1c[0, l, 1]
            + s[1][k][0] * d1c[1, l, 0]
            + s[1][k][1] * d1c[1, l, 1]
        )
        return trace - quad

    n00 = neg_ric1(0, 0).real
    n11 = neg_ric1(1, 1).real
    n01 = neg_ric1(0, 1)
    rhs = np.empty(np.shape(g), dtype=complex)
    rhs[..., 0, 0] = n00 + w_sq * g[..., 0, 0].real
    rhs[..., 1, 1] = n11 + w_sq * g[..., 1, 1].real
    rhs[..., 0, 1] = n01 + w_sq * g[..., 0, 1]
    rhs[..., 1, 0] = np.conj(rhs[..., 0, 1])
    scal = -(G[0][0].real * n00 + G[1][1].real * n11 + 2.0 * (G[0][1] * n01).real)
    pluriclosed = np.abs(r[1, 0, 0] + r[0, 1, 1] - 2.0 * r[2, 1, 0].real)

    curv_sq = None
    if curvature:
        curv_sq = _curvature_norm_sq(G, r, d1c, u)
    return SurfaceFlow(
        rhs=rhs,
        scal=scal,
        tnorm_sq=2.0 * w_sq,
        w_sq=w_sq,
        pluriclosed=pluriclosed,
        curv_sq=curv_sq,
    )


def _curvature_norm_sq(G, r, d1c, u) -> np.ndarray:
    """``|Omega|^2 = tr(W^2)`` with ``W = (gup (x) gup) X^T`` and ``X`` the
    curvature as a Hermitian 4x4 matrix over the index pairs ``(i k), (j l)``."""

    def d2m(i, j, k, l):
        if i == j:
            return r[i, k, l]
        return r[2, k, l] if i == 0 else np.conj(r[2, l, k])

    idx = (0, 1)
    curv = {
        (i, j, k, l): u[i][k][0] * d1c[j, l, 0] + u[i][k][1] * d1c[j, l, 1] - d2m(i, j, k, l)
        for i in idx for j in idx for k in idx for l in idx
    }
    # raise the second and fourth slots: w[a, b, c, d] = g^{b b'} g^{d d'} curv[a, b', c, d']
    half = {
        (a, b, c, d): G[d][0] * curv[a, b, c, 0] + G[d][1] * curv[a, b, c, 1]
        for a in idx for b in idx for c in idx for d in idx
    }
    w = {
        (a, b, c, d): G[b][0] * half[a, 0, c, d] + G[b][1] * half[a, 1, c, d]
        for a in idx for b in idx for c in idx for d in idx
    }
    total = np.zeros(np.shape(G[0][0]))
    for (a, b, c, d), val in w.items():
        total += (val * w[b, a, d, c]).real
    return total


# ---------------------------------------------------------------------------
# covariant torsion calculus


@dataclass(frozen=True)
class CovariantTorsion:
    """Chern-covariant derivatives of the torsion and its trace.

    ``grad_hol[..., a, i, j, k] = nabla_a T_{i j kbar}`` and
    ``grad_antihol[..., a, i, j, k] = nabla_{abar} T_{i j kbar}``; mixed
    Christoffel symbols vanish so only same-type slots are corrected.
    ``divergence[..., i, j] = g^{p qbar} nabla_{qbar} T_{p i jbar}`` and
    ``trace_grad[..., i, j] = del_{jbar} w_i``.
    """

    grad_hol: np.ndarray
    grad_antihol: np.ndarray
    divergence: np.ndarray
    trace_grad: np.ndarray


def covariant_torsion_ops(jet: HermitianJet) -> CovariantTorsion:
    gup = inverse_metric(jet.g)
    t, _ = torsion(jet)
    gam = chern_connection(jet)
    gamb = np.conj(gam)
    d1b = _d1bar(jet)
    d2m, d2h = jet.d2m, jet.d2h

    dth = d2h - d2h.swapaxes(-3, -2)  # del_a T_{i j kbar}
    grad_hol = (
        dth
        - np.einsum("...pai,...pjk->...aijk", gam, t)
        - np.einsum("...paj,...ipk->...aijk", gam, t)
    )
    dtb = np.einsum("...iajk->...aijk", d2m) - np.einsum("...jaik->...aijk", d2m)
    grad_antihol = dtb - np.einsum("...rak,...ijr->...aijk", gamb, t)

    # div_{i jbar} = g^{p qbar} nabla_{qbar} T_{p i jbar}
    div = np.einsum("...pq,...qpij->...ij", gup, grad_antihol)

    dgup_b = -np.einsum("...pb,...aq,...jab->...jpq", gup, gup, d1b, optimize=True)
    dtb_w = np.einsum("...ijpq->...ijpq", d2m) - np.einsum("...pjiq->...ijpq", d2m)
    trace_grad = (
        np.einsum("...jpq,...ipq->...ij", dgup_b, t)
        + np.einsum("...pq,...ijpq->...ij", gup, dtb_w)
    )
    return CovariantTorsion(grad_hol, grad_antihol, div, trace_grad)


# ---------------------------------------------------------------------------
# norms and pairings


def metric_pairing(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sesquilinear pairing of (1,1) coefficient matrices.

    Equals ``tr(G^-1 A G^-1 B^H)``; for the metric itself the pairing is 2,
    matching ``omega ^ omega = 2 det g dx^4``.
    """
    gup = inverse_metric(g)
    return np.einsum(
        "...ik,...lj,...ij,...kl->...", gup, gup, a, np.conj(b), optimize=True
    )


def grad_torsion_norms(jet: HermitianJet) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms of the (1,0)- and (0,1)-type covariant torsion derivatives.

    Each slot of ``T`` and its conjugate is contracted with ``gup``: a
    holomorphic slot pairs as ``g^{a a'}``, an antiholomorphic one as
    ``g^{a' a}``.
    """
    cov = covariant_torsion_ops(jet)
    gup = inverse_metric(jet.g)
    n10 = np.einsum(
        "...ax,...ib,...jc,...dk,...aijk,...xbcd->...",
        gup, gup, gup, gup, cov.grad_hol, np.conj(cov.grad_hol), optimize=True,
    ).real
    n01 = np.einsum(
        "...xa,...ib,...jc,...dk,...aijk,...xbcd->...",
        gup, gup, gup, gup, cov.grad_antihol, np.conj(cov.grad_antihol), optimize=True,
    ).real
    return n10, n01


def curvature_norm(jet: HermitianJet) -> np.ndarray:
    """Pointwise norm |Omega|_g of the full Chern curvature."""
    curv, _, _, _ = chern_curvature(jet)
    gup = inverse_metric(jet.g)
    sq = np.einsum(
        "...ia,...bj,...kc,...dl,...ijkl,...abcd->...",
        gup, gup, gup, gup, curv, np.conj(curv), optimize=True,
    )
    return np.sqrt(np.maximum(sq.real, 0.0))


def torsion_norm(jet: HermitianJet) -> np.ndarray:
    """Pointwise norm |T|_g."""
    _, _, tnorm_sq = torsion_quadratics(jet)
    return np.sqrt(np.maximum(tnorm_sq, 0.0))


# ---------------------------------------------------------------------------
# identity suite


def _rel(num: np.ndarray, *scales: np.ndarray) -> np.ndarray:
    floor = np.asarray(1.0)
    for s in scales:
        floor = np.maximum(floor, np.asarray(s, dtype=float))
    return np.asarray(num, dtype=float) / floor


def identity_suite(
    jet: HermitianJet, pluriclosed: bool = False, pluriclosed_tol: float = 1e-8
) -> dict[str, np.ndarray]:
    """Relative residuals of the pointwise tensor identities of the theory.

    Each residual is normalised by the larger of 1 and the participating
    term magnitudes.  When ``pluriclosed`` is set, the residuals that only
    hold on pluriclosed jets are included; the flag is rejected if the
    pluriclosed defect exceeds ``pluriclosed_tol``.

    Returns a dict mapping identity names to batch-shaped arrays.
    """
    if pluriclosed:
        bmax = pluriclosed_residual(jet)
        if bmax.max() > pluriclosed_tol:
            raise ValueError(
                "pluriclosed flag set but residual "
                f"{bmax.max():.3e} exceeds tolerance {pluriclosed_tol:.1e}"
            )
    g = jet.g
    gup = inverse_metric(g)
    t, w = torsion(jet)
    tb = np.conj(t)
    gam = chern_connection(jet)
    curv, ric1, ric2, scal = chern_curvature(jet)
    quad1, quad2, tnorm_sq = torsion_quadratics(jet)
    hodge = hodge_operators(jet)
    cov = covariant_torsion_ops(jet)

    out: dict[str, np.ndarray] = {}

    # connection antisymmetrisation reproduces the torsion
    lhs = gam - gam.swapaxes(-2, -1) - np.einsum("...kl,...ijl->...kij", gup, t)
    out["connection_torsion"] = _rel(_amax(lhs, 3), _amax(gam, 3))

    # codifferential vs torsion trace
    lhs = hodge.del_star + 0.5j * np.conj(w)
    out["codiff_torsion_trace"] = _rel(_amax(lhs, 1), _amax(w, 1))

    # surface torsion algebra
    out["quad_proportionality"] = _rel(
        _amax(quad1 - 0.5 * tnorm_sq[..., None, None] * g, 2), _amax(quad1, 2)
    )
    cross = metric_pairing(g, quad2, quad1) - 0.5 * tnorm_sq**2
    out["quad_cross_trace"] = _rel(np.abs(cross), 0.5 * tnorm_sq**2)
    norm = metric_pairing(g, quad1, quad1) - 0.5 * tnorm_sq**2
    out["quad_norm"] = _rel(np.abs(norm), 0.5 * tnorm_sq**2)

    # first Bianchi identity, all index combinations
    rb = (
        np.einsum("...srqk->...rqks", cov.grad_antihol)
        - np.einsum("...qsrk->...rqks", curv)
        + np.einsum("...rsqk->...rqks", curv)
    )
    out["bianchi_first"] = _rel(_amax(rb, 4), _amax(curv, 4), _amax(cov.grad_antihol, 4))

    # gradient of the proportional quadratic vs <grad |T|^2, w>
    dgup_h = -np.einsum("...pb,...cq,...acb->...apq", gup, gup, jet.d1, optimize=True)
    dth = jet.d2h - jet.d2h.swapaxes(-3, -2)
    dtb_h = np.conj(
        np.einsum("...jalm->...ajlm", jet.d2m) - np.einsum("...lajm->...ajlm", jet.d2m)
    )
    dquad1 = (
        np.einsum("...akl,...mn,...ikn,...jlm->...aij", dgup_h, gup, t, tb, optimize=True)
        + np.einsum("...kl,...amn,...ikn,...jlm->...aij", gup, dgup_h, t, tb, optimize=True)
        + np.einsum("...kl,...mn,...aikn,...jlm->...aij", gup, gup, dth, tb, optimize=True)
        + np.einsum("...kl,...mn,...ikn,...ajlm->...aij", gup, gup, t, dtb_h, optimize=True)
    )
    nquad1 = dquad1 - np.einsum("...paj,...pk->...ajk", gam, quad1)
    asym = nquad1 - np.einsum("...jak->...ajk", nquad1)
    lhs46 = np.einsum(
        "...im,...jn,...pk,...ijk,...mnp->...", gup, gup, gup, asym, tb, optimize=True
    )
    dt2 = np.einsum("...apq,...pq->...a", dgup_h, quad1) + np.einsum(
        "...pq,...apq->...a", gup, dquad1
    )
    rhs46 = np.einsum("...ij,...i,...j->...", gup, dt2, np.conj(w), optimize=True)
    out["quad_gradient_trace"] = _rel(np.abs(lhs46 - rhs46), np.abs(lhs46), np.abs(rhs46))

    # contracted Bianchi forms
    x47 = (
        np.einsum("...srqk->...rqks", cov.grad_antihol)
        - np.einsum("...qsrk->...rqks", curv)
    )
    lhs47 = np.einsum(
        "...im,...jn,...pk,...rs,...qt,...jit,...rqks,...mnp->...",
        gup, gup, gup, gup, gup, t, x47, tb, optimize=True,
    )
    rhs47 = metric_pairing(g, ric1, quad2)
    out["bianchi_torsion_curvature"] = _rel(
        np.abs(lhs47 - rhs47), np.abs(lhs47), np.abs(rhs47)
    )

    y48 = (
        np.einsum("...srjt->...rjts", cov.grad_antihol)
        - np.einsum("...jsrt->...rjts", curv)
    )
    t48a = np.einsum(
        "...im,...jn,...pk,...rs,...qt,...rjts,...iqk,...mnp->...",
        gup, gup, gup, gup, gup, y48, t, tb, optimize=True,
    )
    t48b = np.einsum(
        "...im,...jn,...pk,...rs,...qt,...rits,...jqk,...mnp->...",
        gup, gup, gup, gup, gup, y48, t, tb, optimize=True,
    )
    out["bianchi_scalar_contraction"] = _rel(
        np.abs((t48a - t48b) + scal * tnorm_sq), np.abs(scal * tnorm_sq), np.abs(t48a - t48b)
    )

    z49 = (
        np.einsum("...sjqk->...jqks", cov.grad_antihol)
        + np.einsum("...jsqk->...jqks", curv)
    )
    u49a = np.einsum(
        "...im,...jn,...pk,...rs,...qt,...irt,...jqks,...mnp->...",
        gup, gup, gup, gup, gup, t, z49, tb, optimize=True,
    )
    u49b = np.einsum(
        "...im,...jn,...pk,...rs,...qt,...jrt,...iqks,...mnp->...",
        gup, gup, gup, gup, gup, t, z49, tb, optimize=True,
    )
    div_conj = np.conj(cov.divergence).swapaxes(-1, -2)
    rhs49 = metric_pairing(g, quad2, ric1 + div_conj)
    out["bianchi_divergence_pairing"] = _rel(
        np.abs((u49a - u49b) - rhs49), np.abs(u49a - u49b), np.abs(rhs49)
    )

    if pluriclosed:
        lhs = cov.trace_grad + cov.divergence + quad1
        out["torsion_trace_identity"] = _rel(
            _amax(lhs, 2), _amax(cov.trace_grad, 2), _amax(cov.divergence, 2), _amax(quad1, 2)
        )
        nwdag = np.conj(cov.trace_grad).swapaxes(-1, -2)
        lhs = ric2 - ric1 + cov.trace_grad + nwdag + quad1
        out["ricci_trace_relation"] = _rel(
            _amax(lhs, 2), _amax(ric1, 2), _amax(ric2, 2), _amax(quad1, 2)
        )
        lhs = hodge.static_op - (ric1 - quad1)
        out["flow_form_equivalence"] = _rel(
            _amax(lhs, 2), _amax(hodge.static_op, 2), _amax(ric1 - quad1, 2)
        )
    return out


# ---------------------------------------------------------------------------
# random jets


def random_jet(seed: int, pluriclosed: bool = False) -> HermitianJet:
    """Deterministic random jet: ``g = A A^H + I`` with |A entries| <= 1,
    derivative components uniform in [-1, 1] per real part, symmetry and
    reality constraints enforced.  With ``pluriclosed`` the mixed second
    derivative ``d2m[1, 1, 0, 0]`` is solved so the pluriclosed defect
    vanishes.  The batch of one of :func:`random_jet_batch`."""
    jet = random_jet_batch([seed], pluriclosed)
    return HermitianJet(g=jet.g[0], d1=jet.d1[0], d2m=jet.d2m[0], d2h=jet.d2h[0])


# per seed, one draw of uniform doubles in [-1, 1], in this order: the real,
# then the imaginary parts of A (2x2), d1 (2x2x2), d2h and d2m (2x2x2x2 each)
_JET_DRAW = (4, 4, 8, 8, 16, 16, 16, 16)


def random_jet_batch(seeds, pluriclosed: bool = False) -> HermitianJet:
    """:func:`random_jet` for each seed, along a leading batch axis.

    Each seed's generator makes one draw; the jets are then assembled for
    the whole batch at once.
    """
    draw = np.stack([np.random.default_rng(int(s)).uniform(-1, 1, sum(_JET_DRAW)) for s in seeds])
    n = draw.shape[0]
    re_a, im_a, re_d1, im_d1, re_h, im_h, re_m, im_m = np.split(
        draw, np.cumsum(_JET_DRAW)[:-1], axis=1
    )
    a = (re_a + 1j * im_a).reshape(n, 2, 2) / np.sqrt(2)
    g = a @ np.conj(a.swapaxes(-1, -2)) + np.eye(2)
    d1 = (re_d1 + 1j * im_d1).reshape(n, 2, 2, 2)
    d2h = (re_h + 1j * im_h).reshape(n, 2, 2, 2, 2)
    d2h = (d2h + d2h.swapaxes(1, 2)) / 2
    d2m = (re_m + 1j * im_m).reshape(n, 2, 2, 2, 2)
    # C order, as the kernels' reductions depend on the memory layout in the last bits
    d2m = np.ascontiguousarray((d2m + np.conj(d2m.transpose(0, 2, 1, 4, 3))) / 2)
    if pluriclosed:
        d2m[:, 1, 1, 0, 0] = (-d2m[:, 0, 0, 1, 1] + d2m[:, 1, 0, 0, 1] + d2m[:, 0, 1, 1, 0]).real
    return HermitianJet(g=g, d1=d1, d2m=d2m, d2h=d2h)
