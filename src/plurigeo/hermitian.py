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

import functools
import math
import string
from dataclasses import dataclass

import numpy as np

from . import _threads

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
    "pluriclosed_residual",
    "SurfaceJet",
    "SurfaceFlow",
    "surface_flow",
    "surface_hodge",
    "covariant_torsion_ops",
    "metric_pairing",
    "hermitian_norm_sq",
    "grad_torsion_norms",
    "curvature_norm",
    "identity_suite",
    "random_jet_batch",
]


class SingularMetricError(ValueError):
    """Raised when a metric matrix is not invertible."""


def _amax(x: np.ndarray, rank: int) -> np.ndarray:
    """Max absolute value over the trailing `rank` tensor axes (batched)."""
    a = np.abs(np.asarray(x))
    return a.reshape(a.shape[: a.ndim - rank] + (-1,)).max(axis=-1)


@functools.lru_cache(maxsize=None)
def _contraction_plan(subscripts: str, shapes: tuple, batched: tuple) -> tuple:
    """Pairwise steps ``(positions, einsum string)`` of one contraction.

    The greedy path of the tensor indices is found once by
    :func:`numpy.einsum_path` and does not depend on the batch size; one
    letter unused by ``subscripts`` is appended to every batched term and to
    the output.  Intermediates keep their indices in sorted order, as numpy's
    own path does."""
    lhs, out = subscripts.replace("...", "").split("->")
    cores = lhs.split(",")
    path = np.einsum_path(lhs + "->" + out, *(np.empty(s) for s in shapes), optimize="greedy")[0]
    letter = next(c for c in string.ascii_letters if c not in subscripts)
    tail = letter if any(batched) else ""
    terms = [c + letter if b else c for c, b in zip(cores, batched)]
    steps = []
    for n, positions in enumerate(path[1:], start=2):
        positions = tuple(sorted(positions, reverse=True))
        picked = [terms.pop(p) for p in positions]
        if n == len(path):
            result = out + tail
        else:
            keep = set("".join(terms) + out)
            result = "".join(sorted({c for t in picked for c in t if c in keep} - {letter}))
            result += letter if any(letter in t for t in picked) else ""
        terms.append(result)
        steps.append((positions, ",".join(picked) + "->" + result))
    return tuple(steps)


def _contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` with the batch axes trailing.

    Every term of ``subscripts`` leads with ``...``, and the leading axes of
    each operand broadcast to one batch shape.  Each distinct operand is
    copied once into a contiguous array with its batch axes flattened to the
    last axis, so every pairwise step of the cached greedy path
    (:func:`_contraction_plan`) is a plain einsum whose inner loop runs along
    the batch; numpy's ``optimize`` would instead search the path on every
    call and multiply one 2x2 block per batch item.  The copies make the
    result independent of the operands' memory layout.  Agrees with
    ``np.einsum`` to rounding (the sums are taken in another order); the
    result is batch-leading.
    """
    cores = [t.removeprefix("...") for t in subscripts.split("->")[0].split(",")]
    batch = np.broadcast_shapes(*(x.shape[: x.ndim - len(c)] for x, c in zip(operands, cores)))
    size = math.prod(batch)
    copies: dict[int, np.ndarray] = {}
    args = []
    for x, c in zip(operands, cores):
        if id(x) not in copies:
            y, nb = x, x.ndim - len(c)
            if nb:
                if y.shape[:nb] != batch:
                    y, nb = np.broadcast_to(y, batch + y.shape[nb:]), len(batch)
                y = np.ascontiguousarray(y.transpose(tuple(range(nb, y.ndim)) + tuple(range(nb))))
                y = y.reshape(y.shape[: len(c)] + (size,))
            copies[id(x)] = y
        args.append(copies[id(x)])
    del copies  # each copy is freed once its last step has read it
    steps = _contraction_plan(
        subscripts,
        tuple(x.shape[: len(c)] for x, c in zip(args, cores)),
        tuple(x.ndim > len(c) for x, c in zip(args, cores)),
    )
    for positions, expr in steps:
        picked = [args.pop(p) for p in positions]
        args.append(np.einsum(expr, *picked))
    res = args[0]
    if not batch:
        return res
    nc = res.ndim - 1
    res = res.reshape(res.shape[:nc] + batch)
    return res.transpose(tuple(range(nc, res.ndim)) + tuple(range(nc)))


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


def _real_det(g: np.ndarray) -> np.ndarray:
    """``det g`` of each 2x2 block, taken real: the complex products leave a
    rounding-size imaginary part, and dividing by it would make the
    inverse of an exactly Hermitian ``g`` not exactly Hermitian."""
    return (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]).real


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse metric ``gup[..., i, j] = g^{i jbar}`` with ``g^{i jbar} g_{k jbar} = delta_ik``.

    ``det g`` is taken real (:func:`_real_det`), so the inverse of an
    exactly Hermitian ``g`` is exactly Hermitian."""
    det = _real_det(g)
    if not np.isfinite(det).all() or np.abs(det).min() < 1e-300:
        raise SingularMetricError("metric not invertible")
    gup = np.empty_like(g)
    # written in place: the surface kernel calls this at every RK4 stage
    np.divide(g[..., 1, 1], det, out=gup[..., 0, 0])
    np.divide(g[..., 0, 0], det, out=gup[..., 1, 1])
    np.divide(np.negative(g[..., 1, 0], out=gup[..., 0, 1]), det, out=gup[..., 0, 1])
    np.divide(np.negative(g[..., 0, 1], out=gup[..., 1, 0]), det, out=gup[..., 1, 0])
    return gup


def _d1bar(jet: HermitianJet) -> np.ndarray:
    # d1b[..., k, i, j] = del_{zbar^k} g_{i jbar}
    return np.conj(jet.d1.swapaxes(-1, -2))


def chern_connection(jet: HermitianJet) -> np.ndarray:
    """Connection coefficients ``gam[..., k, i, j] = Gamma^k_{ij} = g^{k lbar} del_i g_{j lbar}``."""
    gup = inverse_metric(jet.g)
    return _contract("...kl,...ijl->...kij", gup, jet.d1)


def torsion(jet: HermitianJet) -> tuple[np.ndarray, np.ndarray]:
    """Torsion ``T[..., i, j, k] = T_{i j kbar}`` and its trace ``w[..., i] = g^{j kbar} T_{i j kbar}``."""
    t = jet.d1 - jet.d1.swapaxes(-3, -2)
    gup = inverse_metric(jet.g)
    w = _contract("...jk,...ijk->...i", gup, t)
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
    curv = -jet.d2m + _contract(
        "...mn,...ikn,...jlm->...ijkl", gup, jet.d1, np.conj(jet.d1)
    )
    ric1 = _contract("...ij,...ijkl->...kl", gup, curv)
    ric2 = _contract("...kl,...ijkl->...ij", gup, curv)
    scal = _contract("...kl,...kl->...", gup, ric1).real
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
    quad1 = _contract("...kl,...mn,...ikn,...jlm->...ij", gup, gup, t, tb)
    quad2 = _contract("...kl,...mn,...lni,...kmj->...ij", gup, gup, tb, t)
    tnorm_sq = _contract("...ij,...ij->...", gup, quad1).real
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
    standardised through ``|w|^2``.  ``del_star`` and ``dbar_dbar_star``
    are derived when read.
    """

    dbar_star: np.ndarray       # (dbar* omega)_j
    del_del_star: np.ndarray    # (del del* omega) coefficient matrix
    chern_ricci: np.ndarray     # ((i/2) del dbar log det g) coefficient matrix
    static_op: np.ndarray       # -(del del* + dbar dbar*) - chern_ricci, exactly Hermitian

    @property
    def del_star(self) -> np.ndarray:
        """``(del* omega)_{kbar}``, the conjugate of ``dbar_star``."""
        return np.conj(self.dbar_star)

    @property
    def dbar_dbar_star(self) -> np.ndarray:
        """``(dbar dbar* omega)`` coefficient matrix, ``del_del_star^H``."""
        return np.conj(self.del_del_star.swapaxes(-1, -2))


def hodge_operators(jet: HermitianJet) -> HodgeOperators:
    """All pointwise Hodge-type blocks of the metric jet.

    Each shared contraction is computed once.  With the traces
    ``a1_j = g^{p qbar} del_j g_{p qbar}`` and ``a2_j = g^{p qbar} del_p g_{j qbar}``,
    ``tr_{jk} = g^{p qbar} d2m[j, k, p, q]``,
    ``b[j, q, p] = g^{n qbar} g^{p mbar} del_j g_{n mbar}`` and its contractions
    ``P_{jk} = b[j, q, p] d1b[q, p, k]``, ``Q_{jk} = b[j, q, p] d1b[k, p, q]``
    (``d1b[k, i, j] = del_{kbar} g_{i jbar}``):

    - ``dbar_star = (i/2)(a1 - a2)``, ``del_star`` its conjugate;
    - ``del_del_star = g^{p qbar} d2m[j, q, p, k] - tr - P + Q``;
    - ``dbar_dbar_star = del_del_star^H``, which is
      ``g^{p qbar} d2m[p, k, j, q] - tr - P^H + Q^H`` by the reality of ``d2m``;
    - ``chern_ricci = tr - Q``;
    - ``static_op = -(H + H^H)`` with ``H = del_del_star + chern_ricci / 2``,
      so it is exactly Hermitian.
    """
    gup = inverse_metric(jet.g)
    d1, d2m = jet.d1, jet.d2m
    d1b = _d1bar(jet)
    a1 = _contract("...pq,...jpq->...j", gup, d1)
    a2 = _contract("...pq,...pjq->...j", gup, d1)
    trace = _contract("...pq,...jkpq->...jk", gup, d2m)
    b = _contract("...nq,...jnm->...jqm", gup, d1)
    b = _contract("...pm,...jqm->...jqp", gup, b)
    p = _contract("...jqp,...qpk->...jk", b, d1b)
    q = _contract("...jqp,...kpq->...jk", b, d1b)
    dds = _contract("...pq,...jqpk->...jk", gup, d2m) - trace - p + q
    ricci = trace - q
    h = dds + 0.5 * ricci
    return HodgeOperators(
        dbar_star=0.5j * (a1 - a2),
        del_del_star=dds,
        chern_ricci=ricci,
        static_op=-(h + np.conj(h.swapaxes(-1, -2))),
    )


def gflow_rhs(jet: HermitianJet) -> np.ndarray:
    """Metric flow velocity ``-ric1 + quad1`` (Hermitian)."""
    _, ric1, _, _ = chern_curvature(jet)
    quad1, _, _ = torsion_quadratics(jet)
    return -ric1 + quad1


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

    def pluriclosed_residual(self) -> np.ndarray:
        """:func:`pluriclosed_residual` from the rows of ``d2m``, with the
        ``(1, 0)`` row read by reality."""
        r = self.d2m
        return np.abs(r[1, 0, 0] + r[0, 1, 1] - 2.0 * r[2, 1, 0].real)


@dataclass(frozen=True)
class SurfaceFlow:
    """Flow velocity and the pointwise scalars of the diagnostics; a scalar
    the caller did not name is None (:func:`surface_flow`)."""

    rhs: np.ndarray                   # -ric1 + quad1, (..., 2, 2), Hermitian by construction
    det: np.ndarray                   # det g, taken real (_real_det)
    w_sq: np.ndarray                  # |w|^2 = g^{i jbar} w_i conj(w_j) = |T|^2 / 2
    scal: np.ndarray | None           # Chern scalar curvature g^{k lbar} ric1_{k lbar}
    tnorm_sq: np.ndarray | None       # |T|^2
    pluriclosed: np.ndarray | None    # as pluriclosed_residual
    curv_sq: np.ndarray | None        # |Omega|^2


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def surface_flow(
    jet: SurfaceJet, outputs: tuple = ("scal", "tnorm_sq", "pluriclosed", "curv_sq")
) -> SurfaceFlow:
    """Closed-form ``gflow`` velocity and diagnostics scalars on a surface.

    Every call forms the velocity and ``det g`` and ``|w|^2``, which the
    velocity needs; of the scalars ``scal``, ``tnorm_sq``, ``pluriclosed``
    and ``curv_sq`` (``|Omega|^2``) it forms only those named in
    ``outputs``, and the others are None.  A diagnostics record names all
    four, an RK4 stage of the flow only those its variant reads, the
    degree ``scal``.  Each output has one formula, whoever asks for it, so
    it has the same bits either way.

    The metric is read once into contiguous arrays, ``a = g_{1 1bar}`` and
    ``d = g_{2 2bar}`` real and ``b = g_{1 2bar}`` complex, and ``g^{-1}``
    (with the singularity check) comes from :func:`inverse_metric` as its
    real diagonal and ``g^{1 2bar}``; ``g^{2 1bar}`` is read as the
    conjugate of ``g^{1 2bar}``, which it is exactly on exactly Hermitian
    ``g``.  Component by component, with the torsion reduced to its two
    components ``tau_k = T_{1 2 kbar}``:

    - ``|T|^2 = (2 / det g) g^{m nbar} tau_n conj(tau_m)``, ``|w|^2 = |T|^2 / 2``
      and ``quad1 = (1/2) |T|^2 g`` (the surface torsion algebra);
    - ``-ric1_{k lbar} = g^{i jbar} del_i del_jbar g_{k lbar}
      - g^{i jbar} g^{m nbar} del_i g_{k nbar} conj(del_j g_{l mbar})``,
      the quadratic term as a weighted sum of squares in the Cholesky frame
      ``g^{-1} = L diag(g^{1 1bar}, 1 / g_{2 2bar}) L^H``,
      ``L = [[1, 0], [mu, 1]]``, ``mu = -g_{2 1bar} / g_{2 2bar}``;
    - ``|Omega|^2`` in the same frame, summed over the inner entries
      ``(0, 0)``, ``(1, 1)``, ``(0, 1)`` (:func:`_inner_term`).

    On grids of at least ``_threads.SPLIT_NODES`` nodes, with two threads
    allowed (``PLURIGEO_THREADS``), the work is split by kind, not by
    slab, between the calling thread and the worker thread of
    :mod:`plurigeo._threads`.  The worker takes the frame, which needs no
    ``g^{-1}``: ``mu``, ``del g`` in it and, when asked, the pluriclosed
    residual (:func:`_frame`).  Once the caller has ``g^{-1}``, it takes the
    weights and the quadratic term (:func:`_quadratic`) and, for
    ``curv_sq``, the frame of ``|Omega|^2`` (:func:`_unit_frame`) and the
    terms of its inner entries ``(0, 0)`` and ``(1, 1)``.  The calling
    thread takes :func:`inverse_metric`, ``det g``, ``|w|^2`` and the
    traces while the worker runs, then forms the velocity, ``scal`` and
    the term of ``(0, 1)``, and sums ``|Omega|^2`` in the order above.
    Below the threshold the calling thread runs every part when it is
    handed over.  Each part computes its expressions on the whole grid
    with their operands, order and temporaries unchanged: numpy computes
    ``x * f(y)`` of arrays of 256 KiB and more in place as ``f(y) *= x``,
    and its complex multiply does not commute bitwise, so an operand that
    stopped being a temporary would move bits.  So every output, and every
    exception, is the same for every thread count
    (``tests/test_surface_split.py`` pins the bytes against the kernel
    before the split).  The frame reads ``g`` before :func:`inverse_metric`
    checks it, so a node where ``g_{2 2bar}`` and ``g_{1 2bar}`` are 0
    meets numpy's invalid-value handling in ``mu`` before the
    :class:`SingularMetricError`.

    Agrees with :func:`gflow_rhs`, :func:`chern_curvature`,
    :func:`torsion_quadratics`, :func:`torsion` and :func:`curvature_norm`
    (squared) on jets that satisfy the reality of ``d2m``: within 1e-13
    relative (floor 1) for well-conditioned ``g``, and within ``1e-14 *
    kappa(g)`` for condition numbers up to 1e6, where the einsum oracles
    themselves lose digits (``tests/test_surface_kernel.py``).
    """
    g, d1, r = jet.g, jet.d1, jet.d2m
    curvature = "curv_sq" in outputs
    with _threads.split(np.size(g) // 4) as split:
        frame = split.run(_frame, jet, "pluriclosed" in outputs)
        gup = inverse_metric(g)
        # contiguous copies: strided views of the (..., 2, 2) arrays slow every
        # operation that reads them
        G00, G11, G01 = gup[..., 0, 0].real.copy(), gup[..., 1, 1].real.copy(), gup[..., 0, 1].copy()
        quadratic = split.run(_quadratic, G00, frame, split.threaded)
        if curvature:
            unit = split.run(_unit_frame, quadratic, frame, split.threaded)
            term0 = split.run(_inner_term, 0, quadratic, frame, unit, r)
            term1 = split.run(_inner_term, 1, quadratic, frame, unit, r)
        a = g[..., 0, 0].real.copy()
        det = _real_det(g)

        tau0 = d1[0, 1, 0] - d1[1, 0, 0]
        tau1 = d1[0, 1, 1] - d1[1, 0, 1]
        w_sq = (G00 * _abs2(tau0) + G11 * _abs2(tau1) + 2.0 * (G01 * tau1 * np.conj(tau0)).real) / det

        # -ric1 = g^{i jbar} d2m[i, j] - quad; its diagonal is real
        n00 = G00 * r[0, 0, 0].real + G11 * r[1, 0, 0].real + 2.0 * (G01 * r[2, 0, 0]).real
        n11 = G00 * r[0, 1, 1].real + G11 * r[1, 1, 1].real + 2.0 * (G01 * r[2, 1, 1]).real
        n01 = G00 * r[0, 0, 1] + G11 * r[1, 0, 1] + G01 * r[2, 0, 1] + np.conj(G01 * r[2, 1, 0])
        lsq, _, quad = split.get(quadratic)
        n00 -= quad[0]
        n11 -= quad[1]
        n01 -= quad[2]
        frame = split.get(frame)
        d, b, pluriclosed = frame["d"], frame["b"], frame["pluriclosed"]
        rhs = np.empty(np.shape(g), dtype=complex)
        rhs[..., 0, 0] = n00 + w_sq * a
        rhs[..., 1, 1] = n11 + w_sq * d
        rhs[..., 0, 1] = v01 = n01 + w_sq * b
        np.conj(v01, out=rhs[..., 1, 0])
        scal = -(G00 * n00 + G11 * n11 + 2.0 * (G01 * n01).real) if "scal" in outputs else None
        curv_sq = None
        if curvature:
            # |Omega|^2 summed over the inner entries (0, 0), (1, 1), (0, 1) in this order
            curv_sq = np.zeros_like(lsq[1])
            quadratic, unit = split.get(quadratic), split.get(unit)
            term2 = _inner_term(2, quadratic, frame, unit, r)
            curv_sq += split.get(term0)
            curv_sq += split.get(term1)
            curv_sq += term2
    return SurfaceFlow(
        rhs=rhs,
        det=det,
        w_sq=w_sq,
        scal=scal,
        tnorm_sq=2.0 * w_sq if "tnorm_sq" in outputs else None,
        pluriclosed=pluriclosed,
        curv_sq=curv_sq,
    )


def surface_hodge(jet: SurfaceJet) -> HodgeOperators:
    """Closed-form :func:`hodge_operators` on a surface jet.

    The metric is read once into contiguous arrays: ``g^{-1}``, with the
    singularity check, comes from :func:`inverse_metric` in the calling
    thread, before anything else, as its real diagonal ``G00``, ``G11`` and
    ``G01``; ``G10`` is read as ``conj(G01)``, and the ``(k, l) = (1, 0)``
    row of ``d2m`` from its reality.  With the torsion components ``tau_k =
    T_{1 2 kbar}`` and ``v = g^{-1} tau``:

    - ``dbar_star = (i/2)(v_1, -v_0)`` and ``del_star`` its conjugate;
    - ``del_del_star_{j0} = sum_p G_{p1} F_j[p]`` and ``del_del_star_{j1} =
      -sum_p G_{p0} F_j[p]`` with ``F_j[p] = d2m[j, 1, p, 0] - d2m[j, 0, p, 1]
      + sum_m del_j g_{p mbar} conj(v_m)``: in ``hodge_operators``'s
      ``g^{p qbar} d2m[j, q, p, k] - tr - P + Q`` the terms with ``q = k`` cancel,
      and ``P - Q`` contracts ``b`` with the torsion, ``b[j] conj(tau) =
      g^{-T} del_j g conj(v)``;
    - ``chern_ricci = tr - Q``, with ``Q_{jk}`` the pairing of ``del_j g`` with
      ``del_k g`` as the weighted products of :func:`_quadratic` in the
      Cholesky frame of :func:`surface_flow`, ``(L^H del_j g L)[p, q]``;
    - ``static_op = -(H + H^H)``, ``H = del_del_star + chern_ricci / 2``, entry
      by entry, so it is exactly Hermitian.

    No ``np.einsum``.  Agrees with :func:`hodge_operators` within 1e-13
    relative (floor 1) on well-conditioned jets, and within ``32 * kappa *
    eps`` of the size of the terms on metrics of condition number kappa
    up to 1e6 (``tests/test_surface_kernel.py``).
    """
    g, d1, r = jet.g, jet.d1, jet.d2m
    gup = inverse_metric(g)
    # contiguous copies: strided views of the (..., 2, 2) arrays slow every
    # operation that reads them
    G00, G11, G01 = gup[..., 0, 0].real.copy(), gup[..., 1, 1].real.copy(), gup[..., 0, 1].copy()
    # each intermediate is dropped once read, so the next ones reuse its
    # pages: 3.3 instead of 4.6 ms a call at 16x8x16x8 on a 2-vCPU x86_64 VM,
    # the difference mostly page faults
    del gup
    G10 = np.conj(G01)
    d, mu, y = _cholesky(jet)
    muc = np.conj(mu)

    # Q_{jk} as _quadratic's products of Y[p][j][q] = (L^H del_j g L)[p, q],
    # with (del_j g L)[k, q] = y[j][k][q]
    Y = ([[y[j][0][q] + muc * y[j][1][q] for q in (0, 1)] for j in (0, 1)], [y[j][1] for j in (0, 1)])
    _, _, q = _quadratic(G00, {"Y": Y, "d": d}, False)
    del Y, y

    shape = np.shape(g)
    ricci = np.empty(shape, dtype=complex)
    ricci[..., 0, 0] = G00 * r[0, 0, 0].real + G11 * r[0, 1, 1].real + 2.0 * (G01 * r[0, 0, 1]).real - q[0]
    ricci[..., 1, 1] = G00 * r[1, 0, 0].real + G11 * r[1, 1, 1].real + 2.0 * (G01 * r[1, 0, 1]).real - q[1]
    ricci[..., 0, 1] = r01 = G00 * r[2, 0, 0] + G11 * r[2, 1, 1] + G01 * r[2, 0, 1] + G10 * r[2, 1, 0] - q[2]
    np.conj(r01, out=ricci[..., 1, 0])
    del q, r01

    tau0 = d1[0, 1, 0] - d1[1, 0, 0]
    tau1 = d1[0, 1, 1] - d1[1, 0, 1]
    v0 = G00 * tau0 + G01 * tau1
    v1 = G10 * tau0 + G11 * tau1
    del tau0, tau1
    dbar_star = np.empty(shape[:-1], dtype=complex)
    np.multiply(0.5j, v1, out=dbar_star[..., 0])
    np.multiply(-0.5j, v0, out=dbar_star[..., 1])
    cv0, cv1 = np.conj(v0), np.conj(v1)
    del v0, v1

    dds = np.empty(shape, dtype=complex)
    # d2m[j, 1, p, 0] - d2m[j, 0, p, 1] for j = 0, 1
    rows = ((r[2, 0, 0] - r[0, 0, 1], r[2, 1, 0] - r[0, 1, 1]),
            (r[1, 0, 0] - np.conj(r[2, 1, 0]), r[1, 1, 0] - np.conj(r[2, 1, 1])))
    for j in (0, 1):
        f0 = rows[j][0] + (d1[j, 0, 0] * cv0 + d1[j, 0, 1] * cv1)
        f1 = rows[j][1] + (d1[j, 1, 0] * cv0 + d1[j, 1, 1] * cv1)
        dds[..., j, 0] = G01 * f0 + G11 * f1
        dds[..., j, 1] = -(G00 * f0 + G10 * f1)
    del rows, f0, f1

    static_op = np.empty(shape, dtype=complex)
    h00 = dds[..., 0, 0] + 0.5 * ricci[..., 0, 0]
    h11 = dds[..., 1, 1] + 0.5 * ricci[..., 1, 1]
    h01 = dds[..., 0, 1] + 0.5 * ricci[..., 0, 1]
    h10 = dds[..., 1, 0] + 0.5 * ricci[..., 1, 0]
    static_op[..., 0, 0] = -(h00 + np.conj(h00))
    static_op[..., 1, 1] = -(h11 + np.conj(h11))
    static_op[..., 0, 1] = s01 = -(h01 + np.conj(h10))
    np.conj(s01, out=static_op[..., 1, 0])
    return HodgeOperators(
        dbar_star=dbar_star,
        del_del_star=dds,
        chern_ricci=ricci,
        static_op=static_op,
    )


def _cholesky(jet: SurfaceJet) -> tuple:
    """The first stage of :func:`_frame`, which :func:`surface_hodge` shares:
    the contiguous ``d = g_{2 2bar}``, ``mu`` and ``y``."""
    g, d1 = jet.g, jet.d1
    d = g[..., 1, 1].real.copy()
    mu = np.conj(g[..., 0, 1]) / -d
    y = [[(d1[i, k, 0] + mu * d1[i, k, 1], d1[i, k, 1]) for k in (0, 1)] for i in (0, 1)]
    return d, mu, y


def _frame(jet: SurfaceJet, pluriclosed: bool) -> dict:
    """The parts of :func:`surface_flow` that read no ``g^{-1}``: the
    contiguous ``d = g_{2 2bar}`` and ``b = g_{1 2bar}``, ``mu``, ``y`` and
    ``Y`` below, and, if asked, the pluriclosed residual (else None).  In
    the worker thread, the parts after it pop the arrays they read last:
    the thread's malloc arena keeps its high-water mark, so they would add
    to the peak RSS through every record.  In the calling
    thread the arrays stay to the end of the call, as dropping them early
    lets glibc return the top of the heap to the OS and the next stencil
    pass fault it back in (10k instead of 3.3k minor faults in a two-step
    16x8x16x8 run with a record per step on one thread).

    In the Cholesky frame ``g^{-1} = L diag(lsq) L^H``, ``L = [[1, 0], [mu, 1]]``,
    of the quadratic term and of ``|Omega|^2``, ``y[i][k][q] = sum_n L[n, q]
    del_i g_{k nbar}`` and ``Y[p][k][q] = sum_i conj(L[i, p]) y[i][k][q]``."""
    d, mu, y = _cholesky(jet)
    b = jet.g[..., 0, 1].copy()
    muc = np.conj(mu)
    Y = ([[y[0][k][q] + muc * y[1][k][q] for q in (0, 1)] for k in (0, 1)], y[1])
    residual = jet.pluriclosed_residual() if pluriclosed else None
    return {"d": d, "b": b, "mu": mu, "y": y, "Y": Y, "pluriclosed": residual}


def _quadratic(G00: np.ndarray, frame: dict, release: bool) -> tuple:
    """``lsq``, the weights ``(lsq[0]^2, lsq[0] lsq[1], lsq[1]^2)`` and the
    quadratic term ``g^{i jbar} g^{m nbar} del_i g_{k nbar} conj(del_j
    g_{l mbar})`` of ``-ric1`` for ``(k, l) = (0, 0), (1, 1), (0, 1)``, as
    weighted sums of squares of ``Y`` (:func:`_frame`); ``release``: pop
    ``Y`` from the frame."""
    Y = (frame.pop if release else frame.get)("Y")
    lsq = (G00, 1.0 / frame["d"])
    wts = (lsq[0] * lsq[0], lsq[0] * lsq[1], lsq[1] * lsq[1])

    def quad(k: int, l: int) -> np.ndarray:
        if k == l:
            q = wts[0] * _abs2(Y[0][k][0])
            q += wts[1] * (_abs2(Y[0][k][1]) + _abs2(Y[1][k][0]))
            q += wts[2] * _abs2(Y[1][k][1])
            return q
        q = wts[0] * (Y[0][k][0] * np.conj(Y[0][l][0]))
        q += wts[1] * (Y[0][k][1] * np.conj(Y[0][l][1]) + Y[1][k][0] * np.conj(Y[1][l][0]))
        q += wts[2] * (Y[1][k][1] * np.conj(Y[1][l][1]))
        return q

    return lsq, wts, (quad(0, 0), quad(1, 1), quad(0, 1))


def _unit_frame(quadratic: tuple, frame: dict, release: bool) -> tuple:
    """``conj(mu)``, ``|mu|^2`` and ``x``, the factors ``v`` of ``|Omega|^2``
    in the unit frame of its inner pair (:func:`_inner_term`); ``release``:
    pop ``y`` from the frame."""
    lsq, mu, y = quadratic[0], frame["mu"], (frame.pop if release else frame.get)("y")
    muc = np.conj(mu)
    l00, l11 = np.sqrt(lsq[0]), np.sqrt(lsq[1])
    # x[i][s][n] = sum_k conj(L[k, s]) v[i][k][n], v[i][k][n] = l_n y[i][k][n]
    x = []
    for i in (0, 1):
        v0 = [l00 * y[i][k][0] for k in (0, 1)]
        v1 = [l11 * y[i][k][1] for k in (0, 1)]
        x.append(((v0[0] + muc * v0[1], v1[0] + muc * v1[1]), (v0[1], v1[1])))
    return muc, _abs2(mu), x


def _inner_term(e: int, quadratic: tuple, frame: dict, unit: tuple, r: np.ndarray) -> np.ndarray:
    """The terms of ``|Omega|^2`` of the inner entry ``(0, 0)``, ``(1, 1)`` or,
    counted twice for ``(1, 0)``, ``(0, 1)``, for ``e`` = 0, 1, 2.

    ``|Omega|^2`` is the Frobenius norm of the curvature in a Cholesky frame.
    ``g^{-1} = l l^H`` with ``l00 = sqrt(g^{1 1bar})``, ``l10 = -g21 / sqrt(g22 det)``,
    ``l11 = 1 / sqrt(g22)``; ``lsq = (l00^2, l11^2)``, and ``y`` is the
    kernel's ``del g`` in the unit frame ``L`` below (:func:`_frame`).  Then
    ``|Omega|^2 = sum |Z|^2`` over ``Z[p, q, s, t] = sum conj(l[i, p]) l[j, q]
    conj(l[k, s]) l[l, t] Omega_{i jbar k lbar}``.  Writing ``l = L diag(l00, l11)``
    with ``L = [[1, 0], [mu, 1]]``, ``mu = l10 / l00 = -g21 / g22``, the unit frame
    ``L`` acts in two stages, first on the inner pair ``(k, l)``, then on the
    outer pair ``(i, j)``, and the diagonal enters as the weight
    ``l_p^2 l_q^2 l_s^2 l_t^2`` of ``|Zhat|^2``.  The inner stage is applied to the
    factors of ``Omega = sum_n v_n conj(v_n) - del del-bar g``
    (``v[i][k][n] = sum_m l[m, n] del_i g_{k mbar} = l_n y[i][k][n]``,
    :func:`_unit_frame`) and to ``d2m``.  By the
    Hermitian symmetry ``Z[q, p, t, s] = conj Z[p, q, s, t]``, each inner entry
    ``(s, s)`` needs only the outer blocks ``(0, 0), (1, 1), (0, 1)``, and the
    inner entry ``(1, 0)`` is the conjugate of ``(0, 1)``.
    """
    lsq, wts, _ = quadratic  # wts: lsq[0]^2, lsq[0] lsq[1], lsq[1]^2
    mu = frame["mu"]
    muc, mu_sq, x = unit

    def d2m(i: int, j: int, k: int, l: int) -> np.ndarray:  # del_i del_jbar g_{k lbar}
        if i == j:
            return r[i, k, l]
        return r[2, k, l] if i == 0 else np.conj(r[2, l, k])

    def inner(i: int, j: int, s: int, t: int) -> np.ndarray:  # (L^H Omega_{i jbar} L)[s, t]
        def right(k):  # (d2m L)[k, t]
            return d2m(i, j, k, 0) + mu * d2m(i, j, k, 1) if t == 0 else d2m(i, j, k, 1)

        out = x[i][s][0] * np.conj(x[j][t][0])
        out += x[i][s][1] * np.conj(x[j][t][1])
        out -= right(0) + muc * right(1) if s == 0 else right(1)
        return out

    if e < 2:  # inner entry (s, s): outer block (1, 0) = conj (0, 1), diagonal ones real
        s = e
        b00, b11, b01 = inner(0, 0, s, s).real, inner(1, 1, s, s).real, inner(0, 1, s, s)
        return wts[2 * s] * _frame_sq(lsq, wts, mu, muc, mu_sq, b00, b11, b01)
    b00, b11, b01, b10 = inner(0, 0, 0, 1), inner(1, 1, 0, 1), inner(0, 1, 0, 1), inner(1, 0, 0, 1)
    z10 = b10 + mu * b11
    z01 = b01 + muc * b11
    z00 = b00 + mu * b01 + muc * z10
    return (2.0 * lsq[0] * lsq[1]) * (wts[0] * _abs2(z00) + wts[2] * _abs2(b11) + wts[1] * (_abs2(z01) + _abs2(z10)))


def _frame_sq(lsq: tuple, wts: tuple, mu, muc, mu_sq, b00, b11, b01) -> np.ndarray:
    """``|b|^2_g`` of a Hermitian 2x2 ``b`` (real ``b00``, ``b11`` and ``b01``) in
    the Cholesky frame ``g^{-1} = L diag(lsq) L^H``, ``L = [[1, 0], [mu, 1]]``:
    ``sum_{p, q} lsq_p lsq_q |z[p, q]|^2`` over ``z = L^H b L``, whose entries
    ``z00`` and ``z11 = b11`` are real and ``z10 = conj z01``; ``wts`` is
    ``(lsq[0]^2, lsq[0] lsq[1], lsq[1]^2)``."""
    z01 = b01 + muc * b11
    z00 = b00 + 2.0 * (mu * b01).real + mu_sq * b11
    return wts[0] * z00 * z00 + wts[2] * b11 * b11 + 2.0 * lsq[0] * lsq[1] * _abs2(z01)


def hermitian_norm_sq(g: np.ndarray, a: np.ndarray, det: np.ndarray) -> np.ndarray:
    """``|a|^2_g``, equal to ``metric_pairing(g, a, a)``, of a Hermitian (1,1)
    coefficient matrix ``a`` on an exactly Hermitian ``g``, as the weighted
    sum of squares of :func:`surface_flow`'s Cholesky frame
    (:func:`_frame_sq`): ``mu = -g_{2 1bar} / g_{2 2bar}`` and
    ``lsq = (g_{2 2bar} / det g, 1 / g_{2 2bar})``.  ``det`` is the caller's
    ``det g`` taken real, as :func:`surface_flow` returns it.  Reads the
    upper triangle of ``a``; non-negative on positive definite ``g``, which
    it does not check."""
    d, b = g[..., 1, 1].real.copy(), g[..., 0, 1].copy()
    mu = np.conj(b) / -d
    lsq = (d / det, 1.0 / d)
    wts = (lsq[0] * lsq[0], lsq[0] * lsq[1], lsq[1] * lsq[1])
    return _frame_sq(lsq, wts, mu, np.conj(mu), _abs2(mu), a[..., 0, 0].real, a[..., 1, 1].real, a[..., 0, 1])


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
        - _contract("...pai,...pjk->...aijk", gam, t)
        - _contract("...paj,...ipk->...aijk", gam, t)
    )
    dtb = _contract("...iajk->...aijk", d2m) - _contract("...jaik->...aijk", d2m)
    grad_antihol = dtb - _contract("...rak,...ijr->...aijk", gamb, t)

    # div_{i jbar} = g^{p qbar} nabla_{qbar} T_{p i jbar}
    div = _contract("...pq,...qpij->...ij", gup, grad_antihol)

    dgup_b = -_contract("...pb,...aq,...jab->...jpq", gup, gup, d1b)
    dtb_w = _contract("...ijpq->...ijpq", d2m) - _contract("...pjiq->...ijpq", d2m)
    trace_grad = (
        _contract("...jpq,...ipq->...ij", dgup_b, t)
        + _contract("...pq,...ijpq->...ij", gup, dtb_w)
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
    return _contract(
        "...ik,...lj,...ij,...kl->...", gup, gup, a, np.conj(b)
    )


def grad_torsion_norms(g: np.ndarray, cov: CovariantTorsion) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms of the (1,0)- and (0,1)-type covariant torsion derivatives
    ``cov`` (:func:`covariant_torsion_ops` of a jet of ``g``).

    Each slot of ``T`` and its conjugate is contracted with ``gup``: a
    holomorphic slot pairs as ``g^{a a'}``, an antiholomorphic one as
    ``g^{a' a}``.
    """
    gup = inverse_metric(g)
    n10 = _contract(
        "...ax,...ib,...jc,...dk,...aijk,...xbcd->...",
        gup, gup, gup, gup, cov.grad_hol, np.conj(cov.grad_hol)
    ).real
    n01 = _contract(
        "...xa,...ib,...jc,...dk,...aijk,...xbcd->...",
        gup, gup, gup, gup, cov.grad_antihol, np.conj(cov.grad_antihol)
    ).real
    return n10, n01


def curvature_norm(jet: HermitianJet) -> np.ndarray:
    """Pointwise norm |Omega|_g of the full Chern curvature."""
    curv, _, _, _ = chern_curvature(jet)
    gup = inverse_metric(jet.g)
    sq = _contract(
        "...ia,...bj,...kc,...dl,...ijkl,...abcd->...",
        gup, gup, gup, gup, curv, np.conj(curv)
    )
    return np.sqrt(np.maximum(sq.real, 0.0))


# ---------------------------------------------------------------------------
# identity suite


def _rel(num: np.ndarray, *scales: np.ndarray) -> np.ndarray:
    floor = np.asarray(1.0)
    for s in scales:
        floor = np.maximum(floor, np.asarray(s, dtype=float))
    return np.asarray(num, dtype=float) / floor


def identity_suite(jet: HermitianJet, pluriclosed: bool = False) -> dict[str, np.ndarray]:
    """Relative residuals of the pointwise tensor identities of the theory.

    Each residual is normalised by the larger of 1 and the participating
    term magnitudes.  When ``pluriclosed`` is set, the residuals that only
    hold on pluriclosed jets are included; the flag is rejected if the
    pluriclosed defect exceeds 1e-8.

    A batch of at least ``_threads.SPLIT_JETS`` jets is checked in two
    halves of its leading axis, at every thread count; with two threads
    allowed (``PLURIGEO_THREADS``), the worker thread of
    :mod:`plurigeo._threads` takes the first half.  Each jet's residuals
    do not depend on the batch it is checked in, and the first half fails
    first, so results and exceptions are the same for every thread count.

    Returns a dict mapping identity names to batch-shaped arrays.
    """
    if pluriclosed:
        bmax = pluriclosed_residual(jet)
        if bmax.max() > 1e-8:
            raise ValueError(
                "pluriclosed flag set but residual "
                f"{bmax.max():.3e} exceeds tolerance 1.0e-08"
            )

    def residuals(jet: HermitianJet) -> dict[str, np.ndarray]:  # of the whole batch or one half
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
        lhs = gam - gam.swapaxes(-2, -1) - _contract("...kl,...ijl->...kij", gup, t)
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
            _contract("...srqk->...rqks", cov.grad_antihol)
            - _contract("...qsrk->...rqks", curv)
            + _contract("...rsqk->...rqks", curv)
        )
        out["bianchi_first"] = _rel(_amax(rb, 4), _amax(curv, 4), _amax(cov.grad_antihol, 4))

        # gradient of the proportional quadratic vs <grad |T|^2, w>
        dgup_h = -_contract("...pb,...cq,...acb->...apq", gup, gup, jet.d1)
        dth = jet.d2h - jet.d2h.swapaxes(-3, -2)
        dtb_h = np.conj(
            _contract("...jalm->...ajlm", jet.d2m) - _contract("...lajm->...ajlm", jet.d2m)
        )
        dquad1 = (
            _contract("...akl,...mn,...ikn,...jlm->...aij", dgup_h, gup, t, tb)
            + _contract("...kl,...amn,...ikn,...jlm->...aij", gup, dgup_h, t, tb)
            + _contract("...kl,...mn,...aikn,...jlm->...aij", gup, gup, dth, tb)
            + _contract("...kl,...mn,...ikn,...ajlm->...aij", gup, gup, t, dtb_h)
        )
        nquad1 = dquad1 - _contract("...paj,...pk->...ajk", gam, quad1)
        asym = nquad1 - _contract("...jak->...ajk", nquad1)
        lhs46 = _contract(
            "...im,...jn,...pk,...ijk,...mnp->...", gup, gup, gup, asym, tb
        )
        dt2 = _contract("...apq,...pq->...a", dgup_h, quad1) + _contract(
            "...pq,...apq->...a", gup, dquad1
        )
        rhs46 = _contract("...ij,...i,...j->...", gup, dt2, np.conj(w))
        out["quad_gradient_trace"] = _rel(np.abs(lhs46 - rhs46), np.abs(lhs46), np.abs(rhs46))

        # contracted Bianchi forms
        x47 = (
            _contract("...srqk->...rqks", cov.grad_antihol)
            - _contract("...qsrk->...rqks", curv)
        )
        lhs47 = _contract(
            "...im,...jn,...pk,...rs,...qt,...jit,...rqks,...mnp->...",
            gup, gup, gup, gup, gup, t, x47, tb
        )
        rhs47 = metric_pairing(g, ric1, quad2)
        out["bianchi_torsion_curvature"] = _rel(
            np.abs(lhs47 - rhs47), np.abs(lhs47), np.abs(rhs47)
        )

        y48 = (
            _contract("...srjt->...rjts", cov.grad_antihol)
            - _contract("...jsrt->...rjts", curv)
        )
        t48a = _contract(
            "...im,...jn,...pk,...rs,...qt,...rjts,...iqk,...mnp->...",
            gup, gup, gup, gup, gup, y48, t, tb
        )
        t48b = _contract(
            "...im,...jn,...pk,...rs,...qt,...rits,...jqk,...mnp->...",
            gup, gup, gup, gup, gup, y48, t, tb
        )
        out["bianchi_scalar_contraction"] = _rel(
            np.abs((t48a - t48b) + scal * tnorm_sq), np.abs(scal * tnorm_sq), np.abs(t48a - t48b)
        )

        z49 = (
            _contract("...sjqk->...jqks", cov.grad_antihol)
            + _contract("...jsqk->...jqks", curv)
        )
        u49a = _contract(
            "...im,...jn,...pk,...rs,...qt,...irt,...jqks,...mnp->...",
            gup, gup, gup, gup, gup, t, z49, tb
        )
        u49b = _contract(
            "...im,...jn,...pk,...rs,...qt,...jrt,...iqks,...mnp->...",
            gup, gup, gup, gup, gup, t, z49, tb
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

    batch = jet.g.shape[:-2]
    jets = math.prod(batch)
    if jets < _threads.SPLIT_JETS or batch[0] < 2:
        return residuals(jet)
    half = batch[0] // 2
    with _threads.split(jets, _threads.SPLIT_JETS) as split:
        first = split.run(residuals, _leading(jet, slice(half)))
        second = residuals(_leading(jet, slice(half, None)))
        first = split.get(first)
    return {name: np.concatenate((first[name], second[name])) for name in first}


def _leading(jet: HermitianJet, rows: slice) -> HermitianJet:
    return HermitianJet(g=jet.g[rows], d1=jet.d1[rows], d2m=jet.d2m[rows], d2h=jet.d2h[rows])


# ---------------------------------------------------------------------------
# random jets


# per jet, 88 uniform doubles in [-1, 1], in this order: the real, then the
# imaginary parts of A (2x2), d1 (2x2x2), d2h and d2m (2x2x2x2 each)
_JET_DRAW = (4, 4, 8, 8, 16, 16, 16, 16)


def random_jet_batch(
    rng: np.random.Generator, count: int, pluriclosed: bool = False
) -> HermitianJet:
    """``count`` deterministic random jets along a leading batch axis, from
    one ``rng.uniform(-1, 1, (count, 88))`` draw: jet ``i`` reads row ``i``.
    Each has ``g = A A^H + I`` with |A entries| <= 1 and derivative
    components uniform in [-1, 1] per real part, with the symmetry and
    reality constraints enforced; with ``pluriclosed`` the mixed second
    derivative ``d2m[1, 1, 0, 0]`` is solved so the pluriclosed defect
    vanishes.  The stream is sequential, so two calls on one generator draw
    the same jets as one call for their total count.
    """
    draw = rng.uniform(-1, 1, (count, sum(_JET_DRAW)))
    re_a, im_a, re_d1, im_d1, re_h, im_h, re_m, im_m = np.split(
        draw, np.cumsum(_JET_DRAW)[:-1], axis=1
    )
    a = (re_a + 1j * im_a).reshape(count, 2, 2) / np.sqrt(2)
    g = a @ np.conj(a.swapaxes(-1, -2)) + np.eye(2)
    d1 = (re_d1 + 1j * im_d1).reshape(count, 2, 2, 2)
    d2h = (re_h + 1j * im_h).reshape(count, 2, 2, 2, 2)
    d2h = (d2h + d2h.swapaxes(1, 2)) / 2
    d2m = (re_m + 1j * im_m).reshape(count, 2, 2, 2, 2)
    d2m = (d2m + np.conj(d2m.transpose(0, 2, 1, 4, 3))) / 2
    if pluriclosed:
        d2m[:, 1, 1, 0, 0] = (-d2m[:, 0, 0, 1, 1] + d2m[:, 1, 0, 0, 1] + d2m[:, 0, 1, 1, 0]).real
    return HermitianJet(g=g, d1=d1, d2m=d2m, d2h=d2h)
