"""The surface kernel against its frozen single-thread form, byte for byte.

``frozen_surface_flow`` and ``frozen_curvature_norm_sq`` below are
``hermitian.surface_flow`` and ``hermitian._curvature_norm_sq`` as they
were before the kernel's work was split between the calling thread and
the worker thread and stacked into component blocks: every statement on
one component of the grid, in one thread.  The kernel must give every
output with the same bits, on grids below the split threshold and above
it, for every ``PLURIGEO_THREADS``.

The frozen form writes its complex products as operators, so it has
those bits only where it runs them in the written order: numpy computes
``x * f(y)`` with ``f(y)`` of 256 KiB or more (16,384 complex entries) in
place as ``f(y) *= x``, and its complex multiply does not commute bit for
bit.  The kernel pins the written order at every size, so the frozen form
runs on the two halves of the grid along axis 0, each below that size,
and its outputs are joined.
"""

import numpy as np
import pytest

from plurigeo import _threads
from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily
from plurigeo.grid import perturb_with_potential, sample

from conftest import random_trig, surface_jet_of, two_cpus, worker_ran

OUTPUTS = ("rhs", "det", "scal", "tnorm_sq", "w_sq", "pluriclosed", "curv_sq")
# the scalars a record names; without curvature, all but |Omega|^2
RECORD = ("scal", "tnorm_sq", "pluriclosed", "curv_sq")


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def frozen_surface_flow(jet, curvature=False):
    """See the module docstring."""
    g = jet.g
    gup = hm.inverse_metric(g)
    # contiguous copies: strided views of the (..., 2, 2) arrays slow every
    # operation that reads them
    a, d, b = g[..., 0, 0].real.copy(), g[..., 1, 1].real.copy(), g[..., 0, 1].copy()
    G00, G11, G01 = gup[..., 0, 0].real.copy(), gup[..., 1, 1].real.copy(), gup[..., 0, 1].copy()
    det = (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]).real
    d1, r = jet.d1, jet.d2m

    tau0 = d1[0, 1, 0] - d1[1, 0, 0]
    tau1 = d1[0, 1, 1] - d1[1, 0, 1]
    w_sq = (G00 * _abs2(tau0) + G11 * _abs2(tau1) + 2.0 * (G01 * tau1 * np.conj(tau0)).real) / det

    # The Cholesky frame g^{-1} = L diag(lsq) L^H, L = [[1, 0], [mu, 1]], of
    # the quadratic term and of |Omega|^2: y[i][k][q] = sum_n L[n, q] del_i g_{k nbar}
    # and Y[p][k][q] = sum_i conj(L[i, p]) y[i][k][q].  These temporaries stay
    # alive until the outputs are allocated: freed earlier, they leave the top
    # of the heap free, glibc returns it to the OS, and the next stencil pass
    # page-faults it back (21k instead of 6k minor faults in a two-step
    # 16x8x16x8 run with diagnostics every step).
    lsq = (G00, 1.0 / d)
    mu = np.conj(b) / -d
    y = [[(d1[i, k, 0] + mu * d1[i, k, 1], d1[i, k, 1]) for k in (0, 1)] for i in (0, 1)]
    Y = ([[y[0][k][q] + np.conj(mu) * y[1][k][q] for q in (0, 1)] for k in (0, 1)], y[1])
    wts = (lsq[0] * lsq[0], lsq[0] * lsq[1], lsq[1] * lsq[1])

    def quad(k: int, l: int) -> np.ndarray:  # g^{i jbar} g^{m nbar} del_i g_{k nbar} conj(del_j g_{l mbar})
        if k == l:
            q = wts[0] * _abs2(Y[0][k][0])
            q += wts[1] * (_abs2(Y[0][k][1]) + _abs2(Y[1][k][0]))
            q += wts[2] * _abs2(Y[1][k][1])
            return q
        q = wts[0] * (Y[0][k][0] * np.conj(Y[0][l][0]))
        q += wts[1] * (Y[0][k][1] * np.conj(Y[0][l][1]) + Y[1][k][0] * np.conj(Y[1][l][0]))
        q += wts[2] * (Y[1][k][1] * np.conj(Y[1][l][1]))
        return q

    # -ric1 = g^{i jbar} d2m[i, j] - quad; its diagonal is real
    n00 = G00 * r[0, 0, 0].real + G11 * r[1, 0, 0].real + 2.0 * (G01 * r[2, 0, 0]).real - quad(0, 0)
    n11 = G00 * r[0, 1, 1].real + G11 * r[1, 1, 1].real + 2.0 * (G01 * r[2, 1, 1]).real - quad(1, 1)
    n01 = (G00 * r[0, 0, 1] + G11 * r[1, 0, 1] + G01 * r[2, 0, 1]
           + np.conj(G01 * r[2, 1, 0]) - quad(0, 1))
    rhs = np.empty(np.shape(g), dtype=complex)
    rhs[..., 0, 0] = n00 + w_sq * a
    rhs[..., 1, 1] = n11 + w_sq * d
    rhs[..., 0, 1] = n01 + w_sq * b
    rhs[..., 1, 0] = np.conj(rhs[..., 0, 1])
    scal = -(G00 * n00 + G11 * n11 + 2.0 * (G01 * n01).real)
    pluriclosed = np.abs(r[1, 0, 0] + r[0, 1, 1] - 2.0 * r[2, 1, 0].real)
    return hm.SurfaceFlow(
        rhs=rhs,
        det=det,
        scal=scal,
        tnorm_sq=2.0 * w_sq,
        w_sq=w_sq,
        pluriclosed=pluriclosed,
        curv_sq=frozen_curvature_norm_sq(lsq, mu, y, r) if curvature else None,
    )


def frozen_curvature_norm_sq(lsq, mu, y, r):
    """See the module docstring."""
    muc = np.conj(mu)
    l00, l11 = np.sqrt(lsq[0]), np.sqrt(lsq[1])
    # x[i][s][n] = sum_k conj(L[k, s]) v[i][k][n], v[i][k][n] = l_n y[i][k][n]
    x = []
    for i in (0, 1):
        v0 = [l00 * y[i][k][0] for k in (0, 1)]
        v1 = [l11 * y[i][k][1] for k in (0, 1)]
        x.append(((v0[0] + muc * v0[1], v1[0] + muc * v1[1]), (v0[1], v1[1])))

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

    total = np.zeros_like(lsq[1])
    for s in (0, 1):  # inner entry (s, s): outer block (1, 0) = conj (0, 1), diagonal ones real
        b00, b11, b01 = inner(0, 0, s, s).real, inner(1, 1, s, s).real, inner(0, 1, s, s)
        z01 = b01 + muc * b11
        z00 = b00 + 2.0 * (mu * b01).real + _abs2(mu) * b11
        total += (lsq[s] * lsq[s]) * (
            lsq[0] * lsq[0] * z00 * z00 + lsq[1] * lsq[1] * b11 * b11 + 2.0 * lsq[0] * lsq[1] * _abs2(z01)
        )
    # inner entry (0, 1), counted twice for (1, 0)
    b00, b11, b01, b10 = inner(0, 0, 0, 1), inner(1, 1, 0, 1), inner(0, 1, 0, 1), inner(1, 0, 0, 1)
    z10 = b10 + mu * b11
    z01 = b01 + muc * b11
    z00 = b00 + mu * b01 + muc * z10
    total += (2.0 * lsq[0] * lsq[1]) * (
        lsq[0] * lsq[0] * _abs2(z00) + lsq[1] * lsq[1] * _abs2(b11)
        + lsq[0] * lsq[1] * (_abs2(z01) + _abs2(z10))
    )
    return total


def frozen_in_halves(jet, curvature=False):
    """:func:`frozen_surface_flow` on the two halves of the grid along axis 0,
    joined: every half below the size at which numpy reorders products."""
    n = jet.g.shape[0] // 2
    halves = [
        frozen_surface_flow(hm.SurfaceJet(g=jet.g[part], d1=jet.d1[:, :, :, part], d2m=jet.d2m[:, :, :, part]), curvature)
        for part in (slice(0, n), slice(n, None))
    ]
    joined = {}
    for out in OUTPUTS:
        parts = [getattr(half, out) for half in halves]
        joined[out] = None if parts[0] is None else np.concatenate(parts)
    return hm.SurfaceFlow(**joined)


@pytest.fixture(scope="module", params=[(4, 4, 16, 4), (16, 8, 16, 8)], ids=["4x4x16x4", "16x8x16x8"])
def jets(request):
    """Kernel inputs on one grid: the sampled family (exact zeros along its
    constant axes), and all-axis data both as ``surface_jet`` gives it and
    as the strided views of ``surface_jet_of``."""
    base = sample(MetricFamily("torus_pluriclosed", 0.5), request.param)
    field = perturb_with_potential(base, 0.05 * random_trig(base.grid, 13))
    return {
        "family": base.surface_jet(),
        "all_axis": field.surface_jet(),
        "views": surface_jet_of(field.jets()[0]),
    }


@pytest.mark.parametrize("threads", ["1", pytest.param("2", marks=two_cpus)])
@pytest.mark.parametrize("curvature", [False, True])
def test_kernel_is_byte_identical_to_the_frozen_form(jets, curvature, threads, kernel_threads, monkeypatch):
    monkeypatch.setenv("PLURIGEO_THREADS", threads)
    for name, jet in jets.items():
        outputs = RECORD if curvature else RECORD[:3]
        expect, got = frozen_in_halves(jet, curvature), hm.surface_flow(jet, outputs)
        for out in OUTPUTS:
            a, b = getattr(expect, out), getattr(got, out)
            assert (a is None) == (b is None), (name, out)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, (name, out)
                assert a.tobytes() == b.tobytes(), (name, out)
    nodes = jets["family"].g[..., 0, 0].size
    assert worker_ran(kernel_threads) == (threads == "2" and nodes >= _threads.SPLIT_NODES)
