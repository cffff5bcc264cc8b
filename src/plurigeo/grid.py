"""Discretization on the flat complex 2-torus.

Periodic grids over [0, 2pi)^4 with real coordinates (x1, x2, x3, x4),
z^1 = x1 + i x2, z^2 = x3 + i x4.  All derivatives are 4th-order central
differences with periodic wraparound,

    f'_i ~ (-f_{i+2} + 8 f_{i+1} - 8 f_{i-1} + f_{i-2}) / (12 h),

second derivatives from the same stencils in one pass
(:func:`_stencil_half`), whose every numpy call takes all the real fields
it is given: the four of the metric at once, or, on large grids with two
threads allowed, two of them in each thread.  On axes of at
most 16 points the two differences are mostly products with cached
circulant matrices (BLAS calls that release the GIL; one product on
4-point axes, where the second difference is zero), otherwise slices of
a padded copy; both give the same bits on finite input.  Integrals are
periodic Riemann sums times the cell volume, reduced with a fixed
pairwise tree so results are bit-reproducible; values held once along
an axis they are constant along (a :class:`MetricField` may hold them
so) are differentiated to +0 there and summed broadcast over the grid.

Forms follow the (i/2)-coefficient convention of :mod:`plurigeo.hermitian`:
a real (1,1)-form is a Hermitian coefficient matrix per node, the (2,0)
part a single complex component (the coefficient of dz^1 ^ dz^2) and
the (0,2) part of a real form its conjugate.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._threads import split
from .families import MetricFamily
from .hermitian import HermitianJet, SurfaceFlow, SurfaceJet, _real_det

__all__ = [
    "TWO_PI",
    "TorusGrid",
    "MetricField",
    "FormField",
    "ThreeForm",
    "pairwise_sum",
    "sample",
    "sampling_grid",
    "perturb_with_potential",
    "wedge_pair",
    "form_wedge",
    "degree",
    "divisor_area",
    "exterior_derivative",
    "real_components",
    "save_field",
    "load_field",
]

TWO_PI = 2.0 * np.pi

FIELD_MAGIC = b"PGMF"
FIELD_VERSION = 1

# real-coordinate index pairs of the six 2-form components, lexicographic
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# dz^1, dz^2, dzbar^1, dzbar^2 expanded over dx^1..dx^4
_DZ = np.array(
    [
        [1, 1j, 0, 0],
        [0, 0, 1, 1j],
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
    ],
    dtype=complex,
)


def pairwise_sum(values: np.ndarray):
    """Deterministic pairwise reduction of all elements."""
    a = np.asarray(values).reshape(-1)
    if a.size == 0:
        return a.dtype.type(0)
    while a.size > 1:
        n = a.size // 2
        head = a[: 2 * n : 2] + a[1 : 2 * n : 2]
        a = np.concatenate([head, a[2 * n :]]) if a.size % 2 else head
    return a[0]


# Which form differentiates an axis of n points with ``run`` reals after
# it (complex values count twice): products with difference matrices on
# axes of at most _PRODUCT_MAX points, as their n multiply-adds per entry
# outgrow the slices' five passes on longer ones; two products, or one on
# 4-point axes, where the second matrix is zero.  A block of at most
# _RIGHT_MAX reals (n * run) is flattened and multiplied from the right in
# one call; runs of _LEFT_RUNS[0] reals and more take one product from the
# left per block, on axes of more than 8 points only runs shorter than
# _LEFT_RUNS[1].  Everything else takes slices of a padded copy.  Product
# time over slice time on a 2-vCPU x86_64 VM (one BLAS thread, alternating
# calls) was 0.3-0.9 at n <= 16 where products are taken (table in
# CHANGES.md); where they are not, up to 1.8 at n = 32, 1.1-1.5 at n = 16
# with runs of 3 or 4 reals, and 1.0-1.2 at n = 16 with runs of 512 or more.
_PRODUCT_MAX = 16
_RIGHT_MAX = 32
_LEFT_RUNS = (8, 512)


def _sliced(n: int, run: int) -> bool:
    """Whether :func:`_periodic_diff` takes slices, not products, along an
    axis of ``n`` points with ``run`` reals after it."""
    if n > _PRODUCT_MAX:
        return True
    if n * run <= _RIGHT_MAX:
        return False
    return run < _LEFT_RUNS[0] or (n > 8 and run >= _LEFT_RUNS[1])


@functools.lru_cache(maxsize=None)
def _difference_matrices(n: int, run: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(8 (S - S^-1), S^2 - S^-2)`` for the cyclic shift ``S`` of
    ``n`` points (``S^2 - S^-2`` is 0 at n = 4); for ``run`` > 0, ``(M x
    I_run)^T`` of each, the same difference applied from the right to a
    flattened ``(n, run)`` block."""
    i = np.arange(n)
    m1, m2 = np.zeros((n, n)), np.zeros((n, n))
    m1[i, (i + 1) % n] += 8.0
    m1[i, (i - 1) % n] -= 8.0
    m2[i, (i + 2) % n] += 1.0
    m2[i, (i - 2) % n] -= 1.0
    if run:
        m1, m2 = (np.ascontiguousarray(np.kron(m, np.eye(run)).T) for m in (m1, m2))
    m1.flags.writeable = m2.flags.writeable = False
    return m1, m2


@functools.lru_cache(maxsize=None)
def _products(shape: tuple, char: str, axis: int) -> tuple | None:
    """How :func:`_periodic_diff` takes the two differences along ``axis`` of
    an array of ``shape`` and dtype ``char`` as matrix products: the shape
    its reals are viewed in, the two matrices and whether they multiply
    from the right; None where it takes slices.  The second matrix is None
    on four points, where ``S^2 - S^-2`` is zero.  Cached, as every
    derivative outside a run's workspace builds its plan (:func:`_diff_plan`)
    per call: on a small grid that lookup is bound by calls."""
    n = shape[axis]
    run = math.prod(shape[axis + 1 :]) * (2 if char == "D" else 1)
    if char not in "dD" or _sliced(n, run):
        return None
    lead = math.prod(shape[:axis])
    view, right = ((lead, n * run), True) if n * run <= _RIGHT_MAX else ((lead, n, run), False)
    m1, m2 = _difference_matrices(n, run if right else 0)
    return view, m1, m2 if m2.any() else None, right


def _periodic_diff(
    u: np.ndarray,
    axis: int,
    h: float,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
    pad: np.ndarray | None = None,
) -> np.ndarray:
    """4th-order periodic first derivative along ``axis`` (into ``out`` if given),
    ``(8 (u[i+1] - u[i-1]) - (u[i+2] - u[i-2])) / (12 h)``: its plan
    (:func:`_diff_plan`), built and run once.

    On a float64 or complex128 ``u``, along the axes and runs chosen above,
    the two differences are matrix products along the axis (complex
    entries as two real ones), into ``out`` and ``tmp``: no padded copy.
    Every row of either matrix has exactly two nonzero entries, +-8 or
    +-1, so each result is the sum of two exact products,
    rounded once in any summation order (BLAS blocking, FMA and threads
    included), and fl(8a - 8b) = 8 fl(a - b).  Finite input below 2**1020
    in magnitude therefore gives the bits of the sliced form below, up to
    the sign of an exact-zero result where the input holds both -0 and +0;
    a non-finite entry makes its whole line along ``axis`` NaN (0 * inf).
    On four points ``u[i+2]`` is ``u[i-2]``, so the outer difference is +0
    on finite input and only the first product is taken (``x - (+0)`` is
    ``x`` bit for bit, signed zeros included); there an infinite entry
    leaves the sliced form's +-inf at the two nodes that weigh it by +-8.
    Otherwise every shifted operand is a slice of one copy of ``u``, padded
    by two wrapped cells at each end of the axis (into ``pad``, the shape
    of ``u`` with 4 more cells along ``axis``, if given).  Either way the
    differences are grouped in pairs, so constants differentiate to exact
    zero.  Along an axis of length 1, which holds values constant along
    a grid axis once, the derivative is +0, filled: a field constant along
    a grid axis differentiates to +0 there, also from negative values and
    -0.  ``out`` and ``tmp`` (the shape and dtype of ``u``) must be
    C-contiguous: a product into a strided array's reshaped copy would be
    lost.
    """
    return _diff_plan(u, axis, h, out, tmp, pad)()


def _diff_plan(
    u: np.ndarray,
    axis: int,
    h: float,
    out: np.ndarray | None,
    tmp: np.ndarray | None,
    pad: np.ndarray | None,
):
    """The derivative :func:`_periodic_diff` takes, as a call with no
    arguments that takes it of the values ``u`` holds then, into ``out``,
    and returns ``out``: every lookup, check and view is made here, once.
    Missing ``out``, ``tmp`` and ``pad`` are allocated here; a strided
    ``u`` that takes products is copied here, so its plan reads the copy.
    A :class:`_StencilWork` keeps the plans of its own buffers for the
    passes of a run; every other derivative builds its plan per call."""
    for a in (out, tmp):
        if a is not None and not a.flags.c_contiguous:
            raise ValueError("_periodic_diff writes only into C-contiguous arrays")
    if u.shape[axis] == 1:
        # values constant along the axis, held once: the derivative is +0,
        # filled, not a product whose sign would rest on how BLAS sums
        # (0 times a negative value is -0)
        out = np.empty(u.shape, u.dtype) if out is None else out

        def zero_plan() -> np.ndarray:
            out.fill(0.0)
            return out

        return zero_plan
    scale = 12.0 * h
    products = _products(u.shape, u.dtype.char, axis)
    if products is not None:
        shape, m1, m2, right = products
        u = np.ascontiguousarray(u)
        out = np.empty_like(u) if out is None else out
        reals, out_r = u.view(float).reshape(shape), out.view(float).reshape(shape)
        first = (reals, m1) if right else (m1, reals)
        if m2 is not None:
            tmp = np.empty_like(u) if tmp is None else tmp
            tmp_r = tmp.view(float).reshape(shape)
            second = (reals, m2) if right else (m2, reals)

        def products_plan() -> np.ndarray:
            np.matmul(*first, out=out_r)
            if m2 is not None:
                np.matmul(*second, out=tmp_r)
                np.subtract(out_r, tmp_r, out=out_r)
            return np.divide(out, scale, out=out)  # in u's dtype: a complex division is not a real one

        return products_plan
    n = u.shape[axis]
    lead = (slice(None),) * axis
    ends = (u[lead + (slice(n - 2, n),)], u, u[lead + (slice(0, 2),)])
    if pad is None:
        pad = np.empty(u.shape[:axis] + (n + 4,) + u.shape[axis + 1 :], u.dtype)
    out = np.empty(u.shape, u.dtype) if out is None else out
    tmp = np.empty(u.shape, u.dtype) if tmp is None else tmp
    # u[i + k] for every i, k = 1, -1, 2, -2
    ahead1, behind1, ahead2, behind2 = (pad[lead + (slice(2 + k, n + 2 + k),)] for k in (1, -1, 2, -2))

    def sliced_plan() -> np.ndarray:
        np.concatenate(ends, axis=axis, out=pad)
        np.multiply(np.subtract(ahead1, behind1, out=out), 8.0, out=out)
        np.subtract(out, np.subtract(ahead2, behind2, out=tmp), out=out)
        return np.divide(out, scale, out=out)

    return sliced_plan


# The pass takes the metric's four real fields in the order of the
# flattened entries (0, 0), (0, 1), (1, 0), (1, 1) of the jet: g11, Re g12,
# Im g12, g22, so its rows land in the jet and D Re g12 and D Im g12 are
# then mixed into D g12 and D g21 (_mix_g12).  Run in one thread, it is one
# _stencil_half call over all four fields: the fewest numpy calls, which
# is what a small grid's pass costs.  On grids of at least SPLIT_NODES
# nodes, with two threads allowed, it splits into two halves with no halo
# between them, and the second runs in the worker thread of
# plurigeo._threads (the crossover table is there).  The calling thread
# takes the half with the mix, as the worker starts later: at 16x8x16x8,
# with the mix in the worker, the caller waited 0.35-0.38 ms median (p95
# 0.72-0.81) in done.result(); with it in the caller, 0.007 ms (p95
# 0.31-0.40).  Every node gets the same operations either way, so the jets
# are bit-identical for every thread count.  Per half: its two real fields
# among the 8 of ``g.view(float)`` per node, the two of the 4 flattened
# entries (i, j) they go to, and whether they are the fields of g12.
_HALVES = ((slice(2, 4), slice(1, 3), True), (slice(0, 8, 6), slice(0, 4, 3), False))


class _StencilWork:
    """Views of one flat block for every array :func:`_stencil_half` writes
    besides the jet, for ``fields`` real fields: six pieces the size of the
    fields, and a padded copy for :func:`_periodic_diff` along each axis it
    takes slices on; and the derivative plans (:func:`_diff_plan`) between
    these buffers, each built on its first use and kept, so a run that
    holds the workspace builds them once.  Build it in the calling thread,
    which allocates the block: memory a worker thread allocates goes to
    that thread's own malloc arena, which keeps it after it is freed."""

    def __init__(self, dims: tuple, fields: int):
        shape = (fields,) + dims
        size = math.prod(shape)
        sliced = [a for a, n in enumerate(dims) if _sliced(n, math.prod(dims[a + 1 :]))]
        block = np.empty(6 * size + max((size // dims[a] * (dims[a] + 4) for a in sliced), default=0))
        self.f = block[:size].reshape(shape)  # the fields
        fx = block[size : 3 * size].reshape((2,) + shape)
        terms = block[3 * size : 5 * size].reshape((2,) + shape)
        self.fx = (fx[0], fx[1])  # two first derivatives at a time
        self.terms = (terms[0], terms[1])  # two terms of a second-order row
        self.tmp = block[5 * size : 6 * size].reshape(shape)  # the outer difference
        self._derivatives = block[size : 6 * size]
        self.pads = [None] * 4
        for a in sliced:
            n = dims[a]
            self.pads[a] = block[6 * size : 6 * size + size // n * (n + 4)].reshape(shape[: a + 1] + (n + 4,) + shape[a + 2 :])
        self._plans = {}

    @property
    def spare(self) -> np.ndarray:
        """The derivatives' buffers, free once the pass has taken them, as a
        flat complex array of 2.5 rows a field: :func:`_mix_g12`'s product."""
        return self._derivatives.view(complex)

    def diff(self, u: np.ndarray, a: int, h: tuple, out: np.ndarray) -> np.ndarray:
        """``del_{x_a}`` of the fields ``u`` (a leading axis before the grid
        axes) into ``out`` by its plan, built on first use; ``h`` is the
        grid's spacing.  The plans are keyed by the identity of ``u`` and
        ``out``, so both must be arrays that live as long as the workspace:
        the fields of the pass or its own buffers."""
        key = (id(u), a, id(out))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _diff_plan(u, a + 1, h[a], out, self.tmp, self.pads[a])
        return plan()


def _stencil_half(f: np.ndarray, h: tuple, rows: np.ndarray, work: _StencilWork) -> None:
    """The derivative pass over real fields ``f`` (a leading axis before the
    four grid axes), written straight into the complex ``rows`` (shape
    ``(L,) + f.shape``): ``del_{z^k} f`` for k = 0, 1 in rows 0 and 1, mixed
    ``del_{z^k} del_{zbar^l} f`` for ``(k, l) = (0, 0), (1, 1), (0, 1)`` in
    rows 2 to 4 and, if L is 8 (``jets``), holomorphic ``del_{z^k}
    del_{z^l} f`` in rows 5 to 7, for the ``(k, l)`` of rows 2 to 4.  Every
    field gets the same operations, so the rows of a field do not depend on
    which others share the call.  Two first derivatives are held at a
    time, and each second-order row is formed from its two terms in
    ``work.terms``."""

    def diff(u, a, out):  # del_{x_a}
        return work.diff(u, a, h, out)

    first, (m00, m11, m01), holomorphic = rows[:2], rows[2:5], rows[5:]
    h00, h11, h01 = holomorphic if len(holomorphic) else (None,) * 3
    p, q = work.terms

    def combine(m, hol):  # m.real = p + q and, if asked, hol.real = p - q
        if hol is not None:
            np.subtract(p, q, out=hol.real)
        np.add(p, q, out=m.real)

    # from f_0 and f_1: del_{z^1} f = (f_0 - i f_1) / 2 and the (k, l) = (0, 0)
    # rows (f_00 + f_11) / 4 and (f_00 - f_11 - 2i f_10) / 4
    f0, f1 = diff(f, 0, work.fx[0]), diff(f, 1, work.fx[1])
    np.multiply(f0, 0.5, out=first[0].real)
    np.multiply(f1, -0.5, out=first[0].imag)
    diff(f0, 0, p)
    diff(f1, 1, q)
    combine(m00, h00)
    if h00 is not None:
        np.multiply(diff(f1, 0, p), -2.0, out=h00.imag)
    # from f_2 and f_3: del_{z^2} f and the (1, 1) and (0, 1) rows
    f2, f3 = diff(f, 2, work.fx[0]), diff(f, 3, work.fx[1])
    np.multiply(f2, 0.5, out=first[1].real)
    np.multiply(f3, -0.5, out=first[1].imag)
    diff(f2, 2, p)
    diff(f3, 3, q)
    combine(m11, h11)
    if h11 is not None:
        np.multiply(diff(f2, 3, p), -2.0, out=h11.imag)  # -2 f_23
    diff(f2, 0, p)  # f_02
    diff(f3, 1, q)  # f_13
    combine(m01, h01)
    diff(f3, 0, p)  # f_03
    diff(f2, 1, q)  # f_12
    if h01 is not None:
        np.negative(np.add(p, q, out=h01.imag), out=h01.imag)
    np.subtract(p, q, out=m01.imag)
    rows[2:4].imag.fill(0.0)  # m00 and m11 are real
    rows[2:] *= 0.25


# _mix_g12 mixes as many rows per call as hold this many entries in all: a
# small pass costs its calls, so a surface jet of up to 3,276 nodes takes
# one call; rows of 16,384 nodes and more take one call each, so that each
# call's operands (256 KiB a row) stay in cache.  At 16x8x16x8 on a 2-vCPU
# x86_64 VM (2 MiB L2 per core) five rows in one call took 0.49-0.55 ms,
# one row a call 0.26-0.31 ms.
_MIX_ENTRIES = 16384


def _mix_g12(rows: np.ndarray, tmp: np.ndarray) -> None:
    """``D g12 = D Re g12 + i D Im g12`` and ``D g21 = D Re g12 - i D Im
    g12`` from ``D Re g12`` and ``D Im g12``, held in entries (0, 1) and
    (1, 0) of ``rows`` (shape ``(L, 2, 2) + dims``), as many rows per call
    as ``_MIX_ENTRIES`` and ``tmp``, a flat complex array at least one row
    long, allow.  Every entry gets the same operations either way."""
    per = max(min(tmp.size, _MIX_ENTRIES) // rows[0, 0, 1].size, 1)
    for start in range(0, len(rows), per):
        re, im = rows[start : start + per, 0, 1], rows[start : start + per, 1, 0]
        iq = np.multiply(1j, im, out=tmp[: im.size].reshape(im.shape))
        np.subtract(re, iq, out=im)
        np.add(re, iq, out=re)


def _jet_pass(g: np.ndarray, h: tuple, rows: np.ndarray, work: _JetWork | None = None) -> None:
    """The jet of metric values ``g`` (shape ``dims + (2, 2)``) into
    ``rows``, of shape ``(L, 2, 2) + dims`` with the rows of
    :func:`_stencil_half`: one call over the four fields in the calling
    thread, in ``work.stencil`` if a workspace is given; or, on grids of at
    least ``SPLIT_NODES`` nodes if two threads are allowed, two halves in
    blocks of their own, the second in the worker thread under the
    caller's numpy error state."""
    dims = g.shape[:-2]
    # the 8 reals of each node's g, on a leading axis
    reals = np.ascontiguousarray(g, dtype=complex).view(float).reshape(dims + (8,)).transpose(4, 0, 1, 2, 3)
    entries = rows.reshape(rows.shape[:1] + (4,) + dims)
    with split(math.prod(dims)) as parts:
        if not parts.threaded:
            one = _StencilWork(dims, 4) if work is None else work.stencil
            for fields, cols, _ in _HALVES:
                np.copyto(one.f[cols], reals[fields])
            _stencil_half(one.f, h, entries, one)
            _mix_g12(rows, one.spare)
            return
        # allocated here, in the calling thread, and for this pass only: a
        # run that held them read 1.8 MB more peak RSS at 16x8x16x8
        works = [_StencilWork(dims, 2) for _ in _HALVES]

        def run(half: int) -> None:
            (fields, cols, g12), own = _HALVES[half], works[half]
            np.copyto(own.f, reals[fields])
            _stencil_half(own.f, h, entries[:, cols], own)
            if g12:
                _mix_g12(rows, own.spare)

        second = parts.run(run, 1)
        run(0)
        parts.get(second)


class _JetWork:
    """A flow run's workspace for :meth:`MetricField.surface_jet`: the jet
    block, and the :class:`_StencilWork` of the pass when it runs in one
    thread, each built once, so the many small passes of a run fault no
    fresh pages in and rebuild no views.  Each jet it returns is
    overwritten by the next; a caller keeps only what it computed from it."""

    def __init__(self, dims: tuple):
        self.dims = dims
        self.rows = np.empty((5, 2, 2) + dims, complex)

    @functools.cached_property
    def stencil(self) -> _StencilWork:
        return _StencilWork(self.dims, 4)

    def surface_jet(self, field: MetricField) -> SurfaceJet:
        _jet_pass(field.values, field.grid.spacing, self.rows, self)
        return SurfaceJet(g=field.values, d1=self.rows[:2], d2m=self.rows[2:])


# the workspace of the flow run in progress in this context (thread or
# task), if any: set and reset by _jet_workspace
_RUN_JETS: contextvars.ContextVar = contextvars.ContextVar("plurigeo_run_jets", default=None)


@contextlib.contextmanager
def _jet_workspace(dims: tuple):
    """Within the block, in this context, every :meth:`MetricField.surface_jet`
    takes its jet in one :class:`_JetWork` for values of shape ``dims +
    (2, 2)``: what ``flow.run`` holds for one run, all on the one
    representative it steps, so the workspace is sized from its values."""
    token = _RUN_JETS.set(_JetWork(dims))
    try:
        yield
    finally:
        _RUN_JETS.reset(token)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid over [0, 2pi)^4."""

    dims: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.dims) != 4:
            raise ValueError("dims must have length 4")
        if any(n < 4 or n % 2 for n in self.dims):
            raise ValueError("grid sizes must be even and >= 4")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(TWO_PI / n for n in self.dims)

    @property
    def cell(self) -> float:
        h = self.spacing
        return h[0] * h[1] * h[2] * h[3]

    @property
    def nodes(self) -> int:
        n = self.dims
        return n[0] * n[1] * n[2] * n[3]

    def coords(self, sparse: bool = False) -> list[np.ndarray]:
        axes = [np.arange(n) * h for n, h in zip(self.dims, self.spacing)]
        return np.meshgrid(*axes, indexing="ij", sparse=sparse)

    def dx(self, u: np.ndarray, axis: int) -> np.ndarray:
        """4th-order periodic derivative along a real axis.

        Where the derivative is a matrix product (on axes of at most 16
        points; see :func:`_periodic_diff`), a non-finite value of ``u`` makes
        the derivative NaN along its whole grid line, not only at the four
        nodes its stencil reaches (the difference matrices' zeros times
        inf); on a 4-point axis, which takes one product, the two nodes
        that weigh an infinite value by +-8 keep the sliced stencil's
        +-inf.  Where the axes from ``axis`` on hold at most 32 reals (a
        complex value counts twice), as the last two of a real 4x4x4x4
        grid do, the rest of that whole block turns NaN too.  For a complex
        ``u`` both parts turn non-finite.  Finite input gives the same bits
        as the sliced stencil (see :func:`_periodic_diff`)."""
        if axis not in (0, 1, 2, 3):
            raise ValueError("axis must be 0..3")
        u = np.asarray(u)
        if u.dtype.kind in "biu":
            u = u.astype(float)
        return _periodic_diff(u, axis, self.spacing[axis])

    def dz(self, u: np.ndarray, k: int) -> np.ndarray:
        """Holomorphic derivative del_{z^k} = (del_x - i del_y) / 2, k in {0, 1}."""
        return 0.5 * (self.dx(u, 2 * k) - 1j * self.dx(u, 2 * k + 1))

    def integrate(self, values: np.ndarray):
        """Periodic Riemann sum times the cell volume (pairwise reduction) of
        ``values`` broadcast over the grid's dims: values held once along
        an axis they are constant along (length 1 there) sum with the bits
        of the full array."""
        return pairwise_sum(np.broadcast_to(values, self.dims)) * self.cell

    def complex_hessian(self, u: np.ndarray) -> np.ndarray:
        """Matrix ``h[..., i, j] = del_{z^i} del_{zbar^j} u`` per node of a real
        ``u`` of shape ``dims``, or held once (length 1) along axes it is
        constant along, from one call of the stencil pass
        (:func:`_stencil_half`) on it as one field."""
        f = np.asarray(u).astype(float, casting="safe")  # a complex u raises TypeError
        dims = f.shape
        if len(dims) != 4 or any(n not in (1, d) for n, d in zip(dims, self.dims)):
            raise ValueError(f"u must have shape {self.dims}, or length 1 along an axis")
        f = f.reshape((1,) + dims)
        rows = np.empty((5,) + f.shape, complex)
        _stencil_half(f, self.spacing, rows, _StencilWork(dims, 1))
        z = rows[2:, 0]
        # rows (0, 0), (0, 1), (1, 0), (1, 1); (1, 0) is conj (0, 1) on a real field
        return np.stack([z[0], z[2], np.conj(z[2]), z[1]], axis=-1).reshape(dims + (2, 2))


# ---------------------------------------------------------------------------
# metric fields


@dataclass(frozen=True)
class MetricField:
    """Hermitian positive 2x2 matrix per node of a :class:`TorusGrid`."""

    grid: TorusGrid
    # shape dims + (2, 2), complex; length 1 along an axis means constant
    # along it (the representative a flow run steps)
    values: np.ndarray

    def __post_init__(self):
        shape, dims = self.values.shape, self.grid.dims
        if len(shape) != 6 or shape[4:] != (2, 2) or any(n not in (1, d) for n, d in zip(shape, dims)):
            raise ValueError(f"values must have shape {dims + (2, 2)}, or length 1 along an axis")

    def check(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValueError("metric field has non-finite values")
        dev = np.abs(self.values - np.conj(self.values.swapaxes(-1, -2))).max()
        if dev > 1e-12:
            raise ValueError(f"metric field not Hermitian (deviation {dev:.3e})")
        if self.eigenvalues()[0].min() <= 0:
            raise ValueError("metric field not positive definite")

    def det(self) -> np.ndarray:
        return _real_det(self.values)

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``(lambda_min, lambda_max) = (a+d)/2 -+ hypot((a-d)/2, |b|)`` of
        ``[[a, b], [conj b, d]]``, halved first and with ``hypot``: no intermediate overflows."""
        v = self.values
        half_a, half_d = 0.5 * v[..., 0, 0].real, 0.5 * v[..., 1, 1].real
        mid, rad = half_a + half_d, np.hypot(half_a - half_d, np.abs(v[..., 0, 1]))
        return mid - rad, mid + rad

    def jets(self) -> tuple[HermitianJet, dict[str, float]]:
        """Full jets at every node from the stencil pass (:func:`_jet_pass`):
        the rows of :meth:`surface_jet` plus the holomorphic ones, written
        into one component-leading block that is copied into the jet once.
        The ``(k, l) = (1, 0)`` rows are copied from ``(0, 1)``, so ``d2h``
        is symmetric and ``d2m`` real by construction and both reported
        deviations are 0."""
        g = self.values
        dims = g.shape[:-2]
        # the pass's many writes straight into the node-interleaved jet
        # took twice as long as these writes plus one copy at 16x8x16x8
        z = np.empty((8, 2, 2) + dims, complex)
        _jet_pass(g, self.grid.spacing, z)
        d1 = np.empty(dims + (2, 2, 2), dtype=complex)
        d2m, d2h = (np.empty(dims + (2, 2, 2, 2), dtype=complex) for _ in range(2))
        np.moveaxis(d1, (0, 1, 2, 3), (3, 4, 5, 6))[...] = z[:2]
        # (k, l, i, j) + dims
        lead_m, lead_h = (np.moveaxis(d2, (0, 1, 2, 3), (4, 5, 6, 7)) for d2 in (d2m, d2h))
        for r, p in enumerate(((0, 0), (1, 1), (0, 1))):
            lead_m[p][...], lead_h[p][...] = z[2 + r], z[5 + r]
        np.conjugate(d2m[..., 0, 1, :, :].swapaxes(-1, -2), out=d2m[..., 1, 0, :, :])
        d2h[..., 1, 0, :, :] = d2h[..., 0, 1, :, :]
        return HermitianJet(g=g, d1=d1, d2m=d2m, d2h=d2h), {"d2h_symmetry": 0.0, "d2m_reality": 0.0}

    def surface_jet(self) -> SurfaceJet:
        """First and mixed second derivatives at every node, component-leading
        (:class:`SurfaceJet`), from one stencil pass (:func:`_jet_pass`) over
        the four real fields ``g11, Re g12, Im g12, g22`` (``g21`` is read
        as the conjugate of ``g12``), so ``d2m`` is real by construction.
        Each call returns new arrays, except within a flow run
        (``flow.run``), which takes every jet in one workspace
        (:func:`_jet_workspace`): each jet there is overwritten by the next."""
        work = _RUN_JETS.get() or _JetWork(self.values.shape[:-2])
        return work.surface_jet(self)


def sampling_grid(family: MetricFamily, dims: tuple[int, int, int, int]) -> TorusGrid:
    """The grid :func:`sample` evaluates ``family`` on.

    Axes the family varies along need at least 8 points; constant axes may
    use 4.  Raises ValueError when the family cannot be sampled on ``dims``.
    """
    if not family.on_torus:
        raise ValueError("hopf is sampled pointwise, not on the torus grid")
    grid = TorusGrid(tuple(int(n) for n in dims))
    for ax in family.active_axes:
        if grid.dims[ax] < 8:
            raise ValueError(f"axis {ax} is active for {family.kind}; need >= 8 points")
    return grid


def sample(family: MetricFamily, dims: tuple[int, int, int, int]) -> MetricField:
    """Evaluate a torus family on its :func:`sampling_grid`."""
    grid = sampling_grid(family, dims)
    from .families import jet_at

    # allocated first, so a grid too large for memory fails before any evaluation
    g = np.empty(grid.dims + (2, 2), complex)
    # the jet on the axes' coordinates alone, broadcast: a family varies along at most two
    np.copyto(g, jet_at(family, tuple(grid.coords(sparse=True))).g)
    field = MetricField(grid, g)
    field.check()
    return field


def perturb_with_potential(field: MetricField, u: np.ndarray) -> MetricField:
    """Add ``i del dbar u`` to the Kaehler form of a field (keeps it pluriclosed,
    exactly so in the discrete calculus since the stencils commute; the
    complex Hessian of a real ``u`` is Hermitian by construction)."""
    out = MetricField(field.grid, field.values + 2.0 * field.grid.complex_hessian(u))
    out.check()
    return out


# ---------------------------------------------------------------------------
# forms


@dataclass(frozen=True)
class FormField:
    """A real 2-form per node, split into (2,0)/(1,1)/(0,2) blocks.

    ``p11[..., i, j]`` is the (i/2)-convention coefficient matrix and
    ``p20`` the coefficient of dz^1^dz^2 (None for a (1,1)-form).  The
    coefficient of dzbar^1^dzbar^2 is not stored: a real form's is
    ``conj(p20)`` (:meth:`block02`), so the form is real by construction
    outside its (1,1) block.
    """

    grid: TorusGrid
    p11: np.ndarray
    p20: np.ndarray | None = None

    def __post_init__(self):
        if self.p11.shape != self.grid.dims + (2, 2):
            raise ValueError("p11 must have shape dims + (2, 2)")
        if self.p20 is not None and self.p20.shape != self.grid.dims:
            raise ValueError("p20 must have shape dims")

    @classmethod
    def from_metric(cls, field: MetricField) -> "FormField":
        return cls(field.grid, field.values)

    def block20(self) -> np.ndarray:
        return self.p20 if self.p20 is not None else np.zeros(self.grid.dims, complex)

    def block02(self) -> np.ndarray:
        return np.conj(self.block20())

    def reality_deviation(self) -> float:
        """Largest deviation of the (1,1) block from Hermitian: the only
        block whose reality is not built in."""
        return float(np.abs(self.p11 - np.conj(self.p11.swapaxes(-1, -2))).max())

    def pluriclosed_defect(self) -> np.ndarray:
        """|del dbar beta| per node of any (1,1) block, Hermitian or not (only
        the (1,1) block contributes on a surface).  A metric's own defect
        comes from its jet instead, as
        :meth:`plurigeo.hermitian.SurfaceJet.pluriclosed_residual` of
        :meth:`MetricField.surface_jet`, which agrees with this one on the
        Kaehler form to rounding.  With ``D_a = dx(., a)``, ``s = b01 + b10``
        and ``t = b01 - b10``, ``4 del dbar beta = D_0 (D_0 b11 - D_2 s + i D_3
        t) + D_1 (D_1 b11 - D_3 s - i D_2 t) + D_2 D_2 b00 + D_3 D_3 b00``, each
        entry differentiated only along the axes its term reads."""
        b, dx = self.p11, self.grid.dx
        s, t = b[..., 0, 1] + b[..., 1, 0], b[..., 0, 1] - b[..., 1, 0]
        val = dx(dx(b[..., 0, 0], 2), 2) + dx(dx(b[..., 0, 0], 3), 3)
        val += dx(dx(b[..., 1, 1], 0) - dx(s, 2) + 1j * dx(t, 3), 0)
        val += dx(dx(b[..., 1, 1], 1) - dx(s, 3) - 1j * dx(t, 2), 1)
        return 0.25 * np.abs(val)


def wedge_pair(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Wedge density of two (1,1) coefficient matrices:
    ``beta ^ gamma = wedge_pair(b, c) dx^4``."""
    return (
        b[..., 0, 0] * c[..., 1, 1]
        + b[..., 1, 1] * c[..., 0, 0]
        - b[..., 0, 1] * c[..., 1, 0]
        - b[..., 1, 0] * c[..., 0, 1]
    )


def form_wedge(f1: FormField, f2: FormField) -> np.ndarray:
    """Full wedge density of two 2-forms, including (2,0)^(0,2) cross terms."""
    val = wedge_pair(f1.p11, f2.p11)
    val = val + 4.0 * (f1.block20() * f2.block02() + f1.block02() * f2.block20())
    return val


def degree(field: MetricField, surf: SurfaceFlow) -> float:
    """Gauduchon degree ``int (-(i/2) del dbar log det g) ^ omega``.

    The first-Chern form traced against the metric is the Chern scalar
    curvature, so the degree is ``int s_Chern det g dx``, both read from
    ``surf``, the surface kernel's output on ``field`` with ``scal``.  The
    kernel keeps the degree consistent with the discrete volume evolution
    of the flow.
    """
    return float(field.grid.integrate(surf.scal * surf.det))


def divisor_area(field: MetricField) -> float:
    """Area of the divisor slice {z^2 = const} (indices x3 = x4 = 0)."""
    h = field.grid.spacing
    slice_vals = np.broadcast_to(field.values[:, :, 0, 0, 0, 0].real, field.grid.dims[:2])
    return float(pairwise_sum(slice_vals) * h[0] * h[1])


# ---------------------------------------------------------------------------
# exterior derivative


def real_components(form: FormField) -> np.ndarray:
    """Real-coordinate components C_ab of the 2-form, packed along the last
    axis in the order of :data:`PAIRS` (complex; imaginary parts vanish up
    to the (1,1) block's reality defect, as the (0,2) term is ``conj(p20)``
    by construction)."""
    full = np.zeros(form.grid.dims + (4, 4), dtype=complex)
    # (1,1) block: sum_{ij} (i/2) b_ij dz^i ^ dzbar^j
    for i in range(2):
        for j in range(2):
            u = _DZ[i]
            v = _DZ[2 + j]
            coeff = 0.5j * form.p11[..., i, j]
            full += coeff[..., None, None] * (
                u[:, None] * v[None, :] - u[None, :] * v[:, None]
            )
    if form.p20 is not None:
        for coeff, u, v in ((form.p20, _DZ[0], _DZ[1]), (form.block02(), _DZ[2], _DZ[3])):
            full += coeff[..., None, None] * (
                u[:, None] * v[None, :] - u[None, :] * v[:, None]
            )
    return np.stack([full[..., a, b] for a, b in PAIRS], axis=-1)


@dataclass(frozen=True)
class ThreeForm:
    """Components of a 3-form over the four triples of :data:`TRIPLES`."""

    grid: TorusGrid
    components: np.ndarray  # dims + (4,)

    def max_norm(self) -> float:
        return float(np.abs(self.components).max())

    def l2_norm(self) -> float:
        dens = (np.abs(self.components) ** 2).sum(axis=-1)
        return float(np.sqrt(self.grid.integrate(dens).real))


def exterior_derivative(form: FormField) -> ThreeForm:
    """Discrete exterior derivative of a 2-form; returns the 3-form components."""
    comp = real_components(form)
    grid = form.grid
    index = {p: i for i, p in enumerate(PAIRS)}
    out = np.zeros(grid.dims + (len(TRIPLES),), dtype=complex)
    for t, (a, b, c) in enumerate(TRIPLES):
        out[..., t] = (
            grid.dx(comp[..., index[(b, c)]], a)
            - grid.dx(comp[..., index[(a, c)]], b)
            + grid.dx(comp[..., index[(a, b)]], c)
        )
    return ThreeForm(grid, out)


# ---------------------------------------------------------------------------
# serialization

_HEADER = struct.Struct("<4sI4I")


def save_field(path, field: MetricField) -> None:
    """Flat binary layout: magic, version, dims (uint32 LE), then row-major
    complex doubles of the (dims + (2, 2)) array."""
    data = np.ascontiguousarray(field.values, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FIELD_MAGIC, FIELD_VERSION, *field.grid.dims))
        fh.write(data.tobytes())


def load_field(path) -> MetricField:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated field file")
        magic, version, *dims = _HEADER.unpack(head)
        if magic != FIELD_MAGIC or version != FIELD_VERSION:
            raise ValueError("not a metric field file")
        grid = TorusGrid(tuple(dims))
        raw = fh.read()
    expect = grid.nodes * 4 * 16
    if len(raw) != expect:
        raise ValueError("field file has wrong payload size")
    values = np.frombuffer(raw, dtype=np.complex128).reshape(grid.dims + (2, 2)).copy()
    return MetricField(grid, values)
