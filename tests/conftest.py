import os
import threading

import numpy as np
import pytest

from plurigeo import hermitian as hm
from plurigeo.families import MetricFamily
from plurigeo.grid import MetricField, TorusGrid, _periodic_diff, perturb_with_potential, sample


@pytest.fixture(scope="session")
def torus_field():
    return sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))


@pytest.fixture(scope="session")
def kahler_field():
    return sample(MetricFamily("kahler_potential", 0.4), (16, 4, 16, 4))


@pytest.fixture(scope="session")
def flat_field():
    return sample(MetricFamily("flat"), (8, 4, 8, 4))


@pytest.fixture(scope="session")
def generic_fields():
    """All-axis fields at 8^4: a pluriclosed one and a generic one."""
    return all_axis_fields()


def all_axis_fields():
    """The ``generic_fields`` pair: a pluriclosed all-axis field at 8^4 and a
    generic one (its diagonal perturbed off pluriclosedness)."""
    base = sample(MetricFamily("torus_pluriclosed", 0.5), (8, 8, 8, 8))
    pluriclosed = perturb_with_potential(base, 0.05 * random_trig(base.grid, 7))
    x = base.grid.coords()
    values = pluriclosed.values.copy()
    values[..., 0, 0] += 0.1 * np.cos(x[1]) * np.sin(x[3])
    values[..., 1, 1] += 0.1 * np.sin(x[0] + x[2])
    return pluriclosed, MetricField(base.grid, values)


def cross_field():
    """The generic all-axis field, also varied along x0 + x1, x2 + x3, x0 + x3
    and x1 - x2, so that no real second derivative f_ab of it vanishes (the
    other fields have no f_03 or f_12, so the (0, 1) mixed row's imaginary
    part f_03 - f_12 is zero on them)."""
    generic = all_axis_fields()[1]
    x = generic.grid.coords()
    values = generic.values.copy()
    values[..., 0, 0] += 0.05 * np.sin(x[0] + x[1])
    values[..., 1, 1] += 0.05 * np.cos(x[2] + x[3])
    bump = 0.05 * np.cos(x[0] + x[3]) + 0.05j * np.sin(x[1] - x[2])
    values[..., 0, 1] += bump
    values[..., 1, 0] += np.conj(bump)
    cross = MetricField(generic.grid, values)
    cross.check()
    return cross


def dzbar(grid: TorusGrid, u: np.ndarray, k: int) -> np.ndarray:
    """``del_{zbar^k} = (del_x + i del_y) / 2`` from the grid's ``dx``: the
    partner of ``TorusGrid.dz`` in the composition oracles."""
    return 0.5 * (grid.dx(u, 2 * k) + 1j * grid.dx(u, 2 * k + 1))


def composed_jets(field):
    """Full jets as ``dz``/``dzbar`` compositions, made symmetric and real by
    averaging: the oracle of the one-pass ``MetricField.jets``."""
    g, grid = field.values, field.grid
    d1 = np.stack([grid.dz(g, k) for k in range(2)], axis=-3)
    d2m = np.zeros(grid.dims + (2, 2, 2, 2), dtype=complex)
    d2h = np.zeros(grid.dims + (2, 2, 2, 2), dtype=complex)
    for k in range(2):
        for l in range(2):
            d2m[..., k, l, :, :] = dzbar(grid, d1[..., k, :, :], l)
            d2h[..., k, l, :, :] = grid.dz(d1[..., k, :, :], l)
    d2h = 0.5 * (d2h + d2h.swapaxes(-4, -3))
    d2m = 0.5 * (d2m + np.conj(d2m.swapaxes(-4, -3).swapaxes(-2, -1)))
    return hm.HermitianJet(g=g, d1=d1, d2m=d2m, d2h=d2h)


def random_jet(seed: int, pluriclosed: bool = False) -> hm.HermitianJet:
    """Deterministic random jet: the batch of one of
    :func:`hm.random_jet_batch`, drawn from ``np.random.default_rng(seed)``."""
    jet = hm.random_jet_batch(np.random.default_rng(seed), 1, pluriclosed)
    return hm.HermitianJet(g=jet.g[0], d1=jet.d1[0], d2m=jet.d2m[0], d2h=jet.d2h[0])


def dbar_dbar_star(ops: hm.HodgeOperators) -> np.ndarray:
    """The ``(dbar dbar* omega)`` coefficient matrix of ``ops``,
    ``del_del_star^H``: the block no code of the package reads."""
    return np.conj(ops.del_del_star.swapaxes(-1, -2))


def kahler_ricci(jet: hm.HermitianJet) -> np.ndarray:
    """Independent Ricci oracle ``-del_j del_kbar log det g`` (valid as Ricci
    on Kaehler jets), from the einsum ``hodge_operators``."""
    return -hm.hodge_operators(jet).chern_ricci


def surface_jet_of(jet: hm.HermitianJet) -> hm.SurfaceJet:
    """The surface kernels' input as views of a full jet's components
    (``d2h`` is not needed): how the oracle tests feed full jets to them."""
    rows = np.stack([jet.d2m[..., 0, 0, :, :], jet.d2m[..., 1, 1, :, :], jet.d2m[..., 0, 1, :, :]])
    return hm.SurfaceJet(
        g=jet.g,
        d1=np.moveaxis(jet.d1, (-3, -2, -1), (0, 1, 2)),
        d2m=np.moveaxis(rows, (-2, -1), (1, 2)),
    )


def stencil_rows(f: np.ndarray, h: tuple) -> tuple:
    """The grouped derivative pass, frozen: the oracle of the one pass
    (``grid._stencil_half``), which it once was for ``surface_jet`` on small
    grids and for ``complex_hessian``.  Real fields ``f`` sit on the last
    axis, after the four grid axes, and every numpy call takes all of
    them.  Returns two row groups, row axis first: ``del_{z^k} f`` for k =
    0, 1; then ``del_{z^k} del_{zbar^l} f`` for ``(k, l) = (0, 0), (1, 1),
    (0, 1)``."""

    def diff(u, a, out=None):  # del_{x_a}
        return _periodic_diff(u, u.ndim - 5 + a, h[a], out)

    # first derivatives in axis order 0, 2, 3, 1, so that each group of
    # second derivatives below differentiates a slice, not a copy
    d = np.empty((4,) + f.shape)
    for slot, a in enumerate((0, 2, 3, 1)):
        diff(f, a, out=d[slot])
    # del_{z^k} f = (f_x - i f_y) / 2 with (x, y) = axes (2k, 2k + 1)
    first = np.empty((2,) + f.shape, dtype=complex)
    np.multiply(d[0:2], 0.5, out=first.real)
    np.multiply(d[3:1:-1], -0.5, out=first.imag)

    d0 = diff(d[0:3], 0)  # f_00, f_02, f_03
    d1 = diff(d[1:4], 1)  # f_12, f_13, f_11
    f22, f33 = diff(d[1], 2), diff(d[2], 3)
    mixed = np.zeros((3,) + f.shape, dtype=complex)
    np.add(d0[0], d1[2], out=mixed.real[0])  # f_00 + f_11
    np.add(f22, f33, out=mixed.real[1])  # f_22 + f_33
    np.add(d0[1], d1[1], out=mixed.real[2])  # f_02 + f_13
    np.subtract(d0[2], d1[0], out=mixed.imag[2])  # f_03 - f_12
    mixed *= 0.25
    return first, mixed


def grouped_surface_jet(field: MetricField) -> hm.SurfaceJet:
    """``surface_jet`` from :func:`stencil_rows` over ``g11, g22, Re g12,
    Im g12``, with ``D g12 = D Re g12 + i D Im g12`` and ``D g21`` its
    conjugate form, as the grouped pass assembled it."""
    v = field.values
    fields = np.stack([v[..., 0, 0].real, v[..., 1, 1].real, v[..., 0, 1].real, v[..., 0, 1].imag], axis=-1)

    def entries(z):
        out = np.empty(z.shape[:1] + (2, 2) + z.shape[1:-1], dtype=complex)
        out[:, 0, 0] = z[..., 0]
        out[:, 1, 1] = z[..., 1]
        iq = 1j * z[..., 3]
        np.add(z[..., 2], iq, out=out[:, 0, 1])
        np.subtract(z[..., 2], iq, out=out[:, 1, 0])
        return out

    first, mixed = stencil_rows(fields, field.grid.spacing)
    return hm.SurfaceJet(g=v, d1=entries(first), d2m=entries(mixed))


def grouped_complex_hessian(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    """``complex_hessian`` from :func:`stencil_rows` on ``u`` as one field."""
    _, z = stencil_rows(np.asarray(u, dtype=float).reshape(grid.dims + (1,)), grid.spacing)
    return np.stack([z[0], z[2], np.conj(z[2]), z[1]], axis=-1).reshape(grid.dims + (2, 2))


def random_trig(grid: TorusGrid, seed: int, modes: int = 2, amp: float = 1.0):
    """Seeded real trigonometric polynomial on the grid (all four axes)."""
    rng = np.random.default_rng(seed)
    x = grid.coords()
    out = np.zeros(grid.dims)
    for axis in range(4):
        kmax = min(modes, grid.dims[axis] // 2 - 1)
        for k in range(1, kmax + 1):
            a, b = rng.uniform(-1, 1, 2)
            out += amp * (a * np.cos(k * x[axis]) + b * np.sin(k * x[axis]))
    return out


def cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# every test that needs the worker thread skips below 2 CPUs, so no test
# starts more threads than there are cores
two_cpus = pytest.mark.skipif(cpus() < 2, reason="the split work needs 2 CPUs")


def worker_ran(names) -> bool:
    """Whether any of the thread ``names`` is the worker thread's."""
    return any(n.startswith("plurigeo-stencil") for n in names)


@pytest.fixture
def kernel_threads(monkeypatch):
    """Names of the threads that ran the surface kernel's frame (``hermitian._frame``)."""
    names = []
    real = hm._frame

    def spy(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(hm, "_frame", spy)
    return names


@pytest.fixture
def identity_threads(monkeypatch):
    """Names of the threads that checked a batch of ``identity_suite``: each
    batch, whole or half, takes its ``hodge_operators`` once."""
    names = []
    real = hm.hodge_operators

    def spy(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(hm, "hodge_operators", spy)
    return names


@pytest.fixture
def kernel_jets(monkeypatch):
    """The jets the surface kernels received, in order: ``hermitian.surface_flow``
    (a flow stage's and a record's) and ``hermitian.surface_hodge``."""
    jets = []
    for name in ("surface_flow", "surface_hodge"):
        real = getattr(hm, name)

        def spy(jet, *args, real=real, **kwargs):
            jets.append(jet)
            return real(jet, *args, **kwargs)

        monkeypatch.setattr(hm, name, spy)
    return jets


def data_blocks(arrays) -> set:
    """The addresses of the first elements of ``arrays``: one for arrays that
    are the same block."""
    return {a.__array_interface__["data"][0] for a in arrays}
