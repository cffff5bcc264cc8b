"""Discretization on the flat complex 2-torus.

Periodic grids over [0, 2pi)^4 with real coordinates (x1, x2, x3, x4),
z^1 = x1 + i x2, z^2 = x3 + i x4.  All derivatives are 4th-order central
differences with periodic wraparound,

    f'_i ~ (-f_{i+2} + 8 f_{i+1} - 8 f_{i-1} + f_{i-2}) / (12 h),

second derivatives from the same stencils in one pass.  Integrals are
periodic Riemann sums times the cell volume, reduced with a fixed
pairwise tree so results are bit-reproducible.

Forms follow the (i/2)-coefficient convention of :mod:`plurigeo.hermitian`:
a real (1,1)-form is a Hermitian coefficient matrix per node, the (2,0)
and (0,2) parts are single complex components (coefficients of
dz^1 ^ dz^2 and dzbar^1 ^ dzbar^2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .families import MetricFamily
from .hermitian import HermitianJet, SurfaceJet, surface_flow

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


def _periodic_diff(u: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order periodic first derivative along ``axis`` (into ``out`` if given).

    Every shifted operand is a slice of one copy of ``u`` padded by two
    wrapped cells at each end of the axis; the differences are grouped in
    pairs so constants differentiate to exact zero.
    """
    n = u.shape[axis]
    lead = (slice(None),) * axis
    pad = np.concatenate((u[lead + (slice(n - 2, n),)], u, u[lead + (slice(0, 2),)]), axis=axis)

    def shifted(k: int) -> np.ndarray:  # u[i + k] for every i
        return pad[lead + (slice(2 + k, n + 2 + k),)]

    out = np.subtract(shifted(1), shifted(-1), out=out)
    out *= 8.0
    out -= shifted(2) - shifted(-2)
    out /= 12.0 * h
    return out


def _stencil_rows(f: np.ndarray, h: tuple, holomorphic: bool = False):
    """The one derivative pass over real fields ``f`` (the last axis, after
    the four grid axes, so every stencil slice is a contiguous run).  Yields
    one row group at a time, row axis first: ``del_{z^k} f`` for k = 0, 1;
    ``del_{z^k} del_{zbar^l} f`` for ``(k, l) = (0, 0), (1, 1), (0, 1)``;
    with ``holomorphic``, ``del_{z^k} del_{z^l} f`` for the same pairs."""

    def diff(u, a, out=None):  # del_{x_a}
        return _periodic_diff(u, u.ndim - 5 + a, h[a], out)

    # first derivatives in axis order 0, 2, 3, 1, so that each group of
    # second derivatives below differentiates a slice, not a copy
    d = np.empty((4,) + f.shape)
    for slot, a in enumerate((0, 2, 3, 1)):
        diff(f, a, out=d[slot])
    # del_{z^k} f = (f_x - i f_y) / 2 with (x, y) = axes (2k, 2k + 1)
    z = np.empty((2,) + f.shape, dtype=complex)
    np.multiply(d[0:2], 0.5, out=z.real)
    np.multiply(d[3:1:-1], -0.5, out=z.imag)
    yield z
    del z

    d0 = diff(d[0:3], 0)  # f_00, f_02, f_03
    d1 = diff(d[1:4], 1)  # f_12, f_13, f_11
    f22, f33 = diff(d[1], 2), diff(d[2], 3)
    z = np.zeros((3,) + f.shape, dtype=complex)
    np.add(d0[0], d1[2], out=z.real[0])  # f_00 + f_11
    np.add(f22, f33, out=z.real[1])  # f_22 + f_33
    np.add(d0[1], d1[1], out=z.real[2])  # f_02 + f_13
    np.subtract(d0[2], d1[0], out=z.imag[2])  # f_03 - f_12
    z *= 0.25
    yield z
    if holomorphic:
        del z
        z = np.empty((3,) + f.shape, dtype=complex)
        np.subtract(d0[0], d1[2], out=z.real[0])  # f_00 - f_11
        np.multiply(diff(d[3], 0), -2.0, out=z.imag[0])  # -2 f_01
        np.subtract(f22, f33, out=z.real[1])  # f_22 - f_33
        np.multiply(diff(d[1], 3), -2.0, out=z.imag[1])  # -2 f_23
        np.subtract(d0[1], d1[1], out=z.real[2])  # f_02 - f_13
        np.negative(d0[2] + d1[0], out=z.imag[2])  # -(f_03 + f_12)
        z *= 0.25
        yield z


def _metric_fields(v: np.ndarray) -> np.ndarray:
    """The four real fields ``g11, g22, Re g12, Im g12`` on a trailing axis."""
    return np.stack([v[..., 0, 0].real, v[..., 1, 1].real, v[..., 0, 1].real, v[..., 0, 1].imag], axis=-1)


def _metric_entries(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Component-leading ``D g_{i jbar}`` from ``D`` of the four real fields
    ``g11, g22, Re g12, Im g12`` (the last axis of ``z``), for a derivative
    ``D`` that is linear over the reals: shape ``(L, 2, 2) + grid dims``,
    into ``out`` if given."""
    if out is None:
        out = np.empty(z.shape[:1] + (2, 2) + z.shape[1:-1], dtype=complex)
    out[:, 0, 0] = z[..., 0]
    out[:, 1, 1] = z[..., 1]
    iq = 1j * z[..., 3]
    np.add(z[..., 2], iq, out=out[:, 0, 1])  # D g12
    np.subtract(z[..., 2], iq, out=out[:, 1, 0])  # D g21 = D conj(g12)
    return out


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

    def coords(self) -> list[np.ndarray]:
        axes = [np.arange(n) * h for n, h in zip(self.dims, self.spacing)]
        return np.meshgrid(*axes, indexing="ij")

    def dx(self, u: np.ndarray, axis: int) -> np.ndarray:
        """4th-order periodic derivative along a real axis."""
        if axis not in (0, 1, 2, 3):
            raise ValueError("axis must be 0..3")
        u = np.asarray(u)
        if u.dtype.kind in "biu":
            u = u.astype(float)
        return _periodic_diff(u, axis, self.spacing[axis])

    def dz(self, u: np.ndarray, k: int) -> np.ndarray:
        """Holomorphic derivative del_{z^k} = (del_x - i del_y) / 2, k in {0, 1}."""
        return 0.5 * (self.dx(u, 2 * k) - 1j * self.dx(u, 2 * k + 1))

    def dzbar(self, u: np.ndarray, k: int) -> np.ndarray:
        return 0.5 * (self.dx(u, 2 * k) + 1j * self.dx(u, 2 * k + 1))

    def integrate(self, values: np.ndarray):
        """Periodic Riemann sum times the cell volume (pairwise reduction)."""
        return pairwise_sum(values) * self.cell

    def complex_hessian(self, u: np.ndarray) -> np.ndarray:
        """Matrix ``h[..., i, j] = del_{z^i} del_{zbar^j} u`` per node of a real
        ``u`` of shape ``dims``, from one stencil pass."""
        f = np.asarray(u).astype(float, casting="safe")  # a complex u raises TypeError
        _, z = _stencil_rows(f.reshape(self.dims + (1,)), self.spacing)
        # rows (0, 0), (0, 1), (1, 0), (1, 1); (1, 0) is conj (0, 1) on a real field
        return np.stack([z[0], z[2], np.conj(z[2]), z[1]], axis=-1).reshape(self.dims + (2, 2))


# ---------------------------------------------------------------------------
# metric fields


@dataclass(frozen=True)
class MetricField:
    """Hermitian positive 2x2 matrix per node of a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray  # shape dims + (2, 2), complex

    def __post_init__(self):
        expect = self.grid.dims + (2, 2)
        if self.values.shape != expect:
            raise ValueError(f"values must have shape {expect}")

    def check(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValueError("metric field has non-finite values")
        dev = np.abs(self.values - np.conj(self.values.swapaxes(-1, -2))).max()
        if dev > 1e-12:
            raise ValueError(f"metric field not Hermitian (deviation {dev:.3e})")
        if self.eigenvalues()[0].min() <= 0:
            raise ValueError("metric field not positive definite")

    def det(self) -> np.ndarray:
        v = self.values
        return (v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]).real

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``(lambda_min, lambda_max) = (a+d)/2 -+ hypot((a-d)/2, |b|)`` of
        ``[[a, b], [conj b, d]]``, halved first and with ``hypot``: no intermediate overflows."""
        v = self.values
        half_a, half_d = 0.5 * v[..., 0, 0].real, 0.5 * v[..., 1, 1].real
        mid, rad = half_a + half_d, np.hypot(half_a - half_d, np.abs(v[..., 0, 1]))
        return mid - rad, mid + rad

    def volume(self) -> float:
        return float(self.grid.integrate(self.det()))

    def jets(self) -> tuple[HermitianJet, dict[str, float]]:
        """Full jets at every node: the stencil pass of :meth:`surface_jet`
        plus its holomorphic rows, each row group written straight into the
        jet.  The ``(k, l) = (1, 0)`` rows are copied from ``(0, 1)``, so
        ``d2h`` is symmetric and ``d2m`` real by construction and both
        reported deviations are 0."""
        g, dims = self.values, self.grid.dims
        d1 = np.empty(dims + (2, 2, 2), dtype=complex)
        d2m, d2h = (np.empty(dims + (2, 2, 2, 2), dtype=complex) for _ in range(2))
        rows = _stencil_rows(_metric_fields(g), self.grid.spacing, holomorphic=True)
        _metric_entries(next(rows), out=np.moveaxis(d1, (0, 1, 2, 3), (3, 4, 5, 6)))
        for d2 in (d2m, d2h):
            z, lead = next(rows), np.moveaxis(d2, (0, 1, 2, 3), (4, 5, 6, 7))  # (k, l, i, j) + dims
            for r, (k, l) in enumerate(((0, 0), (1, 1), (0, 1))):
                _metric_entries(z[r : r + 1], out=lead[k, l][None])
            del z
        np.conjugate(d2m[..., 0, 1, :, :].swapaxes(-1, -2), out=d2m[..., 1, 0, :, :])
        d2h[..., 1, 0, :, :] = d2h[..., 0, 1, :, :]
        return HermitianJet(g=g, d1=d1, d2m=d2m, d2h=d2h), {"d2h_symmetry": 0.0, "d2m_reality": 0.0}

    def surface_jet(self) -> SurfaceJet:
        """First and mixed second derivatives at every node, in one stencil
        pass over the four real fields ``g11, g22, Re g12, Im g12`` (``g21``
        is read as the conjugate of ``g12``), so ``d2m`` is real by construction."""
        z1, z2 = _stencil_rows(_metric_fields(self.values), self.grid.spacing)
        return SurfaceJet(g=self.values, d1=_metric_entries(z1), d2m=_metric_entries(z2))


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

    x = grid.coords()
    jet = jet_at(family, tuple(x))
    g = np.ascontiguousarray(np.broadcast_to(jet.g, grid.dims + (2, 2)))
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
    """A 2-form per node, split into (2,0)/(1,1)/(0,2) blocks.

    ``p11[..., i, j]`` is the (i/2)-convention coefficient matrix; ``p20``
    and ``p02`` are the coefficients of dz^1^dz^2 and dzbar^1^dzbar^2.
    """

    grid: TorusGrid
    p11: np.ndarray
    p20: np.ndarray | None = None
    p02: np.ndarray | None = None

    def __post_init__(self):
        if self.p11.shape != self.grid.dims + (2, 2):
            raise ValueError("p11 must have shape dims + (2, 2)")
        for name in ("p20", "p02"):
            v = getattr(self, name)
            if v is not None and v.shape != self.grid.dims:
                raise ValueError(f"{name} must have shape dims")

    @classmethod
    def from_metric(cls, field: MetricField) -> "FormField":
        return cls(field.grid, field.values)

    def block20(self) -> np.ndarray:
        return self.p20 if self.p20 is not None else np.zeros(self.grid.dims, complex)

    def block02(self) -> np.ndarray:
        return self.p02 if self.p02 is not None else np.zeros(self.grid.dims, complex)

    def reality_deviation(self) -> float:
        herm = np.abs(self.p11 - np.conj(self.p11.swapaxes(-1, -2))).max()
        conj = np.abs(self.block02() - np.conj(self.block20())).max()
        return float(max(herm, conj))

    def pluriclosed_defect(self) -> np.ndarray:
        """|del dbar beta| per node (only the (1,1) block contributes on a surface):
        with ``D_a = dx(., a)``, ``s = b01 + b10`` and ``t = b01 - b10``,
        ``4 del dbar beta = D_0 (D_0 b11 - D_2 s + i D_3 t) + D_1 (D_1 b11 - D_3 s
        - i D_2 t) + D_2 D_2 b00 + D_3 D_3 b00``, each entry differentiated only
        along the axes its term reads."""
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


def degree(field: MetricField, scal: np.ndarray | None = None) -> float:
    """Gauduchon degree ``int (-(i/2) del dbar log det g) ^ omega``.

    The first-Chern form traced against the metric is the Chern scalar
    curvature, so the degree is ``int s_Chern det g dx``.  ``scal`` may be
    passed when the caller has it; otherwise it comes from the surface
    kernel, which keeps the degree consistent with the discrete volume
    evolution of the flow.
    """
    if scal is None:
        scal = surface_flow(field.surface_jet()).scal
    return float(field.grid.integrate(scal * field.det()))


def divisor_area(field: MetricField) -> float:
    """Area of the divisor slice {z^2 = const} (indices x3 = x4 = 0)."""
    h = field.grid.spacing
    slice_vals = field.values[:, :, 0, 0, 0, 0].real
    return float(pairwise_sum(slice_vals) * h[0] * h[1])


# ---------------------------------------------------------------------------
# exterior derivative


def real_components(form: FormField) -> np.ndarray:
    """Real-coordinate components C_ab of the 2-form, packed along the last
    axis in the order of :data:`PAIRS` (complex; imaginary parts vanish for
    real forms up to the input's reality defect)."""
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
    blocks = []
    if form.p20 is not None:
        blocks.append((form.p20, _DZ[0], _DZ[1]))
    if form.p02 is not None:
        blocks.append((form.p02, _DZ[2], _DZ[3]))
    for coeff, u, v in blocks:
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
