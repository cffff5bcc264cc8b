"""The periodic first derivative against the sliced stencil it replaced.

``grid._periodic_diff`` takes the two differences of the 4th-order stencil
as products with difference matrices on axes of up to 16 points.  Every
row of those products has exactly two nonzero terms, both exact, so the
result must be bit for bit that of :func:`sliced_diff`, the padded-copy
form below: for real and complex input, along every axis, with the field
axes before or after the grid axes, and with or without caller buffers.
"""

import math

import numpy as np
import pytest

from plurigeo import grid

SIZES = (4, 6, 8, 16, 32, 64, 128)


def sliced_diff(u, axis, h, out=None, pad=None, tmp=None):
    """The oracle: every shifted operand a slice of one copy of ``u`` padded
    by two wrapped cells at each end of ``axis``."""
    n = u.shape[axis]
    lead = (slice(None),) * axis
    pad = np.concatenate((u[lead + (slice(n - 2, n),)], u, u[lead + (slice(0, 2),)]), axis=axis, out=pad)

    def shifted(k):  # u[i + k] for every i
        return pad[lead + (slice(2 + k, n + 2 + k),)]

    out = np.subtract(shifted(1), shifted(-1), out=out)
    out *= 8.0
    out -= np.subtract(shifted(2), shifted(-2), out=tmp)
    out /= 12.0 * h
    return out


def _values(rng, shape, dtype):
    """Finite values over the whole range the bit-identity covers (|x| <
    2**1020, subnormals included), with repeats, zeros and negative zeros."""

    def real():
        x = rng.standard_normal(shape) * np.exp2(rng.integers(-1070, 1016, shape).astype(float))
        x[rng.random(shape) < 0.1] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        x[rng.random(shape) < 0.1] = 1.5
        return x

    return real() if dtype is float else real() + 1j * real()


def _layouts(n):
    """(shape, axis) for each grid axis of a grid with that axis of ``n``
    points: fields leading, fields trailing, and no field axis."""
    for a in range(4):
        dims = [4, 6, 4, 4]
        dims[a] = n
        dims = tuple(dims)
        yield (2,) + dims, a + 1
        yield dims + (3,), a
        yield dims, a


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", SIZES)
def test_matches_the_sliced_stencil(n, dtype):
    rng = np.random.default_rng(1000 * n + (dtype is complex))
    h = grid.TWO_PI / n
    forms = set()
    for shape, axis in _layouts(n):
        u = _values(rng, shape, dtype)
        with np.errstate(over="raise", invalid="raise"):
            expect = sliced_diff(u, axis, h)
            got = grid._periodic_diff(u, axis, h)
            out, tmp = np.empty_like(u), np.empty_like(u)
            pad = np.empty(shape[:axis] + (n + 4,) + shape[axis + 1 :], dtype)
            into = grid._periodic_diff(u, axis, h, out, tmp, pad if n > grid._PRODUCT_MAX else None)
        assert np.array_equal(got, expect), (shape, axis)
        assert into is out and np.array_equal(out, expect), (shape, axis)
        # a strided input is read, not required contiguous
        assert np.array_equal(grid._periodic_diff(np.repeat(u, 2, axis=-1)[..., ::2], axis, h), expect)
        run = math.prod(shape[axis + 1 :]) * (2 if dtype is complex else 1)
        forms.add("sliced" if grid._sliced(n, run) else "right" if n * run <= grid._RIGHT_MAX else "left")
    assert forms >= {"right", "left"} if n <= grid._PRODUCT_MAX else forms == {"sliced"}


def test_constants_and_translations_stay_exact():
    rng = np.random.default_rng(5)
    for n in SIZES:
        h = grid.TWO_PI / n
        for shape, axis in _layouts(n):
            assert not grid._periodic_diff(np.full(shape, -3.7), axis, h).any()
            u = rng.standard_normal(shape)
            shifted = grid._periodic_diff(np.roll(u, 3, axis=axis), axis, h)
            assert np.array_equal(shifted, np.roll(grid._periodic_diff(u, axis, h), 3, axis=axis))


@pytest.mark.parametrize("n", [8, 32])
def test_strided_buffers_raise(n):
    u = np.ones((2, 4, n, 4, 4))
    strided = np.empty(u.shape + (2,))[..., 0]
    with pytest.raises(ValueError, match="C-contiguous"):
        grid._periodic_diff(u, 2, 0.1, out=strided)
    with pytest.raises(ValueError, match="C-contiguous"):
        grid._periodic_diff(u, 2, 0.1, np.empty_like(u), strided)


def test_difference_matrices():
    for n in (4, 6, 8, 16):
        m1, m2 = grid._difference_matrices(n, 0)
        assert not m1.flags.writeable and not m2.flags.writeable
        assert np.array_equal(m1, 8.0 * (np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)))
        expect2 = np.roll(np.eye(n), 2, axis=1) - np.roll(np.eye(n), -2, axis=1)
        assert np.array_equal(m2, expect2)
        if n == 4:
            assert not m2.any()  # S^2 = S^-2 on four points
        k1, _ = grid._difference_matrices(n, 2)
        assert np.array_equal(k1, np.kron(m1, np.eye(2)).T)


def _reals(x):
    """``x`` as float64, a complex value as two reals."""
    return np.ascontiguousarray(x).view(float)


def two_products(u, axis, h):
    """The product form before four-point axes took one product: both
    differences as products, then their difference, whatever the second
    matrix holds."""
    n = u.shape[axis]
    run = math.prod(u.shape[axis + 1 :]) * (2 if u.dtype == complex else 1)
    lead = math.prod(u.shape[:axis])
    right = n * run <= grid._RIGHT_MAX
    m1, m2 = grid._difference_matrices(n, run if right else 0)
    reals = _reals(u).reshape((lead, n * run) if right else (lead, n, run))
    out, tmp = (reals @ m1, reals @ m2) if right else (m1 @ reals, m2 @ reals)
    out -= tmp
    out = out.reshape(-1).view(u.dtype).reshape(u.shape)
    out /= 12.0 * h
    return out


def _zero_signs_cleared(x):
    """The bytes of ``x`` with every zero real made +0."""
    return np.where(_reals(x) == 0.0, 0.0, _reals(x)).tobytes()


def _four_point_fields(rng, shape, dtype):
    """Random finite values with exact repeats (no zeros), constant fields,
    and a field of -0 and +0 with a few finite values."""

    def real(kind):
        if kind == "random":
            x = rng.standard_normal(shape) * np.exp2(rng.integers(-1070, 1016, shape).astype(float))
            x[rng.random(shape) < 0.2] = -1.5
            return x
        if kind == "signed zeros":
            x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            x[rng.random(shape) < 0.1] = 2.5
            return x
        return np.full(shape, {"constant": -3.7, "negative zero": -0.0}[kind])

    for kind in ("random", "constant", "negative zero", "signed zeros"):
        yield kind, real(kind) if dtype is float else real(kind) + 1j * real(kind)


@pytest.mark.parametrize("dtype", [float, complex])
def test_four_points_take_one_product(dtype):
    """On four points ``S^2 = S^-2``: one product gives the two products'
    bytes, signed zeros included, and the sliced stencil's bytes, up to
    the sign of an exact zero where the input holds both -0 and +0."""
    rng = np.random.default_rng(44 + (dtype is complex))
    h = grid.TWO_PI / 4
    for shape, axis in _layouts(4):
        for kind, u in _four_point_fields(rng, shape, dtype):
            with np.errstate(over="raise", invalid="raise"):
                got = grid._periodic_diff(u, axis, h)
                expect = sliced_diff(u, axis, h)
            assert got.tobytes() == two_products(u, axis, h).tobytes(), (kind, shape, axis)
            if kind == "signed zeros":
                assert np.array_equal(got, expect)
                assert _zero_signs_cleared(got) == _zero_signs_cleared(expect), (shape, axis)
            else:
                assert got.tobytes() == expect.tobytes(), (kind, shape, axis)
            if kind in ("constant", "negative zero"):
                assert not got.any()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dtype", [float, complex])
def test_four_points_non_finite_entry(dtype, bad):
    """One non-finite entry makes its whole line non-finite, and the rest of
    the flattened block NaN where the product is taken from the right: NaN
    (0 * inf) except, on a real field, the sliced stencil's +-inf at the two
    nodes that weigh an infinite entry by +-8 (a complex division mixes the
    parts' NaN and inf).  Every other entry keeps the sliced stencil's
    bytes."""
    rng = np.random.default_rng(9)
    h = grid.TWO_PI / 4
    for shape, axis in _layouts(4):
        u = rng.standard_normal(shape).astype(dtype)
        at = tuple(int(rng.integers(k)) for k in shape)
        u[at] = bad
        with np.errstate(invalid="ignore"):
            got = grid._periodic_diff(u, axis, h)
            expect = sliced_diff(u, axis, h)
        right = grid._products(shape, u.dtype.char, axis)[3]
        line, block = np.zeros(shape, bool), np.zeros(shape, bool)
        line[at[:axis] + (slice(None),) + at[axis + 1 :]] = True
        block[at[:axis] if right else line] = True
        assert not np.isfinite(_reals(got[line])).any(), (shape, axis)
        assert np.isnan(_reals(got[block & ~line])).all(), (shape, axis)
        if dtype is float:
            assert np.isnan(got[line][np.isnan(expect[line])]).all(), (shape, axis)
            infinite = np.isinf(expect[line])
            assert np.array_equal(got[line][infinite], expect[line][infinite]), (shape, axis)
        if np.isnan(bad):
            assert np.isnan(_reals(got[block])).all(), (shape, axis)
        assert got[~block].tobytes() == expect[~block].tobytes(), (shape, axis)


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_matmul_calls_per_derivative(n, monkeypatch):
    """One product per derivative on four points, two on longer axes."""
    calls = []
    real = np.matmul

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(n)
    for dtype in (float, complex):
        for shape, axis in _layouts(n):
            run = math.prod(shape[axis + 1 :]) * (2 if dtype is complex else 1)
            if grid._sliced(n, run):
                continue
            calls.clear()
            grid._periodic_diff(rng.standard_normal(shape).astype(dtype), axis, 0.1)
            assert len(calls) == (1 if n == 4 else 2), (dtype, shape, axis)


def _symbol(n: int, h: float) -> np.ndarray:
    """The Fourier symbol of the 4th-order stencil on ``n`` points of spacing
    ``h``: ``(8 (S - S^-1) - (S^2 - S^-2)) / (12 h)`` on ``exp(i theta j)`` is
    ``i (8 sin theta - sin 2 theta) / (6 h)``, ``theta = 2 pi k / n``, in the
    order of ``numpy.fft``'s frequencies."""
    theta = 2.0 * np.pi * np.fft.fftfreq(n)
    return 1j * (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)


# one shape per route, the grid axis of length n marked None: a lone axis
# and short runs after it (products from the right up to 32 reals, else
# slices), runs of 8 to 511 reals (products from the left on axes of at
# most 16 points) and runs of 512 reals (slices beyond 8 points)
SYMBOL_SHAPES = ((None,), (None, 3), (2, None, 5), (None, 4, 8), (3, None, 512))


@pytest.mark.parametrize("n", range(4, 33, 2))
def test_is_its_fourier_symbol(n):
    rng = np.random.default_rng(n)
    h = 2.0 * np.pi / n
    routes = set()
    for template in SYMBOL_SHAPES:
        shape = tuple(n if m is None else m for m in template)
        axis = template.index(None)
        for dtype in (float, complex):
            u = rng.standard_normal(shape)
            if dtype is complex:
                u = u + 1j * rng.standard_normal(shape)
            routes.add(grid._products(u.shape, u.dtype.char, axis) is not None)
            symbol = _symbol(n, h).reshape((n,) + (1,) * (len(shape) - axis - 1))
            expect = np.fft.ifft(symbol * np.fft.fft(u, axis=axis), axis=axis)
            if dtype is float:
                assert np.abs(expect.imag).max() <= 1e-14 * np.abs(expect).max()
                expect = expect.real
            got = grid._periodic_diff(u, axis, h)
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max(), (shape, dtype)
    # both forms of the stencil are pinned: products on axes of up to 16
    # points, slices on longer ones and on short runs after 6 to 16 points
    # (4 points always take products)
    assert routes == ({True} if n == 4 else {True, False} if n <= 16 else {False})
