"""Closed-form Hermitian metric families with exact second-order jets.

The torus families live on [0, 2pi)^4 with complex coordinates
``z^1 = x1 + i x2``, ``z^2 = x3 + i x4`` and ``del_z = (del_x - i del_y)/2``.
The Hopf family lives on C^2 minus the origin and is sampled pointwise
only (its natural quotient is not a torus).

Families
--------
flat
    ``g = I``; every derivative vanishes.
kahler_potential(eps), 0 <= eps < 4
    ``g = diag(1 - (eps/4) cos x1, 1 - (eps/4) cos x3)``: Kaehler,
    torsion-free, product of two flat-torus conformal factors.
torus_pluriclosed(eps), 0 <= eps < 1
    ``g_{1 1bar} = g_{2 2bar} = 1``, ``g_{1 2bar} = eps e^{i x3}``:
    pluriclosed with constant determinant ``1 - eps^2`` and nonzero
    torsion for eps > 0.
hopf
    ``g_{i jbar} = delta_ij / rho^2`` on C^2 \\ {0}; static with
    vanishing flow velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianJet

__all__ = ["MetricFamily", "DomainError", "jet_at"]

KINDS = ("flat", "kahler_potential", "torus_pluriclosed", "hopf")


class DomainError(ValueError):
    """Raised when a point lies outside a family's domain."""


@dataclass(frozen=True)
class MetricFamily:
    kind: str
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "kahler_potential" and not 0 <= self.eps < 4:
            raise ValueError("kahler_potential requires 0 <= eps < 4")
        if self.kind == "torus_pluriclosed" and not 0 <= self.eps < 1:
            raise ValueError("torus_pluriclosed requires 0 <= eps < 1")

    @property
    def active_axes(self) -> tuple[int, ...]:
        """Real coordinate axes the metric actually varies along (torus families)."""
        if self.kind == "flat":
            return ()
        if self.kind == "kahler_potential":
            return (0, 2)
        if self.kind == "torus_pluriclosed":
            return (2,)
        raise ValueError("hopf is not a torus family")

    @property
    def on_torus(self) -> bool:
        return self.kind != "hopf"


def _zeros(shape):
    return (
        np.zeros(shape + (2, 2), dtype=complex),
        np.zeros(shape + (2, 2, 2), dtype=complex),
        np.zeros(shape + (2, 2, 2, 2), dtype=complex),
        np.zeros(shape + (2, 2, 2, 2), dtype=complex),
    )


def _kahler_jet(eps, x1, x3):
    x1, x3 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x3, float))
    g, d1, d2m, d2h = _zeros(x1.shape)
    a = eps / 4.0
    g[..., 0, 0] = 1 - a * np.cos(x1)
    g[..., 1, 1] = 1 - a * np.cos(x3)
    # del_{z^1} = (del_{x1} - i del_{x2})/2 acting on x1-only data, etc.
    d1[..., 0, 0, 0] = 0.5 * a * np.sin(x1)
    d1[..., 1, 1, 1] = 0.5 * a * np.sin(x3)
    d2m[..., 0, 0, 0, 0] = 0.25 * a * np.cos(x1)
    d2m[..., 1, 1, 1, 1] = 0.25 * a * np.cos(x3)
    d2h[..., 0, 0, 0, 0] = 0.25 * a * np.cos(x1)
    d2h[..., 1, 1, 1, 1] = 0.25 * a * np.cos(x3)
    return HermitianJet(g, d1, d2m, d2h)


def _torus_pluriclosed_jet(eps, x3):
    x3 = np.asarray(x3, float)
    g, d1, d2m, d2h = _zeros(x3.shape)
    e = np.exp(1j * x3)
    eb = np.conj(e)
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 1.0
    g[..., 0, 1] = eps * e
    g[..., 1, 0] = eps * eb
    d1[..., 1, 0, 1] = 0.5j * eps * e
    d1[..., 1, 1, 0] = -0.5j * eps * eb
    d2m[..., 1, 1, 0, 1] = -0.25 * eps * e
    d2m[..., 1, 1, 1, 0] = -0.25 * eps * eb
    d2h[..., 1, 1, 0, 1] = -0.25 * eps * e
    d2h[..., 1, 1, 1, 0] = -0.25 * eps * eb
    return HermitianJet(g, d1, d2m, d2h)


def _hopf_jet(z1, z2):
    z1 = np.asarray(z1, complex)
    z2 = np.asarray(z2, complex)
    rho2 = (np.abs(z1) ** 2 + np.abs(z2) ** 2).astype(float)
    if np.any(rho2 <= 0):
        raise DomainError("hopf metric undefined at the origin of C^2")
    z = np.stack([z1, z2], axis=-1)
    zb = np.conj(z)
    shape = rho2.shape
    g, d1, d2m, d2h = _zeros(shape)
    eye = np.eye(2)
    g += eye / rho2[..., None, None]
    # del_k g_{i jbar} = -delta_ij zbar_k / rho^4
    d1 += -np.einsum("...k,ij->...kij", zb, eye) / (rho2**2)[..., None, None, None]
    # del_k del_lbar g_{i jbar} = delta_ij (2 z_l zbar_k / rho^6 - delta_kl / rho^4)
    d2m += np.einsum("...l,...k,ij->...klij", z, zb, eye) * (
        2.0 / (rho2**3)[..., None, None, None, None]
    )
    d2m += -np.einsum("kl,ij->klij", eye, eye) / (rho2**2)[..., None, None, None, None]
    # del_k del_l g_{i jbar} = 2 delta_ij zbar_k zbar_l / rho^6
    d2h += np.einsum("...k,...l,ij->...klij", zb, zb, eye) * (
        2.0 / (rho2**3)[..., None, None, None, None]
    )
    return HermitianJet(g, d1, d2m, d2h)


def jet_at(family: MetricFamily, point) -> HermitianJet:
    """Exact jet of the family at a point.

    ``point`` is four real coordinates for the torus families (arrays
    broadcast), or a pair of complex numbers ``(z1, z2)`` for hopf.
    """
    if family.kind == "hopf":
        if len(point) != 2:
            raise ValueError("hopf point must be 2 complex coordinates")
        z1, z2 = (np.asarray(p) for p in point)
        return _hopf_jet(z1, z2)
    if len(point) != 4:
        raise ValueError("torus point must have 4 real coordinates")
    x1, _, x3, _ = (np.asarray(p, float) for p in point)
    if family.kind == "flat":
        return HermitianJet.flat(np.broadcast(x1, x3).shape)
    if family.kind == "kahler_potential":
        return _kahler_jet(family.eps, x1, x3)
    return _torus_pluriclosed_jet(family.eps, np.broadcast_arrays(x1, x3)[1])

