"""Static-metric diagnostics and the associated integral identities.

A metric is static when its static operator is a constant multiple of the
Kaehler form.  For an arbitrary field this module estimates the best
constant by L2 projection and reports the residual together with the
integral identities static metrics satisfy: the wedge/volume identity,
the degree pairing against a closed line-bundle class, the quadratic
intersection inequalities, the reverse Cauchy-Schwarz inequality for
pluriclosed (1,1)-forms, and the closed two-form extension built from a
nonzero static constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import hermitian as hm
from .grid import (
    FormField,
    MetricField,
    ThreeForm,
    degree,
    exterior_derivative,
    form_wedge,
    wedge_pair,
)

__all__ = [
    "StaticReport",
    "lambda_estimate",
    "static_report",
    "write_static_report",
    "buchdahl_check",
    "BuchdahlResult",
    "hermitian_symplectic",
    "HermitianSymplecticResult",
]


def lambda_estimate(
    field: MetricField, hodge: hm.HodgeOperators | None = None
) -> tuple[float, float]:
    """L2-projected static constant and the discarded imaginary residue.

    ``lambda* = int <Phi, omega> dV / int <omega, omega> dV`` in the
    (i/2)-coefficient pairing; the denominator is 2 Vol.  ``<Phi, omega>``
    is the g-trace ``g^{i jbar} Phi_{i jbar}``, so ``<Phi, omega> dV`` is the
    wedge density of ``Phi`` and ``omega``.  ``hodge`` is the field's
    :func:`~plurigeo.hermitian.surface_hodge` when the caller has it.
    """
    if hodge is None:
        hodge = hm.surface_hodge(field.surface_jet())
    num = field.grid.integrate(wedge_pair(hodge.static_op, field.values))
    den = 2.0 * field.grid.integrate(field.det())
    lam = num / den
    return float(lam.real), float(abs(lam.imag))


@dataclass(frozen=True)
class StaticReport:
    """The static diagnostics of :func:`static_report`.

    ``lambda_imag_residue`` is ``|Im lambda*|``, which :func:`lambda_estimate`
    discards.  ``<Phi, omega> dV`` is the wedge density of the Hermitian
    ``Phi`` and ``g``, whose imaginary part cancels exactly on an exactly
    Hermitian ``g``, so it reads exactly 0.0 there (on every sampled family)
    and measures only the off-Hermitian part of a loaded field, which
    ``MetricField.check`` admits up to 1e-12.
    """

    lambda_star: float
    lambda_imag_residue: float
    residual_l2: float
    residual_max: float
    vol: float
    degree: float
    e_w: float
    gap_wedge_volume: float        # (d - 2 lambda Vol) - 2 E_w
    deg_bundle: float
    c1_pairing: float              # c1(M).c1(L)
    gap_degree_pairing: float      # c1(M).c1(L) - lambda deg L
    c1_squared: float
    intersection_upper: float      # c1^2 - 2 lambda d + d^2/2
    intersection_lower: float      # -c1^2 + d^2/2

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def static_report(field: MetricField, c1_bundle: np.ndarray) -> StaticReport:
    """Static diagnostics of a metric field against a constant closed
    (1,1) bundle class given by a Hermitian coefficient matrix."""
    c1_bundle = np.asarray(c1_bundle, dtype=complex)
    if c1_bundle.shape != (2, 2):
        raise ValueError("bundle class must be a 2x2 coefficient matrix")
    if not np.isfinite(c1_bundle).all():
        raise ValueError("bundle class must be finite")
    if np.abs(c1_bundle - c1_bundle.conj().T).max() > 1e-12:
        raise ValueError("bundle class must be Hermitian (real form)")

    grid = field.grid
    # one stencil pass and one evaluation of each kernel per report
    jet = field.surface_jet()
    hodge = hm.surface_hodge(jet)
    surf = hm.surface_flow(jet, ("scal",))
    g = field.values
    det = surf.det
    vol = float(grid.integrate(det))
    lam, lam_imag = lambda_estimate(field, hodge)

    sq = hm.hermitian_norm_sq(g, hodge.static_op - lam * g)
    residual_l2 = float(np.sqrt(max(grid.integrate(sq * det), 0.0)))
    residual_max = float(np.sqrt(max(sq.max(), 0.0)))

    d = degree(field, surf)
    e_w = float(grid.integrate(surf.w_sq * det))

    bundle_field = np.broadcast_to(c1_bundle, grid.dims + (2, 2))
    deg_bundle = float(grid.integrate(wedge_pair(bundle_field, g).real))
    c1_rep = -hodge.chern_ricci  # first-Chern form -(i/2) del dbar log det g
    c1_pair = float(grid.integrate(wedge_pair(c1_rep, bundle_field).real))
    c1_sq = float(grid.integrate(wedge_pair(c1_rep, c1_rep).real))

    return StaticReport(
        lambda_star=lam,
        lambda_imag_residue=lam_imag,
        residual_l2=residual_l2,
        residual_max=residual_max,
        vol=vol,
        degree=d,
        e_w=e_w,
        gap_wedge_volume=(d - 2.0 * lam * vol) - 2.0 * e_w,
        deg_bundle=deg_bundle,
        c1_pairing=c1_pair,
        gap_degree_pairing=c1_pair - lam * deg_bundle,
        c1_squared=c1_sq,
        intersection_upper=c1_sq - 2.0 * lam * d + 0.5 * d**2,
        intersection_lower=-c1_sq + 0.5 * d**2,
    )


def write_static_report(path, report: StaticReport) -> None:
    from .flow import _atomic_write_text

    _atomic_write_text(path, report.to_json())


# ---------------------------------------------------------------------------
# reverse Cauchy-Schwarz inequality


@dataclass(frozen=True)
class BuchdahlResult:
    gap: float
    scale: float
    omega_psi: float
    omega_sq: float
    psi_sq: float


def buchdahl_check(omega: MetricField, psi: FormField) -> BuchdahlResult:
    """Gap of the reverse Cauchy-Schwarz inequality for a real pluriclosed
    (1,1)-form psi against the metric form:
    ``gap = (int omega ^ psi)^2 - (int omega^2)(int psi^2) >= 0``."""
    if psi.grid.dims != omega.grid.dims:
        raise ValueError("psi must live on the metric's grid")
    if psi.reality_deviation() > 1e-10:
        raise ValueError("psi must be a real (1,1)-form")
    defect = psi.pluriclosed_defect().max()
    scale_psi = max(1.0, float(np.abs(psi.p11).max()))
    if defect > 1e-6 * scale_psi:
        raise ValueError(f"psi is not pluriclosed (defect {defect:.3e})")
    grid = omega.grid
    omega_form = FormField.from_metric(omega)
    op = float(grid.integrate(form_wedge(omega_form, psi).real))
    oo = float(grid.integrate(form_wedge(omega_form, omega_form).real))
    pp = float(grid.integrate(form_wedge(psi, psi).real))
    gap = op**2 - oo * pp
    scale = max(1.0, op**2, abs(oo * pp))
    return BuchdahlResult(gap=gap, scale=scale, omega_psi=op, omega_sq=oo, psi_sq=pp)


# ---------------------------------------------------------------------------
# Hermitian-symplectic extension


@dataclass(frozen=True)
class HermitianSymplecticResult:
    omega_tilde: FormField
    d_omega_tilde: ThreeForm
    identity_residual: ThreeForm
    identity_max: float
    identity_l2: float
    self_intersection: float


def hermitian_symplectic(field: MetricField, lam: float) -> HermitianSymplecticResult:
    """Closed extension ``omega_tilde = omega - (1/lam)(dbar del* omega + del dbar* omega)``.

    The closedness of ``omega_tilde`` for a static metric with constant
    ``lam`` follows from an algebraic identity that holds for every metric:
    ``d omega_tilde + (1/lam) d(Phi - lam omega) = 0`` up to the exact
    discrete derivative of the first-Chern form, which vanishes in the
    continuum.  That universal residual is returned along with
    ``int omega_tilde ^ omega_tilde`` (strictly positive).
    """
    if not np.isfinite(lam):
        raise ValueError(f"construction needs a finite lambda, got {lam!r}")
    if lam == 0:
        raise ValueError("construction undefined at lambda = 0")
    grid = field.grid
    hodge = hm.surface_hodge(field.surface_jet())

    # (2,0) block: -(1/lam) del(dbar* omega); (0,2) block: -(1/lam) dbar(del* omega)
    beta = hodge.dbar_star  # (1,0)-form components
    alpha = hodge.del_star  # (0,1)-form components
    p20 = -(grid.dz(beta[..., 1], 0) - grid.dz(beta[..., 0], 1)) / lam
    p02 = -(grid.dzbar(alpha[..., 1], 0) - grid.dzbar(alpha[..., 0], 1)) / lam
    omega_tilde = FormField(grid, field.values.copy(), p20=p20, p02=p02)

    d_tilde = exterior_derivative(omega_tilde)
    flow_part = FormField(grid, hodge.static_op - lam * field.values)
    d_flow = exterior_derivative(flow_part)
    resid = ThreeForm(grid, d_tilde.components + d_flow.components / lam)

    self_int = float(grid.integrate(form_wedge(omega_tilde, omega_tilde).real))
    return HermitianSymplecticResult(
        omega_tilde=omega_tilde,
        d_omega_tilde=d_tilde,
        identity_residual=resid,
        identity_max=resid.max_norm(),
        identity_l2=resid.l2_norm(),
        self_intersection=self_int,
    )
