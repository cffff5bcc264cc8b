"""Time integration of the pluriclosed flow on the discrete torus.

Three right-hand sides are supported for the metric coefficient field:

``gflow``
    ``dg/dt = -ric1 + quad1`` (curvature trace minus torsion quadratic).
``normalized``
    ``gflow`` plus the volume-fixing scalar term
    ``(1/2) avg(scal - |T|^2) g`` with ``avg = Vol^-1 int (...) dV``.
``omega_form``
    ``dg/dt`` = minus the static operator coefficients (the Kaehler-form
    flow); requires pluriclosed data and coincides with ``gflow`` on it.

Every velocity comes from one stencil pass
(:meth:`MetricField.surface_jet`): ``gflow`` and ``normalized`` through
the fused surface kernel (:func:`plurigeo.hermitian.surface_flow`),
``omega_form`` through the static operator of
:func:`plurigeo.hermitian.surface_hodge`.  Each caller of the kernel
names the scalars it reads.  An RK4 stage names those of its variant
(``_STAGE_SCALARS``): none for ``gflow``, and for ``normalized`` the
Chern scalar curvature and ``|T|^2`` of its volume term.  A diagnostics
record takes one pass for its velocity and names every scalar of the
diagnostics (``|Omega|^2`` and the pluriclosed residual included); each
output has one formula in the kernel, so a record's velocity has the
bits of a stage's.  The volume term, the record's integrals and its
degree read the ``det g`` the kernel forms.  The pluriclosed defect
``omega_form`` checks, on its initial data (in the step-0 record) and at
every stage, is the same jet's
(:meth:`plurigeo.hermitian.SurfaceJet.pluriclosed_residual`), the
``pluriclosed_resid`` column's kernel.  ``run`` takes every jet of the
run, for a stage or a record, in one workspace it allocates once, with
the derivative plans of its pass built in the first pass; ``step`` and
``diagnostics`` called on their own take new arrays.  Stepping is
classical RK4 with the velocity recomputed at every stage; the output is
checked for positivity, and the extreme eigenvalues of that test give
``run`` its next default step size (``cfl_dt``), so each step takes one
spectrum.  Every velocity is exactly Hermitian on exactly Hermitian data,
so no step projects: ``run`` takes the Hermitian part of its initial
field once.
The run loop records integral diagnostics, reuses the velocity the
diagnostics evaluated as the first stage of the next step, and applies
the curvature blow-up stop rule.

``run`` steps one representative of its data's translation symmetry.
The flow is tensorial, so it commutes with the translations of the
torus; in the discrete flow every derivative is a circulant and every
kernel pointwise, so a field exactly constant along an axis stays so, bit
for bit (a constant of either sign differentiates to +0).  ``run`` finds
the axes along which its initial field is constant bit for bit and steps
the field held once along them (length 1 there; a sampled family is
constant along 2 to 4 axes): stages, RK4 sums, positivity tests and
records run on it, every integral sums it broadcast over the grid, the
step size keeps the grid's spacing, and ``final_state`` is broadcast
back to the whole grid.  Data that vary along every axis take the same
path with the whole field as its representative.  The records, the
summary and the final state have the bits of a run over every node, on
every grid: the kernels fix the operand order of every complex product,
so no node's bits depend on the size of the arrays it is computed in
(:func:`plurigeo.hermitian.surface_flow`).

The per-step volume-law prediction is ``2 E_w - d`` with
``E_w = int |w|^2 dV``; this is the unique torsion-trace scaling that
renders the volume evolution and the wedge identity of static metrics
exact simultaneously (the measured rate uses the active right-hand side
and is convention-free).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import hermitian as hm
from .grid import MetricField, _jet_workspace, divisor_area, degree, wedge_pair

__all__ = [
    "FlowError",
    "FlowDegenerateError",
    "FlowBlowupError",
    "FlowState",
    "DiagnosticsRecord",
    "RunResult",
    "TnormAudit",
    "VARIANTS",
    "STATUSES",
    "CSV_COLUMNS",
    "cfl_dt",
    "step",
    "diagnostics",
    "run",
    "tnorm_evolution_check",
    "write_diagnostics_csv",
    "write_summary_json",
]

VARIANTS = ("gflow", "normalized", "omega_form")

# terminal statuses of a run; every status but the first exits 3 in the CLI
STATUSES = ("completed", "max_steps_reached", "blowup_suspected", "degenerate")

# the largest pluriclosed defect omega_form accepts, initially and during a run
_PLURICLOSED_TOL = 1e-6

CSV_COLUMNS = [
    "step",
    "t",
    "vol",
    "degree",
    "E_w",
    "maxT2",
    "maxOmega",
    "pluriclosed_resid",
    "kahler_resid",
    "dvol_dt_measured",
    "dvol_dt_predicted",
]


class FlowError(RuntimeError):
    pass


class FlowDegenerateError(FlowError):
    """Positivity loss: the flow has become degenerate."""


class FlowBlowupError(FlowError):
    """Non-finite values: numerical blowup."""


@dataclass(frozen=True)
class FlowState:
    t: float
    step: int
    field: MetricField
    # (smallest, largest) eigenvalue of the field's 2x2 blocks, when the step
    # that made this state took them for its positivity test: run takes the
    # next step size from them instead of a second spectrum of the same field
    _spectrum: tuple | None = dataclasses.field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    t: float
    vol: float
    degree: float
    e_w: float
    max_t2: float
    max_omega: float
    pluriclosed_resid: float
    kahler_resid: float
    dvol_dt_measured: float
    dvol_dt_predicted: float
    divisor_area: float
    # 2 E_w + int |s_Chern| det g: the size of the volume law's terms, the
    # scale of its rounding; not part of the written diagnostics
    volume_law_scale: float
    # the active velocity at this state, handed to the next step as its
    # first stage; not part of the written diagnostics
    velocity: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)

    def csv_row(self) -> list:
        return [
            self.step,
            self.t,
            self.vol,
            self.degree,
            self.e_w,
            self.max_t2,
            self.max_omega,
            self.pluriclosed_resid,
            self.kahler_resid,
            self.dvol_dt_measured,
            self.dvol_dt_predicted,
        ]


@dataclass(frozen=True)
class RunResult:
    status: str  # one of STATUSES
    records: list
    summary: dict
    final_state: FlowState


def cfl_dt(field: MetricField, safety: float = 0.05) -> float:
    """Parabolic step restriction ``safety * h_min^2 * eig_min / eig_max``,
    from the closed-form spectrum of the field's 2x2 blocks."""
    if safety <= 0:
        raise ValueError("safety factor must be positive")
    lo, hi = field.eigenvalues()
    return _step_bound(field, safety, lo.min(), hi.max())


def _constant_axes(values: np.ndarray) -> tuple:
    """The grid axes along which metric values (shape ``dims + (2, 2)``)
    are constant bit for bit, signed zeros told apart.  Each axis is
    rejected on its first two slabs before the whole array is compared, so
    data that vary along every axis cost four slab comparisons."""
    bits = np.ascontiguousarray(values).view(np.uint64)
    axes = []
    for a in range(4):
        lead = (slice(None),) * a
        first = bits[lead + (slice(0, 1),)]
        if np.array_equal(first, bits[lead + (slice(1, 2),)]) and (bits == first).all():
            axes.append(a)
    return tuple(axes)


def _representative(values: np.ndarray) -> np.ndarray:
    """``values`` held once along every axis they are constant along bit for
    bit (:func:`_constant_axes`), contiguous: what ``run`` steps and the
    torsion-norm audit checks."""
    constant = _constant_axes(values)
    return np.ascontiguousarray(values[tuple(slice(0, 1) if a in constant else slice(None) for a in range(4))])


def _step_bound(field: MetricField, safety: float, eig_min, eig_max) -> float:
    """:func:`cfl_dt` from the extreme eigenvalues of ``field``'s blocks."""
    h_min = min(field.grid.spacing)
    return float(safety * h_min**2 * eig_min / eig_max)


# the surface kernel's scalars that a stage of each variant reads besides
# its velocity: the normalized flow's volume term takes scal and |T|^2
_STAGE_SCALARS = {"gflow": (), "normalized": ("scal", "tnorm_sq")}


def _rhs(
    field: MetricField,
    variant: str,
    jet: hm.SurfaceJet | None = None,
    surf: hm.SurfaceFlow | None = None,
    initial: bool = False,
) -> np.ndarray:
    """Velocity of ``variant`` at ``field``; ``jet`` is its surface jet and
    ``surf`` the surface kernel's output on it when the caller already has
    them, else the kernel forms only what the variant reads.  An
    ``omega_form`` field whose pluriclosed defect exceeds 1e-6 raises
    ``ValueError`` if it is ``initial`` data and :class:`FlowDegenerateError`
    (the defect drifted) otherwise."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if jet is None:
        jet = field.surface_jet()
    if variant == "omega_form":
        # the inverse first: a non-finite stage then fails as a blowup, not a drift
        ops = hm.surface_hodge(jet)
        defect = jet.pluriclosed_residual().max()
        if defect > _PLURICLOSED_TOL:
            if initial:
                raise ValueError(f"omega_form requires pluriclosed data (defect {defect:.3e})")
            raise FlowDegenerateError(f"omega_form: pluriclosed defect drifted to {defect:.3e}")
        return -ops.static_op
    if surf is None:
        surf = hm.surface_flow(jet, _STAGE_SCALARS[variant])
    if variant == "gflow":
        return surf.rhs
    vol = field.grid.integrate(surf.det)
    avg = field.grid.integrate((surf.scal - surf.tnorm_sq) * surf.det) / vol
    return surf.rhs + 0.5 * avg * field.values


def step(
    state: FlowState, dt: float, variant: str = "gflow", k1: np.ndarray | None = None
) -> FlowState:
    """One classical RK4 step, the velocity recomputed per stage.

    Each velocity is exactly Hermitian on an exactly Hermitian field, so
    the step keeps such a field exactly Hermitian without projecting.
    ``k1`` is the velocity of ``variant`` at ``state`` when the caller has
    already evaluated it (the run loop takes it from the diagnostics); each
    other stage forms only the velocity and the scalars its variant reads.
    A state at step 0 is initial data: for ``omega_form`` it must be
    pluriclosed, which the first stage checks (``ValueError`` otherwise;
    a ``k1`` handed over at step 0 comes from :func:`diagnostics`, which
    checks it there); a later drift is a :class:`FlowDegenerateError`.
    The returned state carries the extreme eigenvalues of its positivity
    test, from which :func:`run` takes its next step size.  Overflow in a
    stage is expected and caught by the finiteness checks, so numpy's
    warnings are off here.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not np.isfinite(state.field.values).all():
        raise FlowBlowupError("numerical blowup")
    grid = state.field.grid

    def f(values: np.ndarray, initial: bool = False) -> np.ndarray:
        try:
            return _rhs(MetricField(grid, values), variant, None, None, initial)
        except hm.SingularMetricError as exc:
            # the inverse rejects a non-finite determinant (the stage
            # overflowed) and a vanishing one (the stage lost positivity)
            if not np.isfinite(MetricField(grid, values).det()).all():
                raise FlowBlowupError("numerical blowup") from exc
            raise FlowDegenerateError("flow degenerate") from exc

    g0 = state.field.values
    with np.errstate(over="ignore", invalid="ignore"):
        if k1 is None:
            k1 = f(g0, state.step == 0)
        k2 = f(g0 + 0.5 * dt * k1)
        k3 = f(g0 + 0.5 * dt * k2)
        k4 = f(g0 + dt * k3)
        g1 = g0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(g1).all():
        raise FlowBlowupError("numerical blowup")
    field = MetricField(grid, g1)
    lo, hi = field.eigenvalues()
    eig_min = lo.min()
    if eig_min <= 0:
        raise FlowDegenerateError("flow degenerate")
    return FlowState(t=state.t + dt, step=state.step + 1, field=field, _spectrum=(eig_min, hi.max()))


def diagnostics(state: FlowState, variant: str = "gflow") -> DiagnosticsRecord:
    """Integral diagnostics of the current field.

    The measured volume rate is the exact chain-rule value
    ``int tr_g(dg/dt) det g dx`` with the active right-hand side; the
    prediction is ``2 E_w - d`` (the unnormalized-flow law).  The record
    carries that right-hand side as ``velocity``.  A state at step 0 is
    initial data: for ``omega_form`` it must be pluriclosed
    (``ValueError`` otherwise).
    """
    field = state.field
    grid = field.grid
    jet = field.surface_jet()
    surf = hm.surface_flow(jet)
    rhs = _rhs(field, variant, jet, surf, state.step == 0)
    det = surf.det
    vol = float(grid.integrate(det))
    d = degree(field, surf)
    e_w = float(grid.integrate(surf.w_sq * det))
    # tr_g(b) det g is the wedge density of b against the metric
    measured = float(grid.integrate(wedge_pair(rhs, field.values).real))
    max_t2 = float(surf.tnorm_sq.max())
    return DiagnosticsRecord(
        step=state.step,
        t=state.t,
        vol=vol,
        degree=d,
        e_w=e_w,
        max_t2=max_t2,
        max_omega=float(np.sqrt(max(surf.curv_sq.max(), 0.0))),
        pluriclosed_resid=float(surf.pluriclosed.max()),
        kahler_resid=float(np.sqrt(max(max_t2, 0.0))),
        dvol_dt_measured=measured,
        dvol_dt_predicted=float(2.0 * e_w - d),
        divisor_area=divisor_area(field),
        volume_law_scale=2.0 * e_w + float(grid.integrate(np.abs(surf.scal) * det)),
        velocity=rhs,
    )


def run(
    field: MetricField,
    variant: str = "gflow",
    t_end: float = 0.5,
    cadence: int = 10,
    safety: float = 0.05,
    dt: float | None = None,
    blowup_factor: float = 1e3,
    max_steps: int = 100000,
) -> RunResult:
    """Integrate to ``t_end`` with per-cadence diagnostics and the blow-up
    stop rule: terminate with status ``blowup_suspected`` when the maximal
    curvature norm exceeds ``blowup_factor`` times its initial value.  A
    run that takes ``max_steps`` steps before ``t_end`` ends with status
    ``max_steps_reached`` and a diagnostics record of its last state.
    ``omega_form`` on initial data that is not pluriclosed raises
    ``ValueError`` before any step; a pluriclosed defect that drifts past
    1e-6 later ends the run with status ``degenerate``.  The initial field,
    admitted by :meth:`MetricField.check` up to 1e-12 off Hermitian, is
    replaced by its Hermitian part; the summary's ``hermitian_dev`` is the
    largest entry of the deviation removed.  The run steps that field held
    once along every axis it is constant along (module docstring);
    ``final_state`` holds it on the whole grid."""
    for name, val in (("t_end", t_end), ("safety", safety), ("blowup_factor", blowup_factor)):
        if not (np.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be a positive finite number")
    if dt is not None and not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be a positive finite number")
    if cadence < 1:
        raise ValueError("cadence must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    field.check()
    herm = 0.5 * (field.values + np.conj(field.values.swapaxes(-1, -2)))
    hermitian_dev = float(np.abs(field.values - herm).max())
    # the run steps one representative of the data's translation symmetry:
    # the values held once along every axis they are exactly constant along
    grid = field.grid
    rep = _representative(herm)
    state = FlowState(t=0.0, step=0, field=MetricField(grid, rep))
    records: list[DiagnosticsRecord] = []

    def record(rec: DiagnosticsRecord) -> np.ndarray:
        """Keep ``rec`` without its velocity; return the velocity (the next k1)."""
        records.append(dataclasses.replace(rec, velocity=None))
        return rec.velocity

    # every jet of the run, for a stage or a record, in one workspace
    with _jet_workspace(rep.shape[:-2]):
        # an omega_form record at step 0 checks that the data are pluriclosed
        k1 = record(diagnostics(state, variant))
        omega0 = records[0].max_omega
        # slack for rounding in the accumulated time; relative below t_end = 1,
        # so a run to a tiny t_end takes its steps
        t_stop = t_end - 1e-14 * min(t_end, 1.0)
        status = "completed"
        reason = ""
        while state.t < t_stop and state.step < max_steps:
            if dt is not None:
                h = dt
            elif state._spectrum is None:
                h = cfl_dt(state.field, safety)
            else:
                h = _step_bound(state.field, safety, *state._spectrum)
            h = min(h, t_end - state.t)
            try:
                state = step(state, h, variant, k1)
                k1 = None
                at_record = state.step % cadence == 0 or state.t >= t_stop
                if at_record:
                    # an omega_form velocity here can find the pluriclosed drift
                    k1 = record(diagnostics(state, variant))
            except FlowDegenerateError as exc:
                status, reason = "degenerate", str(exc)
                break
            except FlowBlowupError as exc:
                status, reason = "blowup_suspected", str(exc)
                break
            if at_record and omega0 > 0 and records[-1].max_omega > blowup_factor * omega0:
                status, reason = "blowup_suspected", "curvature blow-up threshold"
                break
        else:
            if state.t < t_stop:
                status = "max_steps_reached"
                reason = f"stopped after {state.step} steps at t={state.t!r} < t_end={t_end!r}"
                if records[-1].step != state.step:
                    record(diagnostics(state, variant))
    first, last = records[0], records[-1]
    summary = {
        "status": status,
        "reason": reason,
        "variant": variant,
        "steps": state.step,
        "t_final": state.t,
        "vol_initial": first.vol,
        "vol_final": last.vol,
        "degree_initial": first.degree,
        "degree_final": last.degree,
        "degree_drift": max(abs(r.degree - first.degree) for r in records),
        "divisor_area_initial": first.divisor_area,
        "divisor_area_final": last.divisor_area,
        "divisor_area_drift": max(
            abs(r.divisor_area - first.divisor_area) for r in records
        ),
        "max_pluriclosed_resid": max(r.pluriclosed_resid for r in records),
        "max_kahler_resid": max(r.kahler_resid for r in records),
        "final_max_t2": last.max_t2,
        "final_max_omega": last.max_omega,
        "hermitian_dev": hermitian_dev,
        "volume_law_max_rel_err": max(
            abs(r.dvol_dt_measured - r.dvol_dt_predicted)
            / max(abs(r.dvol_dt_measured), 1e-8)
            for r in records
        ),
        # against the variant's own law (the normalized flow fixes the
        # volume), divided by the size of the law's terms, which stays
        # meaningful where dvol/dt itself is rounding noise (Kaehler data)
        "volume_law_max_err_scaled": max(
            abs(r.dvol_dt_measured - (0.0 if variant == "normalized" else r.dvol_dt_predicted))
            / max(r.volume_law_scale, np.finfo(float).tiny)
            for r in records
        ),
    }
    values = state.field.values
    if values.shape != herm.shape:  # back on the whole grid, in a new array
        values = np.ascontiguousarray(np.broadcast_to(values, herm.shape))
    final_state = dataclasses.replace(state, field=MetricField(grid, values))
    return RunResult(status=status, records=records, summary=summary, final_state=final_state)


# ---------------------------------------------------------------------------
# torsion-norm evolution audit


@dataclass(frozen=True)
class TnormAudit:
    """Measured vs assembled torsion-norm evolution, with the convention audit.

    ``residual_raw`` is measured minus the assembled right-hand side with
    the declared conventions (scalar Laplacian ``g^{p qbar} del_p del_qbar``,
    full two-type ``|grad T|^2``, doubled real gradient pairing, conjugate
    divergence placement).  The raw residual carries a mesh-independent
    component; ``convention_term`` is its closed-form attribution
    ``2 |grad^(0,1) T|^2 + 2 <ric1, quad2 - quad1>`` (equivalently: the
    identity closes with the (1,0)-type gradient norm alone plus the
    curvature/torsion trace term).  ``residual_attributed`` subtracts it and
    converges at the discretization order.
    """

    measured: np.ndarray
    assembled: np.ndarray
    residual_raw: np.ndarray
    convention_term: np.ndarray
    residual_attributed: np.ndarray
    max_raw: float
    max_attributed: float
    imag_defect: float


def tnorm_evolution_check(state: FlowState, dt: float | None = None) -> TnormAudit:
    """Compare the measured time derivative of |T|^2 (centered RK4 pair)
    against the assembled evolution identity, per node.  Like :func:`run`,
    the audit works on the field held once along every axis it is constant
    along, where every node has the bits it has on the whole grid, and
    returns its arrays on the whole grid, each in a new array."""
    grid = state.field.grid
    field = MetricField(grid, _representative(state.field.values))
    state = dataclasses.replace(state, field=field)
    if dt is None:
        dt = cfl_dt(field)
    jet, _ = field.jets()
    g = field.values
    gup = hm.inverse_metric(g)
    _, w = hm.torsion(jet)
    _, ric1, _, _ = hm.chern_curvature(jet)
    quad1, quad2, tnorm_sq = hm.torsion_quadratics(jet)
    cov = hm.covariant_torsion_ops(jet)
    n10, n01 = hm.grad_torsion_norms(g, cov)

    # scalar Laplacian and holomorphic gradient of |T|^2 via the grid
    lap = (gup * grid.complex_hessian(tnorm_sq)).sum(axis=(-2, -1))
    dt2 = np.stack([grid.dz(tnorm_sq, k) for k in range(2)], axis=-1)
    grad_w = hm._contract("...ij,...i,...j->...", gup, dt2, np.conj(w))

    div_conj = np.conj(cov.divergence).swapaxes(-1, -2)
    qsd = hm.metric_pairing(g, quad2, ric1 + 2.0 * div_conj)
    imag_defect = float(
        max(np.abs(lap.imag).max(), np.abs(qsd.imag).max(), np.abs(grad_w.imag).max())
    )
    assembled = (
        lap.real
        - 2.0 * (n10 + n01)
        + 2.0 * grad_w.real
        + qsd.real
        - 0.5 * tnorm_sq**2
    )

    def t2_of(st: FlowState) -> np.ndarray:
        return hm.surface_flow(st.field.surface_jet(), ("tnorm_sq",)).tnorm_sq

    plus = step(state, dt, "gflow")
    minus = step(state, -dt, "gflow")
    measured = (t2_of(plus) - t2_of(minus)) / (2.0 * dt)

    residual_raw = measured - assembled
    convention = 2.0 * n01 + 2.0 * hm.metric_pairing(g, ric1, quad2 - quad1).real
    residual_att = residual_raw - convention

    def whole(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.broadcast_to(a, grid.dims))

    return TnormAudit(
        measured=whole(measured),
        assembled=whole(assembled),
        residual_raw=whole(residual_raw),
        convention_term=whole(convention),
        residual_attributed=whole(residual_att),
        max_raw=float(np.abs(residual_raw).max()),
        max_attributed=float(np.abs(residual_att).max()),
        imag_defect=imag_defect,
    )


# ---------------------------------------------------------------------------
# file interfaces


def write_diagnostics_csv(path, records) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        row = rec.csv_row()
        if len(row) != len(CSV_COLUMNS):
            raise ValueError("diagnostics row does not match the column schema")
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


_SUMMARY_REQUIRED = {
    "status": str,
    "variant": str,
    "steps": int,
    "t_final": float,
    "vol_initial": float,
    "vol_final": float,
}


def write_summary_json(path, summary: dict) -> None:
    for key, typ in _SUMMARY_REQUIRED.items():
        if key not in summary:
            raise ValueError(f"summary missing required key {key!r}")
        if not isinstance(summary[key], typ):
            raise ValueError(f"summary key {key!r} must be {typ.__name__}")
    if summary["status"] not in STATUSES:
        raise ValueError("invalid terminal status")
    _atomic_write_text(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _atomic_write_text(path, text: str) -> None:
    import os
    import tempfile

    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
