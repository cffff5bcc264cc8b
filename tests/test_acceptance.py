"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest

from plurigeo import flow as fl
from plurigeo import hermitian as hm
from plurigeo import statics as st
from plurigeo import cli
from plurigeo.families import MetricFamily, jet_at
from plurigeo.grid import (
    FormField,
    MetricField,
    perturb_with_potential,
    sample,
)

from conftest import kahler_ricci, random_trig


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def torus_run():
    field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
    return fl.run(field, variant="gflow", t_end=0.5, cadence=10)


@pytest.fixture(scope="module")
def kahler_run():
    field = sample(MetricFamily("kahler_potential", 0.4), (16, 4, 16, 4))
    return fl.run(field, variant="gflow", t_end=0.3, cadence=10)


def test_criterion_1_hopf_static_example():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    raw = rng.normal(size=(100, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rho = rng.uniform(0.5, 2.0, 100)
    jet = jet_at(
        MetricFamily("hopf"),
        (rho * (raw[:, 0] + 1j * raw[:, 1]), rho * (raw[:, 2] + 1j * raw[:, 3])),
    )
    _, ric1, _, _ = hm.chern_curvature(jet)
    quad1, _, _ = hm.torsion_quadratics(jet)
    scale = np.abs(jet.g).max(axis=(-1, -2))
    err_s = float((np.abs(ric1 - jet.g).max(axis=(-1, -2)) / scale).max())
    err_q = float((np.abs(quad1 - jet.g).max(axis=(-1, -2)) / scale).max())
    elapsed = time.perf_counter() - t0
    ok = err_s <= 1e-10 and err_q <= 1e-10 and elapsed < 1.0
    report(1, ok, f"hopf static at 100 points: |S-g| {err_s:.2e}, "
                  f"|Q1-g| {err_q:.2e} (<=1e-10), {elapsed:.2f}s (<1s)")


def test_criterion_2_surface_torsion_algebra():
    t0 = time.perf_counter()
    jets = hm.random_jet_batch(np.random.default_rng(0), 1000)
    g = jets.g
    quad1, quad2, t2 = hm.torsion_quadratics(jets)
    scale = np.maximum(1.0, np.abs(quad1).max(axis=(-1, -2)))
    r_prop = float((np.abs(quad1 - 0.5 * t2[..., None, None] * g).max(axis=(-1, -2)) / scale).max())
    half_t4 = 0.5 * t2**2
    floor = np.maximum(1.0, half_t4)
    r_cross = float((np.abs(hm.metric_pairing(g, quad2, quad1) - half_t4) / floor).max())
    r_norm = float((np.abs(hm.metric_pairing(g, quad1, quad1) - half_t4) / floor).max())
    elapsed = time.perf_counter() - t0
    worst = max(r_prop, r_cross, r_norm)
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, ok, f"quadratic algebra over 1000 jets: worst {worst:.2e} (<=1e-12), "
                  f"{elapsed:.2f}s (<1s)")


def test_criterion_3_pluriclosed_jet_identities():
    jets = hm.random_jet_batch(np.random.default_rng(5000), 1000, pluriclosed=True)
    res = hm.identity_suite(jets, pluriclosed=True)
    names = [
        "torsion_trace_identity",
        "flow_form_equivalence",
        "quad_gradient_trace",
        "bianchi_torsion_curvature",
        "bianchi_scalar_contraction",
        "bianchi_divergence_pairing",
        "ricci_trace_relation",
    ]
    worst = {n: float(np.asarray(res[n]).max()) for n in names}
    bad = {n: v for n, v in worst.items() if v > 1e-10}
    report(3, not bad, "pluriclosed identities over 1000 jets: worst "
                       f"{max(worst.values()):.2e} (<=1e-10)")


def test_criterion_4_kahler_reduction():
    field = sample(MetricFamily("kahler_potential", 0.4), (16, 4, 16, 4))
    grid = field.grid
    dt = fl.cfl_dt(field)
    state = fl.FlowState(0.0, 0, field)

    def oracle_rhs(values):
        jet, _ = MetricField(grid, values).jets()
        return -kahler_ricci(jet)

    def oracle_step(g):
        k1 = oracle_rhs(g)
        k2 = oracle_rhs(g + 0.5 * dt * k1)
        k3 = oracle_rhs(g + 0.5 * dt * k2)
        k4 = oracle_rhs(g + dt * k3)
        out = g + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return 0.5 * (out + np.conj(out.swapaxes(-1, -2)))

    g_oracle = field.values.copy()
    max_t = 0.0
    for _ in range(50):
        state = fl.step(state, dt, "gflow")
        g_oracle = oracle_step(g_oracle)
        jet, _ = state.field.jets()
        _, _, tnorm_sq = hm.torsion_quadratics(jet)
        max_t = max(max_t, float(np.sqrt(np.maximum(tnorm_sq, 0.0)).max()))
    diff = float(np.abs(state.field.values - g_oracle).max())
    ok = max_t <= 1e-6 and diff <= 1e-6
    report(4, ok, f"kahler reduction over 50 steps: max|T| {max_t:.2e} (<=1e-6), "
                  f"oracle gap {diff:.2e} (<=1e-6)")


def test_criterion_5_pluriclosed_preservation(torus_run):
    initial = torus_run.records[0].pluriclosed_resid
    worst = torus_run.summary["max_pluriclosed_resid"]
    bound = max(10.0 * initial, 1e-6)
    ok = torus_run.status == "completed" and worst <= bound
    report(5, ok, f"pluriclosed preservation to t=0.5: max defect {worst:.2e} "
                  f"(<= max(10 x initial, 1e-6) = {bound:.2e})")


def test_criterion_6_volume_law_degree_divisor(torus_run, kahler_run):
    details = []
    ok = True
    for label, res in (("torus_pluriclosed", torus_run), ("kahler_potential", kahler_run)):
        vol_err = res.summary["volume_law_max_rel_err"]
        deg = res.summary["degree_drift"]
        div = res.summary["divisor_area_drift"]
        ok = ok and vol_err <= 1e-3 and deg <= 1e-6 and div <= 1e-6
        details.append(f"{label}: vol-law {vol_err:.2e} (<=1e-3), degree drift "
                       f"{deg:.2e}, divisor drift {div:.2e} (<=1e-6)")
    report(6, ok, "; ".join(details))


def test_volume_law_error_scaled_by_its_terms(kahler_run):
    """On Kaehler data dvol/dt is rounding noise, so the error divided by it
    (floored at 1e-8) reads noise; divided by the size of the law's terms it
    reads rounding."""
    scaled = kahler_run.summary["volume_law_max_err_scaled"]
    assert scaled <= 1e-13
    assert kahler_run.summary["volume_law_max_rel_err"] >= 1e3 * scaled


def test_criterion_7_tnorm_refinement_study():
    t0 = time.perf_counter()
    out = {}
    for n3 in (16, 32):
        field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, n3, 4))
        audit = fl.tnorm_evolution_check(fl.FlowState(0.0, 0, field))
        out[n3] = audit
    order = float(np.log2(out[16].max_attributed / out[32].max_attributed))
    conv16 = float(np.abs(out[16].convention_term).max())
    elapsed = time.perf_counter() - t0
    # the raw residual must be dominated by the identified convention term
    attributed_fraction = out[16].max_attributed / max(out[16].max_raw, 1e-300)
    ok = order >= 2.0 and attributed_fraction < 1e-2 and elapsed < 60.0
    report(7, ok, f"torsion-norm evolution: mesh-independent component "
                  f"{conv16:.3e} attributed to the gradient-type/trace convention "
                  f"terms; remaining residual {out[16].max_attributed:.2e} -> "
                  f"{out[32].max_attributed:.2e}, order {order:.2f} (>=2), "
                  f"{elapsed:.1f}s (<60s)")


def test_criterion_8_buchdahl_inequality():
    flat = sample(MetricFamily("flat"), (8, 4, 16, 4))
    grid = flat.grid
    base = sample(MetricFamily("torus_pluriclosed", 0.4), grid.dims)
    rng = np.random.default_rng(77)
    min_rel = np.inf
    for seed in range(100):
        alpha = rng.uniform(-2.0, 2.0)
        f = 0.25 * random_trig(grid, seed=2000 + seed)
        psi = FormField(grid, alpha * base.values + 2.0 * grid.complex_hessian(f))
        r = st.buchdahl_check(flat, psi)
        min_rel = min(min_rel, r.gap / r.scale)
    # equality cases
    r_self = st.buchdahl_check(flat, FormField.from_metric(flat))
    x = grid.coords()
    f = 0.3 * (np.cos(x[0]) + np.sin(x[2]))
    psi_eq = FormField(grid, 2.0 * flat.values + 2.0 * grid.complex_hessian(f))
    r_eq = st.buchdahl_check(flat, psi_eq)
    ok = (
        min_rel >= -1e-8
        and abs(r_self.gap) <= 1e-6
        and abs(r_eq.gap) <= 1e-6
    )
    report(8, ok, f"reverse Cauchy-Schwarz over 100 seeded forms: min gap/scale "
                  f"{min_rel:.2e} (>=-1e-8); equality gaps {abs(r_self.gap):.2e}, "
                  f"{abs(r_eq.gap):.2e} (<=1e-6)")


def test_criterion_9_hermitian_symplectic_identity():
    family = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))
    hs_family = st.hermitian_symplectic(family, 1.0)
    vals = {}
    self_int_ok = hs_family.self_intersection > 0
    for n3 in (16, 32):
        field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, n3, 4))
        x = field.grid.coords()
        pert = perturb_with_potential(field, 0.05 * np.sin(x[2]))
        hs = st.hermitian_symplectic(pert, 1.0)
        vals[n3] = hs.identity_max
        self_int_ok = self_int_ok and hs.self_intersection > 0
    order = float(np.log2(vals[16] / vals[32]))
    ok = hs_family.identity_max <= 1e-6 and order >= 3.5 and self_int_ok
    report(9, ok, f"closed-extension identity: family residual "
                  f"{hs_family.identity_max:.2e} (<=1e-6); perturbed order "
                  f"{order:.2f} (>=3.5); all self-intersections positive")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    flow_cfg = tmp_path / "flow.json"
    flow_cfg.write_text(json.dumps({
        "command": "flow",
        "family": {"kind": "torus_pluriclosed", "eps": 0.5},
        "dims": [4, 4, 16, 4],
        "t_end": 0.05,
        "cadence": 5,
        "seed": 3,
    }))
    ident_cfg = tmp_path / "ident.json"
    ident_cfg.write_text(json.dumps({"command": "identities", "count": 40, "seed": 3}))
    outputs = {}
    for threads in ("1", "7"):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        out = tmp_path / f"run{threads}"
        assert cli.main(["flow", "--config", str(flow_cfg), "--out", str(out)]) == 0
        assert cli.main(["identities", "--config", str(ident_cfg), "--out", str(out)]) == 0
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("diagnostics.csv", "summary.json", "identities_report.json")
        }
    ok = outputs["1"] == outputs["7"]
    report(10, ok, "byte-identical diagnostics.csv/summary.json/identities_report.json "
                   "across PLURIGEO_THREADS=1 and 7")
