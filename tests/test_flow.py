"""Flow engine tests: stepping, variants, diagnostics, stop rules, audit."""

import dataclasses

import numpy as np
import pytest

from plurigeo import _threads
from plurigeo import flow as fl
from plurigeo import grid
from plurigeo import hermitian as hm
from plurigeo import statics
from plurigeo.families import MetricFamily
from plurigeo.grid import MetricField, perturb_with_potential, sample

from conftest import data_blocks, random_trig, two_cpus, worker_ran


class TestCfl:
    def test_flat_value(self):
        field = sample(MetricFamily("flat"), (16, 16, 16, 16))
        assert abs(fl.cfl_dt(field) - 0.05 * (2 * np.pi / 16) ** 2) < 1e-15

    def test_torus_eigenvalue_ratio(self, torus_field):
        flat = sample(MetricFamily("flat"), torus_field.grid.dims)
        ratio = fl.cfl_dt(torus_field) / fl.cfl_dt(flat)
        assert abs(ratio - (1 - 0.5) / (1 + 0.5)) < 1e-12

    def test_zero_safety_rejected(self, torus_field):
        with pytest.raises(ValueError):
            fl.cfl_dt(torus_field, safety=0.0)


class TestStep:
    def test_flat_fixed_point(self):
        field = sample(MetricFamily("flat"), (8, 4, 8, 4))
        state = fl.FlowState(0.0, 0, field)
        for variant in fl.VARIANTS:
            out = fl.step(state, 1e-2, variant)
            assert np.abs(out.field.values - field.values).max() <= 1e-13

    def test_omega_form_requires_pluriclosed(self, flat_field):
        x = flat_field.grid.coords()
        bad = flat_field.values.copy()
        bad[..., 0, 0] += 0.2 * np.cos(x[2])
        state = fl.FlowState(0.0, 0, MetricField(flat_field.grid, bad))
        with pytest.raises(ValueError, match="pluriclosed"):
            fl.step(state, 1e-3, "omega_form")
        with pytest.raises(ValueError, match="pluriclosed"):
            fl.run(state.field, variant="omega_form", t_end=1e-3)

    def test_unknown_variant(self, flat_field):
        with pytest.raises(ValueError):
            fl.step(fl.FlowState(0.0, 0, flat_field), 1e-3, "leapfrog")

    def test_zero_dt_rejected(self, flat_field):
        with pytest.raises(ValueError):
            fl.step(fl.FlowState(0.0, 0, flat_field), 0.0)

    def test_gflow_vs_omega_form(self, torus_field):
        dt = fl.cfl_dt(torus_field)
        s1 = s2 = fl.FlowState(0.0, 0, torus_field)
        for _ in range(20):
            s1 = fl.step(s1, dt, "gflow")
            s2 = fl.step(s2, dt, "omega_form")
        assert np.abs(s1.field.values - s2.field.values).max() <= 1e-6

    def test_blowup_error_on_nan(self, torus_field):
        vals = torus_field.values.copy()
        vals[0, 0, 0, 0, 0, 0] = np.nan
        state = fl.FlowState(0.0, 0, MetricField(torus_field.grid, vals))
        with pytest.raises(fl.FlowBlowupError):
            fl.step(state, 1e-3)

    def test_overflowing_stage_is_blowup(self, torus_field):
        state = fl.FlowState(0.0, 0, torus_field)
        with np.errstate(all="ignore"), pytest.raises(fl.FlowBlowupError):
            fl.step(state, 1e100)

    def test_degenerate_error_on_positivity_loss(self, torus_field):
        # a huge step along -g drives eigenvalues through zero
        state = fl.FlowState(0.0, 0, torus_field)
        with pytest.raises(fl.FlowError):
            s = state
            for _ in range(10):
                s = fl.step(s, 5.0, "gflow")


class TestDiagnostics:
    def test_flat_record(self):
        field = sample(MetricFamily("flat"), (8, 4, 8, 4))
        rec = fl.diagnostics(fl.FlowState(0.0, 0, field))
        assert abs(rec.vol - (2 * np.pi) ** 4) < 1e-9
        for name in ("degree", "e_w", "max_t2", "max_omega", "pluriclosed_resid",
                     "kahler_resid", "dvol_dt_measured", "dvol_dt_predicted"):
            assert abs(getattr(rec, name)) < 1e-10

    def test_torus_initial_values(self, torus_field):
        rec = fl.diagnostics(fl.FlowState(0.0, 0, torus_field))
        eps = 0.5
        q = eps**2 / (4 * (1 - eps**2) ** 2)
        vol = (1 - eps**2) * (2 * np.pi) ** 4
        assert abs(rec.degree) < 1e-12
        assert abs(rec.e_w - q * vol) / (q * vol) < 1e-2  # lambda(k)-scaled
        assert rec.dvol_dt_predicted > 0
        assert abs(rec.dvol_dt_measured - rec.dvol_dt_predicted) < 1e-10 * abs(
            rec.dvol_dt_measured
        )

    def test_kahler_prediction_is_minus_degree(self, kahler_field):
        rec = fl.diagnostics(fl.FlowState(0.0, 0, kahler_field))
        assert rec.e_w < 1e-12
        assert abs(rec.dvol_dt_predicted + rec.degree) < 1e-12


class TestRun:
    def test_flat_constant_series(self):
        field = sample(MetricFamily("flat"), (8, 4, 8, 4))
        res = fl.run(field, t_end=1.0, cadence=50, dt=0.05)
        assert res.status == "completed"
        vols = [r.vol for r in res.records]
        assert max(vols) - min(vols) < 1e-9

    def test_torus_run_invariants(self, torus_field):
        res = fl.run(torus_field, t_end=0.1, cadence=10)
        assert res.status == "completed"
        assert res.summary["max_pluriclosed_resid"] <= 1e-6
        assert res.summary["volume_law_max_rel_err"] <= 1e-3
        assert res.summary["degree_drift"] <= 1e-6
        assert res.summary["divisor_area_drift"] <= 1e-6
        assert res.records[-1].max_t2 < res.records[0].max_t2

    def test_normalized_volume_freeze(self, torus_field):
        res = fl.run(torus_field, variant="normalized", t_end=0.1, cadence=10)
        drift = abs(res.summary["vol_final"] - res.summary["vol_initial"])
        assert drift / res.summary["vol_initial"] <= 1e-4
        # measured against the normalized law dvol/dt = 0, not 2 E_w - d
        assert res.summary["volume_law_max_err_scaled"] <= 1e-13

    def test_blowup_stop_rule(self, torus_field):
        # an absurdly small threshold must trip the curvature stop rule
        res = fl.run(torus_field, t_end=0.1, cadence=1, blowup_factor=1e-6)
        assert res.status == "blowup_suspected"
        assert res.summary["reason"] == "curvature blow-up threshold"

    def test_omega_form_drift_ends_degenerate(self):
        # on all-axis data the discrete omega_form velocity moves the
        # pluriclosed defect past its 1e-6 tolerance within a few steps
        base = sample(MetricFamily("torus_pluriclosed", 0.5), (8, 8, 8, 8))
        field = perturb_with_potential(base, 0.02 * random_trig(base.grid, seed=7))
        res = fl.run(field, variant="omega_form", dt=1.5e-3, t_end=0.05, cadence=1)
        assert res.status == "degenerate"
        assert "pluriclosed defect" in res.summary["reason"]
        assert 0 < res.summary["steps"] < 33
        assert res.records[-1].step == res.summary["steps"]
        assert res.summary["max_pluriclosed_resid"] <= 1e-6

    def test_invalid_parameters(self, torus_field):
        with pytest.raises(ValueError):
            fl.run(torus_field, t_end=-1.0)
        with pytest.raises(ValueError):
            fl.run(torus_field, cadence=0)
        with pytest.raises(ValueError):
            fl.run(torus_field, max_steps=0)

    @pytest.mark.parametrize("key", ["t_end", "dt", "safety", "blowup_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, torus_field, key, value):
        with pytest.raises(ValueError, match="finite"):
            fl.run(torus_field, **{key: value})

    def test_max_steps_reached_is_not_completed(self, torus_field):
        res = fl.run(torus_field, t_end=0.5, max_steps=3)
        assert res.status == "max_steps_reached"
        assert res.summary["steps"] == 3
        assert res.summary["t_final"] < 0.5
        assert "3 steps" in res.summary["reason"]
        # the last record describes the state the run stopped at
        assert res.records[-1].step == 3
        assert res.records[-1].t == res.summary["t_final"]

    def test_budget_that_reaches_t_end_completes(self, torus_field):
        res = fl.run(torus_field, t_end=0.02, dt=0.01, max_steps=2)
        assert res.status == "completed"
        assert res.summary["steps"] == 2

    def test_tiny_t_end_is_reached(self, torus_field):
        res = fl.run(torus_field, t_end=1e-20, dt=1e-20)
        assert res.status == "completed"
        assert res.summary["steps"] == 1 and res.summary["t_final"] == 1e-20

    @pytest.mark.parametrize("variant", ["gflow", "normalized"])
    def test_reused_first_stage_matches_plain_steps(self, torus_field, variant):
        dt = 2.0**-7  # exact in binary, so the run takes three steps of exactly dt
        res = fl.run(torus_field, variant=variant, t_end=3 * dt, cadence=2, dt=dt)
        state = fl.FlowState(0.0, 0, torus_field)
        for _ in range(3):
            state = fl.step(state, dt, variant)
        assert np.array_equal(res.final_state.field.values, state.field.values)
        assert all(rec.velocity is None for rec in res.records)

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    def test_velocity_is_exactly_hermitian(self, generic_fields, variant):
        # the reason no RK4 stage projects onto Hermitian matrices
        rhs = fl._rhs(generic_fields[0], variant)
        assert np.array_equal(rhs, np.conj(rhs.swapaxes(-1, -2)))

    def test_initial_field_made_exactly_hermitian(self, torus_field):
        vals = torus_field.values.copy()
        vals[..., 1, 0] += 1e-13  # within what MetricField.check admits
        field = MetricField(torus_field.grid, vals)
        res = fl.run(field, t_end=0.02, dt=0.01)
        herm = 0.5 * (vals + np.conj(vals.swapaxes(-1, -2)))
        assert res.summary["hermitian_dev"] == np.abs(vals - herm).max() > 0
        final = res.final_state.field.values
        assert np.array_equal(final, np.conj(final.swapaxes(-1, -2)))

    def test_diagnostics_velocity_is_the_flow_rhs(self, torus_field):
        rec = fl.diagnostics(fl.FlowState(0.0, 0, torus_field))
        jet, _ = torus_field.jets()
        assert np.abs(rec.velocity - hm.gflow_rhs(jet)).max() <= 1e-13

    def test_rk4_temporal_order_on_all_axis_data(self):
        # self-convergence in dt on data that varies along all four axes
        base = sample(MetricFamily("torus_pluriclosed", 0.5), (8, 8, 8, 8))
        field = perturb_with_potential(base, 0.05 * random_trig(base.grid, seed=7))
        t_end = 0.04
        finals = {}
        for n in (2, 4, 8):
            res = fl.run(field, t_end=t_end, dt=t_end / n, cadence=1)
            assert res.status == "completed" and res.summary["steps"] == n
            finals[n] = res.final_state.field.values
        coarse = np.abs(finals[2] - finals[4]).max()
        fine = np.abs(finals[4] - finals[8]).max()
        order = np.log2(coarse / fine)
        assert order >= 3.5, (coarse, fine, order)


class TestWorkspace:
    """A run takes every jet, for a stage or a record, in one workspace
    (``grid._JetWork``); other callers get new arrays from each
    ``surface_jet``."""

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    def test_a_run_takes_every_jet_in_one_workspace(self, torus_field, kernel_jets, variant):
        res = fl.run(torus_field, variant=variant, t_end=0.03, cadence=2, dt=0.01)
        assert res.status == "completed" and res.summary["steps"] == 3
        # records at steps 0, 2 and 3, and the stages not taken from a record
        assert len(kernel_jets) >= 13
        assert len(data_blocks(jet.d1 for jet in kernel_jets)) == 1
        assert len(data_blocks(jet.d2m for jet in kernel_jets)) == 1

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    def test_every_pass_of_a_run_takes_one_stencil_workspace(self, torus_field, monkeypatch, variant):
        works = []
        real = grid._stencil_half

        def spy(f, h, rows, work):
            works.append(work)
            return real(f, h, rows, work)

        monkeypatch.setattr(grid, "_stencil_half", spy)
        fl.run(torus_field, variant=variant, t_end=0.03, cadence=2, dt=0.01)
        assert len(works) >= 13 and all(work is works[0] for work in works)
        # outside a run, each surface_jet builds its own
        torus_field.surface_jet()
        torus_field.surface_jet()
        assert works[-1] is not works[-2] and works[0] not in works[-2:]

    def test_each_jet_outside_a_run_is_new(self, generic_fields):
        first = generic_fields[0].surface_jet()
        kept = first.d1.copy(), first.d2m.copy()
        second = generic_fields[1].surface_jet()
        for a, b in ((first.d1, second.d1), (first.d2m, second.d2m)):
            assert not np.shares_memory(a, b)
        assert np.array_equal(first.d1, kept[0]) and np.array_equal(first.d2m, kept[1])
        assert not np.array_equal(first.d2m, second.d2m)


SYMMETRY_FAMILIES = [
    MetricFamily("flat"), MetricFamily("kahler_potential", 0.4), MetricFamily("torus_pluriclosed", 0.5)
]
SYMMETRY_DIMS = [(4, 4, 16, 4), (16, 4, 16, 4), (8, 8, 16, 8)]


def _run_bytes(res: fl.RunResult) -> tuple:
    """Everything a run returns, as exact text and bytes."""
    records = [
        [repr(getattr(rec, f.name)) for f in dataclasses.fields(rec) if f.name != "velocity"]
        for rec in res.records
    ]
    final = res.final_state
    return res.status, records, repr(sorted(res.summary.items())), final.t, final.step, final.field.values.tobytes()


class TestTranslationSymmetry:
    """A run steps one representative of its data's translation symmetry:
    the values held once along each axis they are exactly constant along.
    The stencils and kernels keep such data exactly constant along those
    axes, so the run has the bits of one on the whole grid."""

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    @pytest.mark.parametrize(
        "family, dims",
        # every family on every grid it can be sampled on
        [(f, d) for f in SYMMETRY_FAMILIES for d in SYMMETRY_DIMS if all(d[a] >= 8 for a in f.active_axes)],
        ids=lambda x: x.kind if isinstance(x, MetricFamily) else "x".join(map(str, x)),
    )
    def test_run_has_the_bits_of_the_full_grid(self, monkeypatch, family, dims, variant):
        field = sample(family, dims)
        kwargs = {"variant": variant, "t_end": 0.01, "cadence": 2}
        if (family.kind, dims, variant) == ("torus_pluriclosed", (4, 4, 16, 4), "gflow"):
            kwargs.update(t_end=1.0, max_steps=3)
        reduced = fl.run(field, **kwargs)
        monkeypatch.setattr(fl, "_constant_axes", lambda values: ())
        full = fl.run(field, **kwargs)
        assert _run_bytes(reduced) == _run_bytes(full)
        assert reduced.final_state.field.values.flags.writeable and full.final_state.field.values.flags.writeable
        assert reduced.summary["steps"] >= 2
        assert reduced.status == ("max_steps_reached" if "max_steps" in kwargs else "completed")

    @pytest.mark.parametrize("variant", ["gflow", "normalized"])
    def test_run_has_the_bits_of_the_full_grid_above_16384_nodes(self, monkeypatch, variant):
        # 32,768 nodes: numpy evaluates operator products of temporaries of
        # 256 KiB or more in place, so only the kernel's fixed operand order
        # keeps the whole grid's bits equal to the representative's
        field = sample(MetricFamily("torus_pluriclosed", 0.5), (16, 8, 32, 8))
        kwargs = {"variant": variant, "t_end": 1.0, "cadence": 1, "max_steps": 8}
        reduced = fl.run(field, **kwargs)
        monkeypatch.setattr(fl, "_constant_axes", lambda values: ())
        assert _run_bytes(reduced) == _run_bytes(fl.run(field, **kwargs))
        assert reduced.summary["steps"] == 8

    @pytest.mark.parametrize("family", SYMMETRY_FAMILIES, ids=lambda f: f.kind)
    def test_constant_axes_of_a_family_are_its_inactive_axes(self, family):
        field = sample(family, (8, 4, 16, 8))
        assert fl._constant_axes(field.values) == tuple(a for a in range(4) if a not in family.active_axes)

    def test_constant_axes_compare_every_slab_and_every_bit(self, flat_field, generic_fields):
        assert fl._constant_axes(generic_fields[0].values) == ()
        values = flat_field.values.copy()
        values[-1, ..., 0, 1] = 1e-300  # past the first two slabs of axis 0
        assert fl._constant_axes(values) == (1, 2, 3)
        values = flat_field.values.copy()
        values[:, :, :, -1, 0, 1] = -0.0  # equal to +0, not the same bits
        assert fl._constant_axes(values) == (0, 1, 2)

    def test_a_run_on_family_data_takes_its_jets_on_one_line(self, torus_field, kernel_jets):
        res = fl.run(torus_field, t_end=0.02, cadence=1, dt=0.01)
        assert kernel_jets and all(jet.g.shape == (1, 1, 16, 1, 2, 2) for jet in kernel_jets)
        assert res.final_state.field.values.shape == torus_field.values.shape
        assert res.final_state.field.values.flags.c_contiguous


class TestStencilPasses:
    """One stencil pass per record, whatever the variant, and the
    ``omega_form`` pluriclosed checks read that pass's jet."""

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    def test_a_record_takes_one_pass(self, torus_field, monkeypatch, variant):
        passes = []
        real = grid._jet_pass

        def spy(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(grid, "_jet_pass", spy)
        fl.diagnostics(fl.FlowState(0.0, 0, torus_field), variant)
        assert len(passes) == 1

    def test_an_omega_form_run_takes_no_first_derivative_stencil(self, torus_field, monkeypatch):
        axes = []
        real = grid.TorusGrid.dx

        def spy(self, u, axis):
            axes.append(axis)
            return real(self, u, axis)

        monkeypatch.setattr(grid.TorusGrid, "dx", spy)
        res = fl.run(torus_field, variant="omega_form", t_end=0.02, cadence=1, dt=0.01)
        assert res.status == "completed" and res.summary["steps"] == 2
        assert axes == []

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    def test_a_one_step_run_takes_five_passes(self, torus_field, monkeypatch, variant):
        # two records and three stages; the first stage is the velocity of
        # the step-0 record, which is also omega_form's check of its data
        passes = []
        real = grid._jet_pass

        def spy(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(grid, "_jet_pass", spy)
        res = fl.run(torus_field, variant=variant, t_end=0.01, dt=0.01)
        assert res.status == "completed" and res.summary["steps"] == 1
        assert len(passes) == 5

    @pytest.mark.parametrize("variant", fl.VARIANTS)
    def test_a_run_builds_its_derivative_plans_in_its_first_pass(self, torus_field, monkeypatch, variant):
        events = []
        real_products, real_pass = grid._products, grid._jet_pass

        def products(*args):
            events.append("products")
            return real_products(*args)

        def jet_pass(*args):
            events.append("pass")
            return real_pass(*args)

        monkeypatch.setattr(grid, "_products", products)
        monkeypatch.setattr(grid, "_jet_pass", jet_pass)
        # on this grid every pass runs in one thread, in the run's workspace
        fl.run(torus_field, variant=variant, t_end=0.03, cadence=2, dt=0.01)
        assert events.count("pass") >= 13
        second = events.index("pass", events.index("pass") + 1)
        assert "products" in events[:second] and "products" not in events[second:]


# all-axis data on a grid below the split threshold and one above it
LEAN_DIMS = [(4, 4, 16, 4), (16, 8, 16, 8)]


@pytest.fixture(scope="module")
def lean_fields():
    fields = {}
    for dims in LEAN_DIMS:
        base = sample(MetricFamily("torus_pluriclosed", 0.5), dims)
        fields[dims] = perturb_with_potential(base, 0.05 * random_trig(base.grid, 13))
    return fields


class TestLeanStages:
    """A stage forms only what its variant reads; records form every scalar,
    and the step hands its spectrum to the next step size."""

    @pytest.mark.parametrize("variant", ["gflow", "normalized"])
    def test_a_stage_forms_no_record_scalar(self, torus_field, monkeypatch, variant):
        residuals, kernels = [], []
        real_residual, real_kernel = hm.SurfaceJet.pluriclosed_residual, hm.surface_flow

        def residual(self):
            residuals.append(self)
            return real_residual(self)

        def kernel(jet, outputs):
            kernels.append(real_kernel(jet, outputs))
            return kernels[-1]

        monkeypatch.setattr(hm.SurfaceJet, "pluriclosed_residual", residual)
        monkeypatch.setattr(hm, "surface_flow", kernel)
        state = fl.FlowState(0.0, 0, torus_field)
        k1 = fl._rhs(torus_field, variant)
        residuals.clear()
        kernels.clear()
        fl.step(state, 1e-2, variant, k1)
        assert residuals == [] and len(kernels) == 3
        # normalized reads scal and |T|^2 for its volume term, gflow neither
        gflow = variant == "gflow"
        for surf in kernels:
            assert surf.pluriclosed is None and surf.curv_sq is None
            assert (surf.scal is None) == gflow and (surf.tnorm_sq is None) == gflow

    def test_a_run_takes_one_spectrum_per_step(self, torus_field, monkeypatch):
        calls = []
        real = MetricField.eigenvalues

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(MetricField, "eigenvalues", spy)
        res = fl.run(torus_field, t_end=0.01, cadence=2)
        steps = res.summary["steps"]
        assert res.status == "completed" and steps >= 3
        # the check of the initial field and the first step size, then each
        # step's positivity test, whose spectrum gives the next step size
        assert len(calls) == steps + 2

    @pytest.mark.parametrize("threads", ["1", pytest.param("2", marks=two_cpus)])
    @pytest.mark.parametrize("dims", LEAN_DIMS, ids=["4x4x16x4", "16x8x16x8"])
    @pytest.mark.parametrize("variant", ["gflow", "normalized"])
    def test_the_stage_velocity_is_the_records(self, lean_fields, kernel_threads, monkeypatch, variant, dims, threads):
        monkeypatch.setenv("PLURIGEO_THREADS", threads)
        field = lean_fields[dims]
        stage = fl._rhs(field, variant)
        record = fl.diagnostics(fl.FlowState(0.0, 0, field), variant).velocity
        assert stage.dtype == record.dtype and stage.tobytes() == record.tobytes()
        assert worker_ran(kernel_threads) == (threads == "2" and field.grid.nodes >= _threads.SPLIT_NODES)


class TestDetCounts:
    """``det g`` is formed once per kernel call besides ``inverse_metric``'s:
    a stage, a record and the degree read the surface kernel's."""

    @pytest.fixture
    def dets(self, monkeypatch):
        calls = []
        real = hm._real_det

        def spy(g):
            calls.append(g)
            return real(g)

        # grid binds the helper by name for MetricField.det
        monkeypatch.setattr(hm, "_real_det", spy)
        monkeypatch.setattr(grid, "_real_det", spy)
        return calls

    @pytest.mark.parametrize("variant", ["gflow", "normalized"])
    def test_a_stage_forms_det_twice(self, torus_field, dets, variant):
        fl._rhs(torus_field, variant)
        assert len(dets) == 2

    @pytest.mark.parametrize("variant, count", [("gflow", 2), ("normalized", 2), ("omega_form", 3)])
    def test_a_record_forms_det(self, torus_field, dets, variant, count):
        fl.diagnostics(fl.FlowState(0.0, 0, torus_field), variant)
        assert len(dets) == count

    def test_a_static_report_forms_det_three_times(self, torus_field, dets):
        statics.static_report(torus_field, np.diag([1.0, -1.0]))
        # surface_hodge's and surface_flow's inverses and surface_flow's det,
        # which lambda* and the residual's hermitian_norm_sq read
        assert len(dets) == 3


class TestTnormAudit:
    def test_family_convention_decomposition(self, torus_field):
        audit = fl.tnorm_evolution_check(fl.FlowState(0.0, 0, torus_field))
        # the raw residual is dominated by the identified convention term
        assert audit.max_raw > 0.1
        assert audit.max_attributed < 1e-4
        assert audit.imag_defect < 1e-12

    def test_flat_trivial(self):
        field = sample(MetricFamily("flat"), (8, 4, 8, 4))
        audit = fl.tnorm_evolution_check(fl.FlowState(0.0, 0, field), dt=1e-3)
        assert audit.max_raw < 1e-12

    def test_kahler_trivial(self, kahler_field):
        audit = fl.tnorm_evolution_check(fl.FlowState(0.0, 0, kahler_field))
        assert audit.max_raw < 1e-10

    @pytest.mark.parametrize("field", ["torus_field", "kahler_field"])
    def test_the_audit_on_the_representative_has_the_bits_of_the_whole_grid(self, request, monkeypatch, field):
        state = fl.FlowState(0.0, 0, request.getfixturevalue(field))
        reduced = fl.tnorm_evolution_check(state)
        monkeypatch.setattr(fl, "_constant_axes", lambda values: ())
        full = fl.tnorm_evolution_check(state)
        for name in ("measured", "assembled", "residual_raw", "convention_term", "residual_attributed"):
            a, b = getattr(reduced, name), getattr(full, name)
            assert a.shape == state.field.grid.dims and a.flags.c_contiguous and a.flags.writeable, name
            assert a.tobytes() == b.tobytes(), name
        for name in ("max_raw", "max_attributed", "imag_defect"):
            assert getattr(reduced, name) == getattr(full, name), name


class TestWriters:
    def test_csv_schema_and_determinism(self, tmp_path, torus_field):
        res = fl.run(torus_field, t_end=0.02, cadence=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        fl.write_diagnostics_csv(p1, res.records)
        fl.write_diagnostics_csv(p2, res.records)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(fl.CSV_COLUMNS)

    def test_summary_accepts_every_status(self, tmp_path):
        for status in fl.STATUSES:
            fl.write_summary_json(tmp_path / "s.json", {
                "status": status, "variant": "gflow", "steps": 1,
                "t_final": 0.1, "vol_initial": 1.0, "vol_final": 1.0,
            })

    def test_summary_schema_validated(self, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            fl.write_summary_json(tmp_path / "s.json", {"status": "completed"})
        with pytest.raises(ValueError, match="status"):
            fl.write_summary_json(
                tmp_path / "s.json",
                {
                    "status": "weird", "variant": "gflow", "steps": 1,
                    "t_final": 0.1, "vol_initial": 1.0, "vol_final": 1.0,
                },
            )
