"""The benchmark's workloads: seeded inputs, timed bodies and correctness gates.

Each workload has three parts.  ``prepare`` is set-up: it builds the
inputs from the seed and writes them as the configs and field files the
program reads.  ``body`` is the timed part: the CLI commands (or, where
the CLI has no entry for the input, the same public API calls the CLI
makes) that produce the outputs.  ``verify`` is untimed: it checks the
outputs from the files the program wrote, without trusting the status the
program reports about itself.

``prepare`` and ``body`` take a build: the program under test
(``plurigeo`` from ``src/``) or the frozen reference copy
(``plurigeo_ref`` from ``perfbench/reference/``) that the timed runs
interleave with it.  Each build reads only the inputs it wrote itself.

An operation is one CLI command, one API call or one gate.  It fails when
it raises, exits non-zero or misses its gate; a failure is counted in
:class:`Ops` and never stops the harness.  Why each workload exists is in
``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

PROGRAM = "plurigeo"
REFERENCE = "plurigeo_ref"

# Correctness gates.  The flow bounds are the acceptance tolerances.
VOLUME_LAW_TOL = 1e-3
PLURICLOSED_FLOOR = 1e-6
PLURICLOSED_GROWTH = 10.0
# On data that varies along all four axes the discrete flow lets the
# pluriclosed residual grow linearly in t, by truncation error (README.md,
# "Correctness gates").  flow-4d allows this much growth per unit of flow
# time on top of the bound above: about 4x the largest rate of 300 seeds,
# and half the rate at which a flow without the torsion term of its
# velocity breaks pluriclosedness on the quietest seed tried.
PLURICLOSED_DRIFT_RATE = 0.05
T_END_SLACK = 1e-12

# Inputs.  The proof in ``generic_field`` that every seed gives a positive
# field holds for these values of BASE_EPS and POTENTIAL_AMP.
BASE_EPS = 0.5  # torus_pluriclosed(eps) under every workload
POTENTIAL_AMP = 0.05
POTENTIAL_MODES = 2
TORUS_CADENCE = 10
TORUS_SAFETY = 0.05
FLOW_4D_DT = 1.5e-3


@dataclass
class Ops:
    """Attempted and failed operations, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def gate(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run one program operation; return its result, or None if it raised."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.gate(f"{what} raised {type(exc).__name__}: {exc}", False)
            return None
        self.gate(what, True)
        return result

    def cli(self, what: str, build, argv: list) -> None:
        """Run one CLI command of ``build`` in-process; it must exit 0."""
        self.check(f"{what} exits 0", lambda: build.cli.main(argv) == 0)

    def check(self, what: str, fn, *args) -> None:
        """Run one gate; a gate that raises (missing output, say) has failed."""
        try:
            ok = bool(fn(*args))
        except Exception as exc:
            self.gate(f"{what} raised {type(exc).__name__}: {exc}", False)
            return
        self.gate(what, ok)


def load_build(package: str) -> SimpleNamespace:
    """The modules of one build that the workloads call."""
    return SimpleNamespace(
        **{m: importlib.import_module(f"{package}.{m}") for m in ("cli", "families", "flow", "grid")}
    )


# ---------------------------------------------------------------------------
# seeded inputs


def trig_potential(g, rng: np.random.Generator) -> np.ndarray:
    """Real trigonometric polynomial with random coefficients in [-1, 1] on
    modes ``1..POTENTIAL_MODES`` of each of the four axes (fewer on coarse
    axes)."""
    x = g.coords()
    out = np.zeros(g.dims)
    for axis in range(4):
        for k in range(1, min(POTENTIAL_MODES, g.dims[axis] // 2 - 1) + 1):
            a, b = rng.uniform(-1.0, 1.0, 2)
            out += a * np.cos(k * x[axis]) + b * np.sin(k * x[axis])
    return out


def generic_field(build, dims, seed: int, salt: int = 0):
    """Pluriclosed data that varies along all four axes.

    ``torus_pluriclosed(BASE_EPS)`` has eigenvalues ``1 +- BASE_EPS``; the
    potential adds ``2 POTENTIAL_AMP`` times a complex Hessian that is
    diagonal (the potential is a sum of one-axis terms) and at most
    ``(1 + 4) sqrt 2 / 2`` per entry, so the field is positive definite for
    every seed.
    """
    family = build.families.MetricFamily("torus_pluriclosed", BASE_EPS)
    base = build.grid.sample(family, tuple(dims))
    rng = np.random.default_rng((seed, salt))
    return build.grid.perturb_with_potential(base, POTENTIAL_AMP * trig_potential(base.grid, rng))


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _nodes(dims) -> int:
    return math.prod(dims)


# ---------------------------------------------------------------------------
# flow gates shared by both flow workloads


def _reaches(t_final: float, t_end: float) -> bool:
    return t_final >= t_end - T_END_SLACK


def _volume_law_err(rows: list[dict]) -> float:
    return max(
        abs(r["dvol_dt_measured"] - r["dvol_dt_predicted"]) / max(abs(r["dvol_dt_measured"]), 1e-8)
        for r in rows
    )


def _pluriclosed_ok(rows: list[dict], drift_rate: float) -> bool:
    """Each row's residual is within max(10 x initial, 1e-6) + drift_rate x t."""
    bound = max(PLURICLOSED_GROWTH * rows[0]["pluriclosed_resid"], PLURICLOSED_FLOOR)
    return all(r["pluriclosed_resid"] <= bound + drift_rate * r["t"] for r in rows)


def _verify_flow(out: str, t_end: float, ops: Ops, drift_rate: float = 0.0) -> list[dict]:
    """Gate a flow run from its files; return the diagnostics rows ([] if unreadable).

    ``drift_rate`` is the pluriclosed residual's allowed growth per unit of
    flow time; 0 gives the bound of acceptance criterion 5.
    """
    rows: list[dict] = []

    def load():
        rows.extend(_read_csv(os.path.join(out, "diagnostics.csv")))
        return rows and all(math.isfinite(v) for r in rows for v in r.values())

    ops.check("diagnostics.csv readable and finite", load)
    summary_path = os.path.join(out, "summary.json")
    ops.check("summary t_final >= t_end", lambda: _reaches(_read_json(summary_path)["t_final"], t_end))
    ops.check("diagnostics reach t_end", lambda: _reaches(rows[-1]["t"], t_end))
    ops.check(f"volume law error <= {VOLUME_LAW_TOL}", lambda: _volume_law_err(rows) <= VOLUME_LAW_TOL)
    ops.check(
        f"pluriclosed residual <= max({PLURICLOSED_GROWTH:g} x initial, {PLURICLOSED_FLOOR:g})"
        + (f" + {drift_rate:g} x t" if drift_rate else ""),
        _pluriclosed_ok,
        rows,
        drift_rate,
    )
    return rows


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class FlowTorus:
    """CLI ``flow`` on the acceptance configuration with the CFL dt."""

    name: str = "flow-torus"
    dims: tuple = (4, 4, 16, 4)
    t_end: float = 0.05

    def prepare(self, build, workdir: str, seed: int) -> dict:
        # The acceptance configuration is fixed; the seed only enters the
        # config's seed key, so every seed runs the same amount of work.
        cfg = {
            "command": "flow",
            "seed": seed,
            "family": {"kind": "torus_pluriclosed", "eps": BASE_EPS},
            "dims": list(self.dims),
            "variant": "gflow",
            "t_end": self.t_end,
            "cadence": TORUS_CADENCE,
            "safety": TORUS_SAFETY,
        }
        return {"config": _write_json(os.path.join(workdir, "flow.json"), cfg)}

    def body(self, build, inputs: dict, out: str, ops: Ops, rep: int) -> None:
        ops.cli("cli flow", build, ["flow", "--config", inputs["config"], "--out", out])

    def verify(self, inputs: dict, out: str, ops: Ops, rep: int) -> dict:
        rows = _verify_flow(out, self.t_end, ops)
        steps = int(rows[-1]["step"]) if rows else 0
        return {"work": _nodes(self.dims) * steps, "observations": {"steps": steps}}


@dataclass(frozen=True)
class Flow4D:
    """``gflow`` on generic all-axis data at the headline size, fixed dt.

    The CLI ``flow`` command samples families only, so the body makes the
    calls ``cli flow`` makes (run, then the two writers) on a field file.
    """

    name: str = "flow-4d"
    dims: tuple = (16, 8, 16, 8)
    steps: int = 2

    @property
    def t_end(self) -> float:
        return self.steps * FLOW_4D_DT

    def prepare(self, build, workdir: str, seed: int) -> dict:
        path = os.path.join(workdir, "field.pgmf")
        build.grid.save_field(path, generic_field(build, self.dims, seed))
        return {"field": path}

    def body(self, build, inputs: dict, out: str, ops: Ops, rep: int) -> None:
        flow = build.flow
        field_ = ops.call("load_field", build.grid.load_field, inputs["field"])
        if field_ is None:
            return
        result = ops.call(
            "flow.run", flow.run, field_, variant="gflow", t_end=self.t_end, cadence=1, dt=FLOW_4D_DT
        )
        if result is None:
            return
        ops.gate(f"flow status {result.status}", result.status == "completed")
        ops.call("write_diagnostics_csv", flow.write_diagnostics_csv,
                 os.path.join(out, "diagnostics.csv"), result.records)
        ops.call("write_summary_json", flow.write_summary_json,
                 os.path.join(out, "summary.json"), result.summary)

    def verify(self, inputs: dict, out: str, ops: Ops, rep: int) -> dict:
        rows = _verify_flow(out, self.t_end, ops, PLURICLOSED_DRIFT_RATE)
        steps = int(rows[-1]["step"]) if rows else 0
        # The degree drifts by discretization on all-axis data; it is
        # reported, not gated (README.md).
        nan = float("nan")
        return {
            "work": _nodes(self.dims) * steps,
            "observations": {
                "steps": steps,
                "degree_drift": max(abs(r["degree"] - rows[0]["degree"]) for r in rows) if rows else nan,
                "pluriclosed_resid_max": max(r["pluriclosed_resid"] for r in rows) if rows else nan,
            },
        }


@dataclass(frozen=True)
class Checks:
    """CLI ``identities``, ``static`` on field files, and ``hopf``; no stepping.

    Each repetition runs ``static`` on one of the field files, in turn.
    """

    name: str = "checks"
    count: int = 2500
    fields: int = 4
    dims: tuple = (16, 8, 16, 8)
    hopf_samples: int = 1000

    def prepare(self, build, workdir: str, seed: int) -> dict:
        inputs = {
            "identities": _write_json(
                os.path.join(workdir, "identities.json"),
                {"command": "identities", "count": self.count, "seed": seed},
            ),
            "hopf": _write_json(
                os.path.join(workdir, "hopf.json"),
                {"command": "hopf", "samples": self.hopf_samples, "seed": seed},
            ),
            "static": [],
        }
        for i in range(self.fields):
            path = os.path.join(workdir, f"field-{i}.pgmf")
            build.grid.save_field(path, generic_field(build, self.dims, seed, salt=i + 1))
            inputs["static"].append(
                _write_json(
                    os.path.join(workdir, f"static-{i}.json"),
                    {"command": "static", "field_file": path, "c1_bundle": [[1, 0], [0, -1]]},
                )
            )
        return inputs

    def body(self, build, inputs: dict, out: str, ops: Ops, rep: int) -> None:
        ops.cli("cli identities", build, ["identities", "--config", inputs["identities"], "--out", out])
        static = inputs["static"][rep % len(inputs["static"])]
        ops.cli("cli static", build, ["static", "--config", static, "--out", out])
        ops.cli("cli hopf", build, ["hopf", "--config", inputs["hopf"], "--out", out])

    def verify(self, inputs: dict, out: str, ops: Ops, rep: int) -> dict:
        def identities_pass():
            report = _read_json(os.path.join(out, "identities_report.json"))
            res, tol = report["residuals"], report["tolerances"]
            return (
                report["pass"] is True
                and res
                and set(res) == set(tol)
                and all(math.isfinite(res[k]) and res[k] <= tol[k] for k in res)
            )

        def static_finite():
            report = _read_json(os.path.join(out, "static_report.json"))
            return report and all(math.isfinite(v) for v in report.values())

        ops.check("identities report passes", identities_pass)
        ops.check("static report finite", static_finite)
        # each random jet, static-report node and hopf point is one pointwise evaluation
        work = 2 * self.count + _nodes(self.dims) + self.hopf_samples
        return {"work": work, "observations": {}}


WORKLOADS = {w.name: w for w in (FlowTorus(), Flow4D(), Checks())}
