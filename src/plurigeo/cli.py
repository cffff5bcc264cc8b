"""Batch command-line driver.

Usage::

    plurigeo <command> --config <path> [--out <dir>] [--seed <n>]

Commands: ``identities``, ``flow``, ``static``, ``hopf``.  Configuration
is strict JSON: unknown keys are rejected, all outputs are written
atomically, and identical configs with identical seeds produce
byte-identical files.  A seed is any nonnegative integer, however large.
``PLURIGEO_THREADS`` caps the threads of the stencil pass, the surface
kernel and the identity suite (an integer >= 1; unset means the CPUs
this process may run on; never more than 2): large grids, and
``identities`` batches of at least 1,500 jets, split across the two
threads.  The files are byte-identical for every value.

Exit codes: 0 success, 1 identity/tolerance failure, 2 usage or config
error (no output is written; also a request too large for memory or an
unwritable output), 3 numerical failure (a flow that ended in
any status but ``completed``: blowup, degenerate, or the step budget
spent before ``t_end``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import flow as fl
from . import hermitian as hm
from . import statics as st
from .families import MetricFamily, jet_at
from .grid import MetricField, load_field, sample, sampling_grid, stencil_threads
from .flow import _atomic_write_text

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("identities", "flow", "static", "hopf")

# identities draws its jets from one generator and checks them IDENTITY_CHUNK
# at a time, so its memory is one chunk's jets and suite intermediates
# whatever the count (10**5 peaked at 62 MB RSS, against 0.68 GB unchunked,
# and took 1.1 s with the suite's halves on two threads, 1.5 s and 51 MB on
# one, on a 2-vCPU VM); a larger count is refused before any draw to bound
# the run time
MAX_IDENTITY_COUNT = 10**5
IDENTITY_CHUNK = 4096

DEFAULT_TOLERANCES = {
    "connection_torsion": 1e-10,
    "codiff_torsion_trace": 1e-12,
    "quad_proportionality": 1e-12,
    "quad_cross_trace": 1e-12,
    "quad_norm": 1e-12,
    "bianchi_first": 1e-10,
    "quad_gradient_trace": 1e-10,
    "bianchi_torsion_curvature": 1e-10,
    "bianchi_scalar_contraction": 1e-10,
    "bianchi_divergence_pairing": 1e-10,
    "torsion_trace_identity": 1e-10,
    "ricci_trace_relation": 1e-10,
    "flow_form_equivalence": 1e-10,
}


class ConfigError(ValueError):
    pass


def _finite(val, what: str) -> float:
    """A JSON number (an int or a float, not a bool) as a finite float; a
    ConfigError names ``what`` otherwise, also for an integer beyond the
    range of a float."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{what} must be a number")
    try:
        val = float(val)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{what} must be a finite number")
    return val


def _require(cfg: dict, key: str, typ, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    val = cfg[key]
    if typ is float:
        return _finite(val, f"key {key!r}")
    if not isinstance(val, typ) or isinstance(val, bool) and typ is not bool:
        raise ConfigError(f"key {key!r} must be {typ.__name__}")
    return val


def _reject_unknown(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_family(cfg) -> MetricFamily:
    if not isinstance(cfg, dict):
        raise ConfigError("family must be an object")
    _reject_unknown(cfg, {"kind", "eps"}, "family")
    kind = _require(cfg, "kind", str, required=True)
    eps = _require(cfg, "eps", float, default=0.0)
    try:
        return MetricFamily(kind=kind, eps=eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_dims(cfg, default=(4, 4, 16, 4)) -> tuple:
    dims = cfg if cfg is not None else list(default)
    if (
        not isinstance(dims, list)
        or len(dims) != 4
        or not all(isinstance(n, int) and not isinstance(n, bool) for n in dims)
    ):
        raise ConfigError("dims must be a list of 4 integers")
    return tuple(dims)


def _check_sampling(family: MetricFamily, dims: tuple) -> None:
    try:
        sampling_grid(family, dims)
    except ValueError as exc:
        raise ConfigError(f"cannot sample {family.kind} on dims {list(dims)}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    command: str
    seed: int
    out_dir: str
    options: dict


def load_scenario(path: str, out_override=None, seed_override=None) -> Scenario:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    command = _require(cfg, "command", str, required=True)
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    seed = _require(cfg, "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    out_dir = _require(cfg, "out", str, default=".")

    common = {"command", "seed", "out"}
    if command == "identities":
        _reject_unknown(cfg, common | {"count", "tolerances"}, "config")
        count = _require(cfg, "count", int, required=True)
        if count < 1:
            raise ConfigError("count must be >= 1")
        if count > MAX_IDENTITY_COUNT:
            raise ConfigError(f"count must be <= {MAX_IDENTITY_COUNT}")
        tolerances = dict(DEFAULT_TOLERANCES)
        extra = _require(cfg, "tolerances", dict, default={})
        for key, val in extra.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown identity name in tolerances: {key!r}")
            tolerances[key] = _finite(val, f"tolerance for {key!r}")
            if tolerances[key] <= 0:
                raise ConfigError(f"tolerance for {key!r} must be a positive finite number")
        options = {"count": count, "tolerances": tolerances}
    elif command == "flow":
        allowed = common | {
            "family", "dims", "variant", "t_end", "cadence", "safety", "dt",
            "blowup_factor", "tnorm_check",
        }
        _reject_unknown(cfg, allowed, "config")
        family = _parse_family(_require(cfg, "family", dict, required=True))
        dims = _parse_dims(cfg.get("dims"))
        _check_sampling(family, dims)
        variant = _require(cfg, "variant", str, default="gflow")
        if variant not in fl.VARIANTS:
            raise ConfigError(f"variant must be one of {fl.VARIANTS}")
        t_end = _require(cfg, "t_end", float, default=0.5)
        cadence = _require(cfg, "cadence", int, default=10)
        safety = _require(cfg, "safety", float, default=0.05)
        dt = _require(cfg, "dt", float, default=None)
        blowup = _require(cfg, "blowup_factor", float, default=1e3)
        tnorm = _require(cfg, "tnorm_check", bool, default=False)
        if t_end <= 0 or cadence < 1 or safety <= 0 or blowup <= 0:
            raise ConfigError("t_end, cadence, safety, blowup_factor must be positive")
        if dt is not None and dt <= 0:
            raise ConfigError("dt must be positive")
        if tnorm and variant != "gflow":
            raise ConfigError("tnorm_check audits the gflow variant only")
        options = {
            "family": family, "dims": dims, "variant": variant, "t_end": t_end,
            "cadence": cadence, "safety": safety, "dt": dt,
            "blowup_factor": blowup, "tnorm_check": tnorm,
        }
    elif command == "static":
        allowed = common | {"family", "dims", "field_file", "c1_bundle"}
        _reject_unknown(cfg, allowed, "config")
        if ("family" in cfg) == ("field_file" in cfg):
            raise ConfigError("static needs exactly one of 'family' or 'field_file'")
        if "field_file" in cfg and "dims" in cfg:
            raise ConfigError("dims applies to a family; a field file carries its own")
        family = _parse_family(cfg["family"]) if "family" in cfg else None
        field_file = _require(cfg, "field_file", str, default=None)
        dims = _parse_dims(cfg.get("dims"))
        if family is not None:
            _check_sampling(family, dims)
        bundle = cfg.get("c1_bundle", [[1.0, 0.0], [0.0, -1.0]])
        if not (
            isinstance(bundle, list)
            and len(bundle) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in bundle)
        ):
            raise ConfigError("c1_bundle must be a real 2x2 matrix")
        bundle = np.array([[_finite(v, "a c1_bundle entry") for v in row] for row in bundle])
        # static_report's test that the class is Hermitian, made before any sampling
        if np.abs(bundle - bundle.T).max() > 1e-12:
            raise ConfigError("c1_bundle must be symmetric")
        options = {
            "family": family, "field_file": field_file, "dims": dims,
            "c1_bundle": bundle,
        }
    else:  # hopf
        _reject_unknown(cfg, common | {"samples", "tol"}, "config")
        samples = _require(cfg, "samples", int, required=True)
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        tol = _require(cfg, "tol", float, default=1e-10)
        if tol <= 0:
            raise ConfigError("tol must be positive")
        options = {"samples": samples, "tol": tol}

    if out_override is not None:
        out_dir = out_override
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("seed must be nonnegative")
        seed = seed_override
    probe = os.path.abspath(out_dir)  # the output directory or its nearest existing parent
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"output directory {out_dir!r}: {probe!r} is not a directory")
    return Scenario(command=command, seed=seed, out_dir=out_dir, options=options)


# ---------------------------------------------------------------------------
# commands


def _family_sample_jets() -> dict[str, "hm.HermitianJet"]:
    """Analytic-family jets at 7 fixed probe points each, by family name;
    every family is pluriclosed."""
    grids = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    pts = (grids, grids * 0 + 0.3, grids[::-1], grids * 0 + 1.1)
    zs = np.exp(1j * grids)
    return {
        "flat": jet_at(MetricFamily("flat"), pts),
        "kahler_potential": jet_at(MetricFamily("kahler_potential", 0.4), pts),
        "torus_pluriclosed": jet_at(MetricFamily("torus_pluriclosed", 0.5), pts),
        "hopf": jet_at(MetricFamily("hopf"), (0.9 * zs, 0.7 * np.conj(zs))),
    }


def cmd_identities(scenario: Scenario) -> int:
    count = scenario.options["count"]
    tolerances = scenario.options["tolerances"]
    seed = scenario.seed
    worst: dict[str, float] = {name: 0.0 for name in DEFAULT_TOLERANCES}

    def absorb(res: dict) -> None:
        for name, vals in res.items():
            worst[name] = max(worst[name], float(np.asarray(vals).max()))

    rng = np.random.default_rng(seed)
    for pluriclosed in (False, True):
        for start in range(0, count, IDENTITY_CHUNK):
            jets = hm.random_jet_batch(rng, min(IDENTITY_CHUNK, count - start), pluriclosed)
            absorb(hm.identity_suite(jets, pluriclosed))
    # each jet's residuals do not depend on its batch, so the probes are
    # checked as one batch: 1.4 ms, against 5.0 ms for one batch per family
    probes = _family_sample_jets().values()
    parts = ([getattr(jet, name) for jet in probes] for name in ("g", "d1", "d2m", "d2h"))
    absorb(hm.identity_suite(hm.HermitianJet(*map(np.concatenate, parts)), pluriclosed=True))

    failures = [name for name, val in sorted(worst.items()) if val > tolerances[name]]
    report = {
        "command": "identities",
        "count": count,
        "seed": seed,
        "residuals": worst,
        "tolerances": tolerances,
        "failures": failures,
        "pass": not failures,
    }
    path = os.path.join(scenario.out_dir, "identities_report.json")
    _atomic_write_text(path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    if failures:
        print(f"FAIL: identity {failures[0]} residual {worst[failures[0]]:.3e} "
              f"exceeds {tolerances[failures[0]]:.1e}")
        return EXIT_TOLERANCE
    print(f"ok: {len(worst)} identities within tolerance over {count} jets")
    return EXIT_OK


def cmd_flow(scenario: Scenario) -> int:
    opts = scenario.options
    field = sample(opts["family"], opts["dims"])
    result = fl.run(
        field,
        variant=opts["variant"],
        t_end=opts["t_end"],
        cadence=opts["cadence"],
        safety=opts["safety"],
        dt=opts["dt"],
        blowup_factor=opts["blowup_factor"],
    )
    summary = dict(result.summary)
    csv_path = os.path.join(scenario.out_dir, "diagnostics.csv")
    summary_path = os.path.join(scenario.out_dir, "summary.json")
    fl.write_diagnostics_csv(csv_path, result.records)
    fl.write_summary_json(summary_path, summary)
    print(f"flow finished: status={result.status} steps={summary['steps']}")
    if opts["tnorm_check"]:
        # the audit takes its own RK4 steps, which can fail; the run's files stay
        try:
            audit = fl.tnorm_evolution_check(result.final_state)
        except fl.FlowError as exc:
            print(f"numerical failure: tnorm_check audit: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        summary["tnorm_residual_raw_max"] = audit.max_raw
        summary["tnorm_residual_attributed_max"] = audit.max_attributed
        summary["tnorm_convention_term_max"] = float(
            np.abs(audit.convention_term).max()
        )
        fl.write_summary_json(summary_path, summary)
    return EXIT_OK if result.status == "completed" else EXIT_NUMERICAL


def cmd_static(scenario: Scenario) -> int:
    opts = scenario.options
    if opts["family"] is not None:
        field = sample(opts["family"], opts["dims"])
    else:
        try:
            field = load_field(opts["field_file"])
            field.check()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot use field file: {exc}") from exc
    try:
        report = st.static_report(field, opts["c1_bundle"])
    except hm.SingularMetricError as exc:  # positive definite, but det g over- or underflows
        raise ConfigError(f"cannot use field: {exc}") from exc
    st.write_static_report(os.path.join(scenario.out_dir, "static_report.json"), report)
    is_flat = opts["family"] is not None and opts["family"].kind == "flat"
    if is_flat:
        gaps = (
            abs(report.gap_wedge_volume),
            abs(report.gap_degree_pairing),
            abs(report.lambda_star),
            abs(report.degree),
        )
        if max(gaps) > 1e-10:
            print(f"FAIL: flat-field sanity gap {max(gaps):.3e} exceeds 1e-10")
            return EXIT_TOLERANCE
    print(f"static report written: lambda*={report.lambda_star!r}")
    return EXIT_OK


def cmd_hopf(scenario: Scenario) -> int:
    opts = scenario.options
    rng = np.random.default_rng(scenario.seed)
    n = opts["samples"]
    raw = rng.normal(size=(n, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rho = rng.uniform(0.5, 2.0, size=n)
    z1 = rho * (raw[:, 0] + 1j * raw[:, 1])
    z2 = rho * (raw[:, 2] + 1j * raw[:, 3])
    jet = jet_at(MetricFamily("hopf"), (z1, z2))
    scale = np.abs(jet.g).max(axis=(-1, -2))
    _, ric1, _, _ = hm.chern_curvature(jet)
    quad1, _, _ = hm.torsion_quadratics(jet)
    rhs = -ric1 + quad1
    errs = {
        "curvature_trace_vs_metric": np.abs(ric1 - jet.g).max(axis=(-1, -2)) / scale,
        "torsion_quad_vs_metric": np.abs(quad1 - jet.g).max(axis=(-1, -2)) / scale,
        "flow_velocity": np.abs(rhs).max(axis=(-1, -2)) / scale,
    }
    worst = {k: float(v.max()) for k, v in errs.items()}
    bad = [k for k, v in sorted(worst.items()) if v > opts["tol"]]
    if bad:
        print(f"FAIL: hopf check {bad[0]} error {worst[bad[0]]:.3e}")
        return EXIT_TOLERANCE
    print(f"ok: hopf static checks pass at {n} points (worst {max(worst.values()):.3e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _check_threads_env() -> None:
    # PLURIGEO_THREADS caps the threads of the stencil pass and the surface
    # kernel (at most 2, and no more than the CPUs this process may run on);
    # outputs are byte-identical for every value, so only a malformed one is
    # an error
    try:
        stencil_threads()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plurigeo",
        description="Pluriclosed-flow numerics: identities, flow runs, "
        "static diagnostics, and the Hopf example.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        _check_threads_env()
        scenario = load_scenario(args.config, out_override=args.out, seed_override=args.seed)
        if scenario.command != args.command:
            raise ConfigError(
                f"config is for {scenario.command!r}, invoked as {args.command!r}"
            )
        handler = {
            "identities": cmd_identities,
            "flow": cmd_flow,
            "static": cmd_static,
            "hopf": cmd_hopf,
        }[scenario.command]
        return handler(scenario)
    except (ConfigError, MemoryError, OSError) as exc:  # OSError: an unwritable output
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (fl.FlowError,) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
