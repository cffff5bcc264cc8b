"""CLI tests: config validation, exit codes, outputs, determinism."""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import plurigeo
from plurigeo import cli
from plurigeo.families import MetricFamily
from plurigeo.grid import MetricField, TorusGrid, sample, save_field


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command, payload, out="out", seed=None, env=None, monkeypatch=None):
    cfg = write_config(tmp_path / f"{command}.json", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if env and monkeypatch:
        for key, val in env.items():
            monkeypatch.setenv(key, val)
    return cli.main(argv)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        code = run_cli(tmp_path, "flow", {
            "command": "flow",
            "family": {"kind": "flat"},
            "bogus": 1,
        })
        assert code == cli.EXIT_CONFIG
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["flow", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["flow", "--config", str(p)]) == cli.EXIT_CONFIG

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"command": "hopf", "samples": 3})
        assert cli.main(["flow", "--config", cfg]) == cli.EXIT_CONFIG

    def test_count_zero_usage_error(self, tmp_path):
        code = run_cli(tmp_path, "identities", {"command": "identities", "count": 0})
        assert code == cli.EXIT_CONFIG

    def test_bad_family(self, tmp_path):
        code = run_cli(tmp_path, "flow", {
            "command": "flow", "family": {"kind": "torus_pluriclosed", "eps": 1.5},
        })
        assert code == cli.EXIT_CONFIG

    def test_bad_dims(self, tmp_path):
        code = run_cli(tmp_path, "flow", {
            "command": "flow", "family": {"kind": "flat"}, "dims": [8, 8, 8],
        })
        assert code == cli.EXIT_CONFIG

    def test_static_needs_exactly_one_source(self, tmp_path):
        code = run_cli(tmp_path, "static", {"command": "static"})
        assert code == cli.EXIT_CONFIG
        code = run_cli(tmp_path, "static", {
            "command": "static", "family": {"kind": "flat"}, "field_file": "x",
        })
        assert code == cli.EXIT_CONFIG

    def test_threads_env_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLURIGEO_THREADS", "zero")
        code = run_cli(tmp_path, "hopf", {"command": "hopf", "samples": 2})
        assert code == cli.EXIT_CONFIG

    def test_no_partial_output_on_bad_config(self, tmp_path):
        out = tmp_path / "out"
        run_cli(tmp_path, "flow", {
            "command": "flow", "family": {"kind": "flat"}, "t_end": -1,
        })
        assert not out.exists() or not any(out.iterdir())


class TestIdentities:
    def test_small_run_passes(self, tmp_path):
        code = run_cli(tmp_path, "identities",
                       {"command": "identities", "count": 25, "seed": 7})
        assert code == cli.EXIT_OK
        report = json.loads((tmp_path / "out/identities_report.json").read_text())
        assert report["pass"] is True
        assert max(report["residuals"].values()) <= 1e-10

    def test_tampered_tolerance_fails_named(self, tmp_path, capsys):
        code = run_cli(tmp_path, "identities", {
            "command": "identities", "count": 25, "seed": 7,
            "tolerances": {"bianchi_first": 1e-16},
        })
        assert code == cli.EXIT_TOLERANCE
        report = json.loads((tmp_path / "out/identities_report.json").read_text())
        assert report["failures"] == ["bianchi_first"]
        assert "bianchi_first" in capsys.readouterr().out

    def test_unknown_tolerance_name_rejected(self, tmp_path):
        code = run_cli(tmp_path, "identities", {
            "command": "identities", "count": 5, "tolerances": {"nope": 1e-3},
        })
        assert code == cli.EXIT_CONFIG


class TestFlowCommand:
    def test_files_written(self, tmp_path):
        code = run_cli(tmp_path, "flow", {
            "command": "flow",
            "family": {"kind": "torus_pluriclosed", "eps": 0.5},
            "dims": [4, 4, 16, 4],
            "t_end": 0.02,
            "cadence": 2,
        })
        assert code == cli.EXIT_OK
        csv = (tmp_path / "out/diagnostics.csv").read_text().splitlines()
        assert csv[0] == ",".join(cli.fl.CSV_COLUMNS)
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["status"] == "completed"

    def test_blowup_exit_code(self, tmp_path):
        code = run_cli(tmp_path, "flow", {
            "command": "flow",
            "family": {"kind": "torus_pluriclosed", "eps": 0.5},
            "dims": [4, 4, 16, 4],
            "t_end": 0.02,
            "cadence": 1,
            "blowup_factor": 1e-9,
        })
        assert code == cli.EXIT_NUMERICAL
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["status"] == "blowup_suspected"


class TestStaticCommand:
    def test_flat_family(self, tmp_path):
        code = run_cli(tmp_path, "static", {
            "command": "static", "family": {"kind": "flat"}, "dims": [4, 4, 8, 4],
        })
        assert code == cli.EXIT_OK
        report = json.loads((tmp_path / "out/static_report.json").read_text())
        assert abs(report["lambda_star"]) < 1e-12

    def test_field_file_source(self, tmp_path):
        field = sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 8, 4))
        path = tmp_path / "field.pgmf"
        save_field(path, field)
        code = run_cli(tmp_path, "static", {
            "command": "static", "field_file": str(path),
        })
        assert code == cli.EXIT_OK
        report = json.loads((tmp_path / "out/static_report.json").read_text())
        assert report["lambda_star"] < 0

    def test_corrupt_field_file(self, tmp_path):
        path = tmp_path / "junk.pgmf"
        path.write_bytes(b"garbage")
        code = run_cli(tmp_path, "static", {
            "command": "static", "field_file": str(path),
        })
        assert code == cli.EXIT_CONFIG


class TestHopfCommand:
    def test_passes(self, tmp_path):
        assert run_cli(tmp_path, "hopf", {"command": "hopf", "samples": 200}) == cli.EXIT_OK

    def test_impossible_tolerance_fails(self, tmp_path):
        code = run_cli(tmp_path, "hopf",
                       {"command": "hopf", "samples": 50, "tol": 1e-18})
        assert code == cli.EXIT_TOLERANCE


class TestDeterminism:
    def test_identities_byte_identical_across_threads(self, tmp_path, monkeypatch):
        payload = {"command": "identities", "count": 30, "seed": 11}
        monkeypatch.setenv("PLURIGEO_THREADS", "1")
        run_cli(tmp_path, "identities", payload, out="t1")
        monkeypatch.setenv("PLURIGEO_THREADS", "8")
        run_cli(tmp_path, "identities", payload, out="t8")
        a = (tmp_path / "t1/identities_report.json").read_bytes()
        b = (tmp_path / "t8/identities_report.json").read_bytes()
        assert a == b

    def test_seed_override(self, tmp_path):
        payload = {"command": "identities", "count": 10, "seed": 1}
        run_cli(tmp_path, "identities", payload, out="a", seed=99)
        report = json.loads((tmp_path / "a/identities_report.json").read_text())
        assert report["seed"] == 99


def run_process(tmp_path, command, payload):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr, out dir)."""
    cfg = write_config(tmp_path / f"{command}.json", payload)
    out = tmp_path / "out"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(plurigeo.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "plurigeo", command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr, out


def _constant_field_file(tmp_path, fill=-1.0):
    grid = TorusGrid((8, 4, 8, 4))
    values = np.broadcast_to(fill * np.eye(2, dtype=complex), grid.dims + (2, 2)).copy()
    path = tmp_path / "field.pgmf"
    save_field(path, MetricField(grid, values))
    return str(path)


TORUS = {"kind": "torus_pluriclosed", "eps": 0.5}


class TestInvalidInputsExitTwo:
    """Invalid inputs exit 2 with a one-line message and write nothing."""

    @pytest.mark.parametrize("payload", [
        {"command": "flow", "family": TORUS, "t_end": float("nan")},
        {"command": "flow", "family": TORUS, "t_end": float("inf")},
        {"command": "flow", "family": TORUS, "dt": float("nan")},
        {"command": "flow", "family": TORUS, "safety": float("inf")},
        {"command": "flow", "family": {"kind": "kahler_potential", "eps": float("nan")}},
        {"command": "flow", "family": TORUS, "dims": [4, 4, 4, 4]},
        {"command": "flow", "family": {"kind": "kahler_potential", "eps": 0.4},
         "dims": [16, 4, 6, 4]},
        {"command": "flow", "family": TORUS, "dims": [4, 4, 15, 4]},
        {"command": "flow", "family": {"kind": "hopf"}},
        {"command": "static", "family": TORUS, "dims": [4, 4, 4, 4]},
        {"command": "static", "family": {"kind": "flat"}, "c1_bundle": [[1, 0], [0, float("nan")]]},
        {"command": "identities", "count": 3, "tolerances": {"bianchi_first": float("inf")}},
        {"command": "hopf", "samples": 3, "tol": float("nan")},
    ], ids=lambda p: json.dumps(p, sort_keys=True))
    def test_config(self, tmp_path, payload):
        code, err, out = run_process(tmp_path, payload["command"], payload)
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in err and "config error" in err
        assert not out.exists()

    @pytest.mark.parametrize("fill", [-1.0, 0.0, float("nan")])
    def test_unusable_field_file(self, tmp_path, fill):
        path = _constant_field_file(tmp_path, fill)
        code, err, out = run_process(tmp_path, "static", {"command": "static", "field_file": path})
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in err and "field file" in err
        assert not out.exists()


class TestStepBudget:
    def test_max_steps_reached_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.fl, "run", functools.partial(cli.fl.run, max_steps=3))
        code = run_cli(tmp_path, "flow", {
            "command": "flow", "family": TORUS, "dims": [4, 4, 16, 4], "t_end": 0.5,
        })
        assert code == cli.EXIT_NUMERICAL
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["status"] == "max_steps_reached"
        assert summary["steps"] == 3 and summary["t_final"] < 0.5
