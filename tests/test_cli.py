"""CLI tests: config validation, exit codes, outputs, determinism."""

import functools
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plurigeo
from plurigeo import cli
from plurigeo.families import MetricFamily
from plurigeo.grid import MetricField, TorusGrid, sample, save_field

from conftest import two_cpus, worker_ran
from test_hermitian import _random_jet_reference


TORUS = {"kind": "torus_pluriclosed", "eps": 0.5}
README_CONFIGS = re.findall(
    r"```json\n(.*?)```",
    (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.DOTALL,
)


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

    def test_count_over_budget(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a jet was drawn")

        monkeypatch.setattr(cli.hm, "random_jet_batch", no_draw)
        payload = {"command": "identities", "count": cli.MAX_IDENTITY_COUNT + 1}
        assert run_cli(tmp_path, "identities", payload) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()
        # the budget itself is a valid count
        payload["count"] = cli.MAX_IDENTITY_COUNT
        scenario = cli.load_scenario(write_config(tmp_path / "max.json", payload))
        assert scenario.options["count"] == cli.MAX_IDENTITY_COUNT

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

    def test_threads_env_validated(self, tmp_path, monkeypatch, capsys):
        for val in ("zero", "0"):
            monkeypatch.setenv("PLURIGEO_THREADS", val)
            code = run_cli(tmp_path, "hopf", {"command": "hopf", "samples": 2})
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: PLURIGEO_THREADS")
            assert not (tmp_path / "out").exists()

    def test_tnorm_check_needs_gflow(self, tmp_path, capsys):
        code = run_cli(tmp_path, "flow", {
            "command": "flow", "family": TORUS, "variant": "normalized",
            "t_end": 0.01, "tnorm_check": True,
        })
        assert code == cli.EXIT_CONFIG
        assert "tnorm_check" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_field_file_takes_no_dims(self, tmp_path, capsys):
        path = tmp_path / "field.pgmf"
        save_field(path, sample(MetricFamily("flat"), (4, 4, 4, 4)))
        code = run_cli(tmp_path, "static", {
            "command": "static", "field_file": str(path), "dims": [64, 64, 64, 64],
        })
        assert code == cli.EXIT_CONFIG
        assert "dims" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_partial_output_on_bad_config(self, tmp_path):
        out = tmp_path / "out"
        run_cli(tmp_path, "flow", {
            "command": "flow", "family": {"kind": "flat"}, "t_end": -1,
        })
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("index", range(len(README_CONFIGS)))
    def test_readme_config_loads(self, tmp_path, index):
        # configs are strict, so a renamed or removed key leaves README wrong
        path = tmp_path / "config.json"
        path.write_text(README_CONFIGS[index])
        cli.load_scenario(str(path), out_override=str(tmp_path))


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

    def test_chunked_report_is_byte_identical(self, tmp_path, monkeypatch):
        payload = {"command": "identities", "count": 30, "seed": 7}
        assert run_cli(tmp_path, "identities", payload, out="whole") == cli.EXIT_OK
        batches = []
        draw = cli.hm.random_jet_batch

        def record(rng, count, pluriclosed=False):
            batches.append((count, pluriclosed))
            return draw(rng, count, pluriclosed)

        monkeypatch.setattr(cli.hm, "random_jet_batch", record)
        monkeypatch.setattr(cli, "IDENTITY_CHUNK", 7)
        assert run_cli(tmp_path, "identities", payload, out="chunked") == cli.EXIT_OK
        # 30 unconstrained, then 30 pluriclosed jets, at most 7 at a time
        assert batches == [(7, False)] * 4 + [(2, False)] + [(7, True)] * 4 + [(2, True)]
        whole = (tmp_path / "whole/identities_report.json").read_bytes()
        assert (tmp_path / "chunked/identities_report.json").read_bytes() == whole

    def test_probe_batch_matches_one_suite_per_family(self, tmp_path, monkeypatch):
        # identities checks the family probes as one batch; each probe's
        # residuals, so each identity's worst value, are those of one suite
        # per family
        calls = []
        suite = cli.hm.identity_suite

        def record(jet, pluriclosed=False):
            calls.append((jet, pluriclosed, suite(jet, pluriclosed)))
            return calls[-1][2]

        monkeypatch.setattr(cli.hm, "identity_suite", record)
        assert run_cli(tmp_path, "identities", {"command": "identities", "count": 3}) == cli.EXIT_OK
        jet, pluriclosed, batch = calls[-1]
        probes = cli._family_sample_jets()
        assert pluriclosed and len(calls) == 3 and len(jet.g) == 7 * len(probes)
        separate = [suite(probe, pluriclosed=True) for probe in probes.values()]
        assert batch.keys() == separate[0].keys()
        for name, vals in batch.items():
            assert np.array_equal(vals, np.concatenate([res[name] for res in separate])), name

    def test_report_is_one_stream_of_reference_jets(self, tmp_path, monkeypatch):
        # the oracle draws jet after jet from its own generator of the config
        # seed: count unconstrained jets, then count pluriclosed ones
        payload = {"command": "identities", "count": 9, "seed": 11}
        assert run_cli(tmp_path, "identities", payload, out="batch") == cli.EXIT_OK
        stream = np.random.default_rng(11)

        def jet_after_jet(rng, count, pluriclosed=False):
            refs = [_random_jet_reference(stream, pluriclosed) for _ in range(count)]
            g, d1, d2m, d2h = (np.stack(parts) for parts in zip(*refs))
            return cli.hm.HermitianJet(g=g, d1=d1, d2m=d2m, d2h=d2h)

        monkeypatch.setattr(cli.hm, "random_jet_batch", jet_after_jet)
        monkeypatch.setattr(cli, "IDENTITY_CHUNK", 4)
        assert run_cli(tmp_path, "identities", payload, out="reference") == cli.EXIT_OK
        batch = (tmp_path / "batch/identities_report.json").read_bytes()
        assert (tmp_path / "reference/identities_report.json").read_bytes() == batch


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
    @two_cpus
    def test_identities_byte_identical_across_threads(self, tmp_path, identity_threads, monkeypatch):
        # batches that split, against the report of whole batches: an odd
        # count just over the threshold, and, at a lowered threshold, a count
        # over three chunks whose probe batch of 28 jets splits too
        for count, chunk, least in ((cli.hm._SPLIT_JETS + 1, cli.IDENTITY_CHUNK, cli.hm._SPLIT_JETS), (31, 12, 8)):
            payload = {"command": "identities", "count": count, "seed": 11}
            monkeypatch.setattr(cli, "IDENTITY_CHUNK", chunk)
            monkeypatch.setattr(cli.hm, "_SPLIT_JETS", 10**9)
            assert run_cli(tmp_path, "identities", payload, out=f"whole{count}") == cli.EXIT_OK
            whole = (tmp_path / f"whole{count}/identities_report.json").read_bytes()
            monkeypatch.setattr(cli.hm, "_SPLIT_JETS", least)
            for threads in ("1", "8"):
                identity_threads.clear()
                monkeypatch.setenv("PLURIGEO_THREADS", threads)
                assert run_cli(tmp_path, "identities", payload, out=f"t{threads}_{count}") == cli.EXIT_OK
                assert worker_ran(identity_threads) == (threads == "8"), (count, threads)
                assert (tmp_path / f"t{threads}_{count}/identities_report.json").read_bytes() == whole

    def test_seed_override(self, tmp_path):
        payload = {"command": "identities", "count": 10, "seed": 1}
        run_cli(tmp_path, "identities", payload, out="a", seed=99)
        report = json.loads((tmp_path / "a/identities_report.json").read_text())
        assert report["seed"] == 99

    def test_seed_may_exceed_64_bits(self, tmp_path):
        payload = {"command": "identities", "count": 2}
        assert run_cli(tmp_path, "identities", payload, seed=2**64) == cli.EXIT_OK
        assert json.loads((tmp_path / "out/identities_report.json").read_text())["seed"] == 2**64


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
        {"command": "static", "family": {"kind": "flat"}, "c1_bundle": [["1", "0"], [False, True]]},
        {"command": "static", "family": {"kind": "flat"}, "c1_bundle": [[1, 0], [0, True]]},
        {"command": "static", "family": {"kind": "flat"}, "c1_bundle": [[10**400, 0], [0, 1]]},
        {"command": "static", "family": {"kind": "flat"}, "c1_bundle": [[1, 0], [0, -1], [0, 0]]},
        {"command": "static", "family": {"kind": "flat"}, "dims": [4, 4, 4, 4],
         "c1_bundle": [[1, 2], [3, 4]]},
        {"command": "identities", "count": 3, "tolerances": {"bianchi_first": float("inf")}},
        {"command": "hopf", "samples": 3, "tol": float("nan")},
        # integers beyond the range of a float, for every float key
        {"command": "flow", "family": TORUS, "t_end": 10**400},
        {"command": "flow", "family": TORUS, "safety": 10**400},
        {"command": "flow", "family": TORUS, "dt": 10**400},
        {"command": "flow", "family": TORUS, "blowup_factor": 10**400},
        {"command": "flow", "family": {"kind": "kahler_potential", "eps": 10**400}},
        {"command": "hopf", "samples": 3, "tol": 10**400},
        {"command": "identities", "count": 3, "tolerances": {"bianchi_first": 10**400}},
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


# Each of these requests at least 1 PiB, beyond the 128 TiB x86-64 user
# address space, so numpy refuses the allocation at once.
HUGE_DIMS = [4096, 4096, 4096, 4096]


class TestOversizedOrUnwritable:
    """Requests too large for memory and unusable output paths exit 2 in-process."""

    @pytest.mark.parametrize("payload", [
        {"command": "static", "family": TORUS, "dims": HUGE_DIMS},
        {"command": "flow", "family": TORUS, "dims": HUGE_DIMS},
        {"command": "hopf", "samples": 10**14},
    ], ids=lambda p: p["command"])
    def test_oversized(self, tmp_path, capsys, payload):
        code = run_cli(tmp_path, payload["command"], payload)
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in err and "config error" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload", [
        {"command": "identities", "count": 3},
        {"command": "static", "family": {"kind": "flat"}, "dims": [4, 4, 4, 4]},
        {"command": "flow", "family": TORUS, "t_end": 0.01},
    ], ids=lambda p: p["command"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_is_a_file(self, tmp_path, capsys, payload, below):
        (tmp_path / "out").write_text("keep")
        out = "out/sub" if below else "out"
        code = run_cli(tmp_path, payload["command"], payload, out=out)
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in err and "config error" in err
        assert (tmp_path / "out").read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out", f"{payload['command']}.json"])

    def test_write_failure(self, tmp_path, capsys, monkeypatch):
        def no_space(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_atomic_write_text", no_space)
        code = run_cli(tmp_path, "identities", {"command": "identities", "count": 3})
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in err and "No space left" in err


class TestOverflowingStage:
    def test_exits_three_with_files(self, tmp_path):
        code, err, out = run_process(tmp_path, "flow", {
            "command": "flow", "family": TORUS, "dims": [4, 4, 16, 4],
            "dt": 1e100, "t_end": 1e100,
        })
        assert code == cli.EXIT_NUMERICAL
        assert "Traceback" not in err and "RuntimeWarning" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "blowup_suspected" and summary["steps"] == 0
        assert (out / "diagnostics.csv").exists()

    def test_overflow_at_one_node_exits_three(self, tmp_path, monkeypatch):
        # a spike of 1e40 at one node: an RK4 stage overflows there alone, and
        # its derivatives turn whole grid lines NaN (grid.TorusGrid.dx)
        spike = (1, 2, 5, 1)

        def spiked(family, dims):
            field = sample(family, dims)
            values = field.values.copy()
            values[spike] *= 1e40
            return MetricField(field.grid, values)

        stages = []
        rhs = cli.fl._rhs

        def counted(field, *args):
            stages.append(int((~np.isfinite(field.values)).any(axis=(-2, -1)).sum()))
            return rhs(field, *args)

        monkeypatch.setattr(cli, "sample", spiked)
        monkeypatch.setattr(cli.fl, "_rhs", counted)
        with np.errstate(all="ignore"):
            code = run_cli(tmp_path, "flow", {
                "command": "flow", "family": TORUS, "dims": [4, 4, 16, 4], "dt": 1e-2, "t_end": 0.1,
            })
        assert 1 in stages  # a stage with exactly one non-finite node reached the velocity
        assert code == cli.EXIT_NUMERICAL
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["status"] == "blowup_suspected" and summary["steps"] == 0


class TestTnormAuditFailure:
    def test_run_files_kept(self, tmp_path):
        # the run ends degenerate at its first step; the audit's own dt = 1
        # steps then fail too, after the run's files are written
        code, err, out = run_process(tmp_path, "flow", {
            "command": "flow", "family": {"kind": "torus_pluriclosed", "eps": 0.9999},
            "dims": [8, 4, 8, 4], "dt": 1.0, "t_end": 2.0, "tnorm_check": True,
        })
        assert code == cli.EXIT_NUMERICAL
        assert "Traceback" not in err and "tnorm_check audit" in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "degenerate"
        assert "tnorm_residual_raw_max" not in summary
        assert (out / "diagnostics.csv").read_text().startswith("step,")


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


def _powers():
    """Powers of ten from 1e-300 to 1e300."""
    return st.integers(-300, 300).map(lambda e: 10.0**e)


def _magnitudes():
    """Zero and powers of ten of either sign."""
    return st.one_of(st.just(0.0), _powers(), _powers().map(lambda x: -x))


def _mostly(usable, extreme):
    """``usable`` four times in five, else ``extreme``."""
    return st.integers(0, 4).flatmap(lambda k: extreme if k == 0 else usable)


def _positive(lo, hi):
    """A float in [lo, hi] or a power of ten."""
    return st.one_of(st.floats(lo, hi), _powers())


FUZZ_DIMS = [8, 4, 8, 4]
EPS_RANGE = {"flat": 0.0, "kahler_potential": 4.0, "torus_pluriclosed": 1.0}


@st.composite
def flow_configs(draw):
    """Flow configs over extreme values; the dt/t_end ratio keeps a run near 50 steps."""
    kind = draw(st.sampled_from(sorted(EPS_RANGE)))
    eps = draw(_mostly(st.floats(0.0, EPS_RANGE[kind], exclude_max=kind != "flat"), _magnitudes()))
    cfg = {"command": "flow", "family": {"kind": kind, "eps": eps}, "dims": FUZZ_DIMS,
           "variant": draw(st.sampled_from(["gflow", "normalized", "omega_form"])),
           "cadence": draw(_mostly(st.integers(1, 60), st.one_of(
               st.integers(-2, 0), st.just(10**300), _magnitudes())))}
    if cfg["variant"] == "gflow":  # a config error elsewhere (test_tnorm_check_needs_gflow)
        cfg["tnorm_check"] = draw(st.booleans())
    if draw(st.booleans()):
        dt = cfg["dt"] = draw(_mostly(_positive(1e-4, 10.0), _magnitudes()))
    else:
        safety = cfg["safety"] = draw(_mostly(_positive(1e-3, 3.0), _magnitudes()))
        try:
            dt = cli.fl.cfl_dt(sample(MetricFamily(kind, eps), tuple(FUZZ_DIMS)), safety)
        except ValueError:  # an invalid config; its t_end is never reached
            dt = 1.0
    cfg["t_end"] = draw(_mostly(st.floats(0.5, 50.0), st.floats(-50.0, 50.0))) * dt
    return cfg


def _bounded_or_power(lo, hi):
    """``(x, False)`` with x in [lo, hi] four times in five, else ``(power of ten, True)``."""
    return _mostly(st.floats(lo, hi).map(lambda x: (x, False)), _powers().map(lambda x: (x, True)))


@st.composite
def metric_payloads(draw):
    """A field-file header over a perturbed, scaled metric, or one of its defects,
    with a label: the defect's name, ``None`` for a positive-definite field whose
    scale and amplitude lie in the bounded ranges, ``"extreme"`` for one whose
    scale or amplitude is a power of ten."""
    dims = draw(st.sampled_from([(4, 4, 4, 4), (8, 4, 8, 4), (4, 4, 8, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.standard_normal(dims + (2, 2)) + 1j * rng.standard_normal(dims + (2, 2))
    (scale, power_scale), (amp, power_amp) = draw(_bounded_or_power(0.5, 2.0)), draw(_bounded_or_power(0.0, 0.1))
    defect = draw(st.sampled_from([None, "not_hermitian", "cut_short", "indefinite"]))
    with np.errstate(all="ignore"):
        values = scale * (np.eye(2) + amp * noise)
        if defect != "not_hermitian":
            values = 0.5 * (values + np.conj(values.swapaxes(-1, -2)))
    if defect == "indefinite":  # g22 < 0 < g11 at one node
        values[0, 0, 0, 0, 1, 1] *= -1
    if defect is None and (power_scale or power_amp):
        defect = "extreme"
    payload = struct.pack("<4sI4I", b"PGMF", 1, *dims) + values.tobytes()
    return (payload[:-8] if defect == "cut_short" else payload), defect


def _numbers(obj):
    """Every number in a parsed JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in _numbers(item)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _exits_documented(tmp, command, payload):
    """Run ``main`` in-process: the exit code is documented, exit 2 writes nothing."""
    cfg = write_config(pathlib.Path(tmp) / "config.json", payload)
    out = os.path.join(tmp, "out")
    with np.errstate(all="ignore"):
        code = cli.main([command, "--config", cfg, "--out", out])
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    if code == cli.EXIT_CONFIG:
        assert not os.path.exists(out)
    return code


class TestFuzz:
    """In-process fuzzing of ``main``; derandomized, so the suite stays reproducible."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(flow_configs())
    def test_flow_configs(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            if _exits_documented(tmp, "flow", payload) == cli.EXIT_OK:  # completed
                summary = json.loads((pathlib.Path(tmp) / "out" / "summary.json").read_text())
                assert summary["t_final"] >= payload["t_end"] * (1 - 1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(st.tuples(st.binary(max_size=64), st.just("bytes")), metric_payloads()))
    def test_static_field_files(self, case):
        data, defect = case
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "field.pgmf"
            path.write_bytes(data)
            code = _exits_documented(tmp, "static", {"command": "static", "field_file": str(path)})
            if defect is None:  # a clean field: its report is written, and finite
                assert code == cli.EXIT_OK
                report = json.loads((pathlib.Path(tmp) / "out" / "static_report.json").read_text())
                assert all(math.isfinite(v) for v in _numbers(report))
        if defect == "indefinite":  # rejected by the positivity check
            assert code == cli.EXIT_CONFIG
