"""plurigeo benchmark: run one workload, check its outputs, print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is one JSON object holding the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  ``--all`` runs every workload both ways, prints one
table and writes ``.perfbench/results.json``.

This process imports no numpy.  Each workload runs in its own worker
process (``worker.py``), started with the BLAS and OpenMP thread counts
pinned, so its peak RSS is the workload's own.

The times are measured against a frozen reference copy of the program
(``perfbench/reference/plurigeo_ref``), run on the same inputs and
interleaved with it, because the speed of the machine the benchmark was
made on changes by up to 2x within seconds.  ``run_s`` is the program's
time divided by the reference's time in the same run, times the
reference's time in ``REFERENCE_S``; ``setup_s`` likewise, from pairs of
fresh set-up processes.  Workloads, metrics and the reasons for them are
documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SCRATCH = CHECKOUT / ".perfbench"

THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BUILDS = ("plurigeo", "plurigeo_ref")  # the program, the frozen reference
# Pairs of set-up-only workers, one of each build, half before and half
# after the measuring worker.
SETUP_PAIRS = 6
# Wall times of the reference build (seconds per repetition of the body,
# and per set-up) on the machine the benchmark was made on: a 2-vCPU
# x86_64 VM, numpy 2.4 with OpenBLAS 0.3.31 on one thread.  They only
# scale the ratios to seconds.
REFERENCE_S = {
    "flow-torus": {"run_s": 0.86, "setup_s": 0.185},
    "flow-4d": {"run_s": 2.65, "setup_s": 0.24},
    "checks": {"run_s": 1.8, "setup_s": 0.47},
}
DEADLINE_S = 170.0  # the whole run, workers included, ends within this


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


def load_spec() -> dict:
    with open(CHECKOUT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    return env


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float, build=BUILDS[0]) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    result = SCRATCH / f"result-{os.getpid()}-{workload}-{mode}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--build", build, "--scratch", str(SCRATCH), "--result", str(result),
    ]
    try:
        # worker output goes to our stderr; our stdout carries only the report
        proc = subprocess.run(
            cmd, env=_worker_env(), stdout=sys.stderr, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    try:
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
        with open(result) as fh:
            return json.load(fh)
    finally:
        result.unlink(missing_ok=True)


def end_to_end(raw: dict, setup_pairs: list[tuple[float, float]], entries: list[dict]) -> dict:
    """The end-to-end metrics named in ``entries`` (BENCHMARK.json's
    ``end_to_end``) of one untraced run.

    ``run_s`` scales the median ratio of program to reference time over
    the paired repetitions; ``setup_s`` scales the median ratio of the
    (program, reference) set-up pairs.  A median, because a pair during
    which the machine changes speed gives an outlier.  See README.md.
    """
    ref = REFERENCE_S[raw["workload"]]
    run_s = statistics.median(p / r for p, r in zip(raw["rep_s"], raw["ref_s"])) * ref["run_s"]
    values = {
        "run_s": run_s,
        "node_steps_per_s": statistics.fmean(raw["work"]) / run_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(p / r for p, r in setup_pairs) * ref["setup_s"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (raw worker result, result object)."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        raw = _worker(workload, seed, seconds, "trace", deadline)
        metrics = raw["per_layer"]
    else:
        def probes(first, n):
            pairs = []
            for k in range(first, first + n):
                order = BUILDS if k % 2 == 0 else BUILDS[::-1]  # alternate which goes first
                t = {b: _worker(workload, seed, seconds, "setup", deadline, b)["setup_s"] for b in order}
                pairs.append((t[BUILDS[0]], t[BUILDS[1]]))
            return pairs

        setup = probes(0, SETUP_PAIRS // 2)
        raw = _worker(workload, seed, seconds, "run", deadline)
        setup += probes(SETUP_PAIRS // 2, SETUP_PAIRS - SETUP_PAIRS // 2)
        raw["setup_pairs"] = setup
        metrics = end_to_end(raw, setup, load_spec()["end_to_end"])
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return raw, result


def report(raw: dict, result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print("env " + json.dumps(raw["env"], sort_keys=True))
    att, failed = result["attempted"], result["failed"]
    print(
        f"workload {raw['workload']}: repetitions {len(raw['rep_s'])}"
        + (f" untraced + {len(raw['traced_rep_s'])} traced" if "traced_rep_s" in raw else "")
        + f", operations {att}, failed {failed}, fail_rate {failed / att:.4g}"
    )
    print("  repetition seconds: " + " ".join(f"{t:.4f}" for t in raw["rep_s"]))
    if "ref_s" in raw:
        print("  reference repetition seconds: " + " ".join(f"{t:.4f}" for t in raw["ref_s"]))
        print(f"  wall run_s (unscaled mean): {statistics.fmean(raw['rep_s']):.4f} s")
    if "setup_pairs" in raw:
        print("  set-up seconds (program/reference): "
              + " ".join(f"{p:.4f}/{r:.4f}" for p, r in raw["setup_pairs"]))
    for msg in raw["failures"]:
        print(f"  FAILED: {msg}")
    for key, val in sorted(raw["observations"].items()):
        print(f"  observed {key} = {val!r}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    spec = load_spec()
    rows = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{wl['name']} --trace {trace} failed with exit code {proc.returncode}")
                return 1
            rows.setdefault(wl["name"], {})[f"trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(f"\n{'workload':<12} {'metric':<36} value")
    for name, runs in rows.items():
        untraced = runs["trace0"]
        fail_rate = untraced["failed"] / untraced["attempted"]
        print(f"{name:<12} {'fail_rate':<36} {fail_rate:.4g} ({untraced['failed']}/{untraced['attempted']})")
        for metric, m in {**untraced["metrics"], **runs["trace1"]["metrics"]}.items():
            print(f"{name:<12} {metric:<36} {m['value']:.6g} {m['unit']}")
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / "results.json"
    with open(out, "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "workloads": rows}, fh, indent=2, sort_keys=True)
    print(f"results written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="plurigeo benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "plurigeo" / "__init__.py").is_file():
        print(f"error: no plurigeo sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.seed < 0 or seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.all:
        return run_all(args.seed, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        raw, result = measure(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(raw, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
